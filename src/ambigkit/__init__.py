"""Toolkit for perceived-ambiguity measurement, clarification-labeled
training-set construction, and ambiguity-handling evaluation of language
models."""
