"""The repository's pytest settings, run on a module of their own."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIED_MODULE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_falsified(n):
    assert False


def test_passes():
    pass
'''


def test_falsified_hypothesis_example_reports_as_a_failure(tmp_path):
    # Hypothesis touches a deprecated name while it reports a falsified
    # example; under "error" alone that warning ends the session.
    (tmp_path / "test_module.py").write_text(FALSIFIED_MODULE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_module.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output
