"""The repository's pytest configuration reports failures instead of crashing.

``pytest.ini`` turns every warning into an error.  Hypothesis's pytest
plugin imports ``mypy_extensions.TypedDict`` while it reports a failing
example; without an ignore for that one deprecation, the report itself
raised, pytest ended in ``INTERNALERROR`` and the falsifying example was
never shown.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

PYTEST_INI = Path(__file__).resolve().parent.parent / "pytest.ini"

FAILING_PROPERTY = textwrap.dedent(
    """
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_small(x):
        assert x < 5
    """
)


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    # cwd=tmp_path keeps Hypothesis's example database out of the checkout.
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(PYTEST_INI),
            "-p",
            "no:cacheprovider",
            "-q",
            "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = completed.stdout + completed.stderr
    assert "INTERNALERROR" not in output, output
    assert completed.returncode == 1, output
    assert "1 failed" in output, output
    assert "Falsifying example" in output, output
