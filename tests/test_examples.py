"""Every example script must run clean (smoke tests, subprocess-based)."""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO_ROOT, "examples")

FAST_EXAMPLES = [
    "quickstart.py",
    "tax_algebra_tour.py",
    "institution_grouping.py",
    "nested_grouping.py",
    "persistent_store.py",
]


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=300,
    )


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs_clean(name):
    result = run_example(name)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout  # every example prints something


@pytest.mark.slow
def test_author_grouping_example():
    """The evaluation example at a reduced scale."""
    result = run_example("author_grouping.py", "0.25")
    assert result.returncode == 0, result.stderr[-2000:]
    assert "E1 titles-by-author" in result.stdout
    assert "paper (E2)" in result.stdout


def test_quickstart_output_shape():
    result = run_example("quickstart.py")
    assert "authorpubs" in result.stdout
    assert "GROUPBY" in result.stdout
    assert "identical results" in result.stdout
