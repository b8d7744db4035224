"""Same seeds, same bytes: the quick slice of the CLI corpus twice over."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import cli_corpus  # noqa: E402


def test_quick_corpus_is_byte_identical_across_runs():
    first = cli_corpus.run_corpus(quick=True)
    assert first == cli_corpus.run_corpus(quick=True)
    commands = {line.split()[2] for line in first}
    assert commands == {"pd", "classify", "make-tail", "attach", "verify-wedge", "family", "experiment"}
    # every command of the slice succeeds, so a crash cannot pass as identical
    assert {line.split()[1] for line in first} == {"0"}
