"""Golden CLI corpus: every recorded invocation replays byte for byte.

tests/data/cli_corpus.json holds argv, exit code, stdout and stderr for a
fixed set of invocations (every command in text and JSON, all three document
forms, malformed documents and polynomials, census n = 3..7); regenerate it
with tests/data/make_cli_corpus.py only when an output change is intended.
"""

import json
from pathlib import Path

import pytest

from qfermat.cli import main

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "cli_corpus.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("entry", CORPUS, ids=[str(i) for i in range(len(CORPUS))])
def test_cli_output_matches_the_corpus(entry, capsys):
    code = main(entry["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (entry["code"], entry["stdout"], entry["stderr"]), entry["argv"]
