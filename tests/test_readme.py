"""The README's parameter-document forms and command examples are live.

Every line of the README that starts with a parameter document parses, and
every `$ qfermat ...` example replays through `cli.main` with exit code 0.
Its stdout is compared in full unless the README elides it with `...`; then
each JSON member shown between the dots must be in the output.
"""

import json
import shlex
from pathlib import Path

import pytest

from qfermat.cli import EXIT_TRUE, main
from qfermat.expr import parse_params

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
LINES = README.splitlines()
DOCUMENTS = [
    json.JSONDecoder().raw_decode(line)[0] for line in LINES if line.startswith('{"n":')
]


def _examples():
    out = []
    for k, line in enumerate(LINES):
        if line.startswith("$ qfermat "):
            shown = []
            for follow in LINES[k + 1 :]:
                if not follow or follow.startswith(("$ ", "```")):
                    break
                shown.append(follow)
            out.append((shlex.split(line[2:])[1:], "".join(s + "\n" for s in shown)))
    return out


EXAMPLES = _examples()


def test_the_readme_lists_every_document_form_and_examples():
    assert {key for doc in DOCUMENTS for key in doc} == {"n", "exponents", "twist", "entries"}
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("doc", DOCUMENTS, ids=[json.dumps(d) for d in DOCUMENTS])
def test_document_forms_parse(doc):
    assert parse_params(doc).n == doc["n"]


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a[:1]) for a, _ in EXAMPLES])
def test_examples_replay(argv, shown, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_TRUE
    if "..." not in shown:
        assert out == shown
        return
    got = json.loads(out)
    for fragment in shown.split("..."):
        members = fragment.strip().strip("{},").strip()
        if members:
            assert json.loads("{" + members + "}").items() <= got.items()
