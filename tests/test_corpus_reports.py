"""Exit code and stdout sha256 of every shipped corpus report.

Each report is one ``raagfp.cli.main`` call in this process:

* ``fg``, ``fpn`` and ``fpn --max-n 2`` per character file,
* ``coabelian --max-n 2`` per matrix file,
* ``table --p 2`` and ``table --p 3`` per graph file,
* ``verify --seed 0 --trials 30``,
* ``gog`` per graph-of-groups file,
* the ``--format text`` variants of ``fpn --max-n 2``, ``coabelian
  --max-n 2``, ``gog`` and ``verify --seed 0 --trials 30``, since the
  text renderer walks the same documents as the JSON one.

The reports are theorems about their inputs, so no change to the
program may alter a single byte of them.  To record the references
again after a deliberate report change:

    PYTHONPATH=src python3 tests/test_corpus_reports.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from raagfp.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
REFERENCES = Path(__file__).resolve().parent / "corpus_reports.json"


def _graph_of(path: Path) -> str:
    return str(CORPUS / (path.name.split(".")[0] + ".graph.json"))


def corpus_commands() -> list:
    """Every corpus report as an argv list, in a fixed order."""
    out = []
    for chi in sorted(CORPUS.glob("*.chi.json")):
        g = _graph_of(chi)
        out += [["fg", g, str(chi)], ["fpn", g, str(chi)],
                ["fpn", g, str(chi), "--max-n", "2"]]
    for m in sorted(CORPUS.glob("*.matrix.json")):
        out.append(["coabelian", _graph_of(m), str(m), "--max-n", "2"])
    for g in sorted(CORPUS.glob("*.graph.json")):
        out += [["table", str(g), "--p", "2"], ["table", str(g), "--p", "3"]]
    out.append(["verify", "--seed", "0", "--trials", "30"])
    for x in sorted(CORPUS.glob("gog.*.json")):
        out.append(["gog", str(x)])
    text = [a + ["--format", "text"] for a in out
            if a[0] in ("coabelian", "verify", "gog")
            or a[0] == "fpn" and "--max-n" in a]
    return out + text


def key(argv) -> str:
    """The argv with corpus paths reduced to file names."""
    return " ".join(Path(a).name if a.startswith(str(CORPUS)) else a
                    for a in argv)


def report(argv) -> list:
    """[exit code, sha256 of stdout] of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def test_reference_file_covers_every_corpus_report():
    refs = json.loads(REFERENCES.read_text())
    assert sorted(refs) == sorted(key(a) for a in corpus_commands())
    assert len(refs) == 208


@pytest.mark.parametrize("argv", corpus_commands(), ids=key)
def test_corpus_report_bytes(argv):
    refs = json.loads(REFERENCES.read_text())
    assert report(argv) == refs[key(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    REFERENCES.write_text(json.dumps(
        {key(a): report(a) for a in corpus_commands()}, indent=1) + "\n")
