"""The committed CLI corpus: each argv's exit code, stdout and stderr.

``data/cli_corpus.json`` holds 150 argvs over every subcommand and
format, with the usage errors (exit 2) and the domain errors (exit 1),
each with the bytes ``cli.main`` wrote for it.  Each is replayed in
process and must write the same bytes.  The argvs run from ``data/``,
where ``cli_bad.csv`` is a dataset without its columns and
``missing.csv`` does not exist, at a terminal width of 80 columns,
which sets where argparse wraps its usage lines.
"""
import json
from pathlib import Path

import pytest

from repower import cli

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "cli_corpus.json").read_text())


@pytest.mark.parametrize("entry", CORPUS,
                         ids=[" ".join(e["argv"]) or "-" for e in CORPUS])
def test_the_cli_writes_the_committed_bytes(entry, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("REPOWER_SSRP_DATA", raising=False)
    try:
        code = cli.main(list(entry["argv"]))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (entry["code"], entry["stdout"],
                                entry["stderr"])
