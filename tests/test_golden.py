"""CLI `--json` output against a recorded golden file, `elapsed_ms` stripped.

The runs cover fuzzing (whose negative-control witnesses embed the drawn
matrices, so the seeded draw and the constraint wiring are pinned), the
symbolic checks, the power identity (expanded, and derived with the
Sylvester-Franke theorem cited) and its chio case, cauchy-binet and the
quotient sizes.  Record the file again with
`PYTHONPATH=src python tests/test_golden.py` only when a change of output is
intended.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from minordet.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

RUNS = [
    "fuzz --theorem adb0 --n 4 --k 2 --trials 50 --seed 3 --bound 50",
    "fuzz --theorem ab0 --n 5 --k 2 --trials 50 --seed 4 --bound 50",
    "fuzz --theorem sylv --n 4 --k 2 --trials 50 --seed 5 --bound 50",
    "fuzz --theorem b0 --n 3 --k 2 --trials 5 --seed 7 --bound 100 --negative-control",
    "fuzz --theorem ab0 --n 4 --k 2 --trials 5 --seed 8 --bound 20 --negative-control",
    "fuzz --theorem adb0 --n 4 --k 1 --trials 5 --seed 9 --bound 20 --negative-control",
    "verify --check griolv --n 4 --trials 10 --seed 1 --bound 20",
    "verify --check lemma-adb0 --n 3",
    "verify --check b0 --n 3",
    "verify --check ab0 --n 3",
    "quotient --mode b0 --n 3 --k 2 --unconstrained-count",
    "verify --check griolv --n 3",
    "verify --check b0 --n 4 --k 2 --trials 20 --seed 2 --bound 20",
    "quotient --mode ab0 --n 0 --k 0",
    "fuzz --theorem b0 --n 1 --k 0 --trials 1 --seed 0 --bound 1 --negative-control",
    "verify --check sylvester --n 3",
    "verify --check chio --n 4",
    "verify --check cauchy-binet --n 3 --trials 20 --seed 1 --bound 20",
    "verify --check ab0 --n 4 --k 2 --trials 10 --seed 3 --bound 20",
    "verify --check sylvester --n 2 --k 1",
    "verify --check lemma-adb0 --n 2 --k 1",
    "verify --check griolv --n 2",
    "fuzz --theorem b0 --n 6 --k 3 --trials 5 --seed 7 --bound 50 --negative-control",
    "fuzz --theorem adb0 --n 7 --k 3 --trials 3 --seed 2 --bound 2",
    "verify --check sylvester --n 5 --k 2",
]


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def _run(command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(command.split() + ["--json"])
    return {"exit": rc, "json": _strip_elapsed(json.loads(out.getvalue()))}


@pytest.mark.parametrize("command", RUNS)
def test_cli_json_matches_golden(command):
    assert _run(command) == json.loads(GOLDEN.read_text())[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: _run(c) for c in RUNS}, indent=1) + "\n")
