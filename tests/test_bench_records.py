"""Every performance record at the repository root stays readable.

A ``BENCH_<label>.json`` backs a measured claim: the parent and the change, the
command, the host, the order of the alternated pairs and each workload's
quartiles.  A record that stops parsing, or loses one of these keys, can no
longer back it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RECORDS = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))
KEYS = {"label", "what", "parent", "change", "command", "host", "order", "quartiles", "workloads"}


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_parses_with_its_keys(path):
    record = json.loads(path.read_text())
    assert KEYS <= record.keys()
    assert record["label"] == path.stem.removeprefix("BENCH_")
    assert isinstance(record["workloads"], dict) and record["workloads"]
