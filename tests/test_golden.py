"""The seeded outputs of every family against the digests in golden.json.

tools/golden.py computes the digests and rewrites the table; this test
runs the same computation and compares, case by case, so that a change
that moves a byte of a study CSV, a batch S or a ``gradcorr test``
report fails here by family and entry.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
TABLE = json.loads(golden.TABLE.read_text())


def test_golden_table_covers_every_case():
    assert sorted(TABLE) == sorted(golden.CASES)


@pytest.mark.parametrize("key", sorted(golden.CASES))
def test_seeded_outputs_keep_their_digests(key):
    got, want = golden.entry(key), TABLE[key]
    assert [name for name in want if got.get(name) != want[name]] == []
    assert sorted(got) == sorted(want)
