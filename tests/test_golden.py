"""Pinned reports: `verify --all` and `specialize --all` on their default grids.

The digests are sha256 over the newline-joined `canonical_json` of every
report, in catalog order. Any change to what the evaluator or the claim
certification reports shows up here; `prove --all` is pinned by
acceptance criterion 4.
"""
import hashlib
import json

from binomid.catalog import check_specialization
from binomid.verify import GridSpec, verify_grid

VERIFY_ALL_SHA256 = "f89f53f18321cfc42e2148f72c2a892075f9b6430e52c462c921f98fe27003a8"
SPECIALIZE_ALL_SHA256 = "1ff8edbad3f40ac181c4aefae3923e1481b85d758f691f4937384fa622e45a6e"


def _digest(blobs) -> str:
    return hashlib.sha256("\n".join(blobs).encode()).hexdigest()


def test_verify_all_report_is_pinned(catalog):
    blobs = [
        verify_grid(ident, GridSpec.uniform(ident.params, 0, 5)).canonical_json()
        for ident in catalog.identities.values()
    ]
    assert _digest(blobs) == VERIFY_ALL_SHA256


def test_specialize_all_report_is_pinned(catalog):
    blobs = []
    for claim in catalog.claims.values():
        result = check_specialization(catalog, claim)
        data = result.to_json_dict()
        data["verification"] = result.report.to_json_dict(include_elapsed=False)
        blobs.append(json.dumps(data, sort_keys=True))
    assert _digest(blobs) == SPECIALIZE_ALL_SHA256
