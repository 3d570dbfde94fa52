"""Pinned reports: `verify --all`, `specialize --all`, `fuzz` and `prove`.

The digests are sha256 over the newline-joined `canonical_json` of every
report, in catalog order. Any change to what the evaluator, the claim
certification or the series engine reports shows up here. The negative-range
`verify` digest covers every identity over -3..3, where upper arguments go
negative, summation ranges go empty and the identities that hold only for
nonnegative parameters fail with their lhs and rhs values. The `fuzz` digest
covers seeded samples of every identity over -5..5, where arguments go
negative and many points are inadmissible (exploratory failures). The `prove`
digests cover both scripts on small grids at three windows, and the report of
every single-step mutation made by `test_proofs.mutate_step` at the all-2
instance, whose failure messages carry the first differing coefficients.
"""
import hashlib
import json

from binomid.catalog import check_specialization
from binomid.proofs import run_proof_script
from binomid.verify import GridSpec, fuzz, verify_grid

from test_proofs import mutate_step

VERIFY_ALL_SHA256 = "f89f53f18321cfc42e2148f72c2a892075f9b6430e52c462c921f98fe27003a8"
VERIFY_ALL_NEG_SHA256 = "80551a4fbb8e26344fabedfd916fa4d8a74e5c6f2c91f82b42deb1fe0a092cd7"
SPECIALIZE_ALL_SHA256 = "1ff8edbad3f40ac181c4aefae3923e1481b85d758f691f4937384fa622e45a6e"
FUZZ_SHA256 = "6ac3a11b0c91c5b115853dd6b07d2feb145db1659fc7b3e941e3685eedd9b09c"
PROVE_0_2_WINDOW_2_SHA256 = "78e4dae78d76d932c620fdc7d66f1203722c33210b59c21da41bcf14174a63f0"
PROVE_0_1_WINDOW_0_SHA256 = "81eb87a67d976126bb86fb2b8423b2d1eee442d0369e1298174170ef614ff356"
PROVE_0_1_WINDOW_4_SHA256 = "5ef72b6687eec754919dd7b8b96f97a9118e04730af3637acad694364cddb404"
PROVE_MUTATIONS_SHA256 = "9687ecb069599c9ff34d7dd0043a9868dd728cc459a64740135f414297fd304e"


def _digest(blobs) -> str:
    return hashlib.sha256("\n".join(blobs).encode()).hexdigest()


def test_verify_all_report_is_pinned(catalog):
    blobs = [
        verify_grid(ident, GridSpec.uniform(ident.params, 0, 5)).canonical_json()
        for ident in catalog.identities.values()
    ]
    assert _digest(blobs) == VERIFY_ALL_SHA256


def test_verify_all_report_over_negative_values_is_pinned(catalog):
    reports = [verify_grid(ident, GridSpec.uniform(ident.params, -3, 3)) for ident in catalog.identities.values()]
    assert sum(not report.ok for report in reports) == 13
    assert _digest(report.canonical_json() for report in reports) == VERIFY_ALL_NEG_SHA256


def test_specialize_all_report_is_pinned(catalog):
    blobs = []
    for claim in catalog.claims.values():
        result = check_specialization(catalog, claim)
        data = result.to_json_dict()
        data["verification"] = result.report.to_json_dict(include_elapsed=False)
        blobs.append(json.dumps(data, sort_keys=True))
    assert _digest(blobs) == SPECIALIZE_ALL_SHA256


def test_fuzz_report_is_pinned(catalog):
    blobs = [fuzz(ident, 1, 200, -5, 5).canonical_json() for ident in catalog.identities.values()]
    assert _digest(blobs) == FUZZ_SHA256


def _prove_all(catalog, hi, window):
    return [
        run_proof_script(script, script.instances({p: (0, hi) for p in script.params}),
                         window=window).canonical_json()
        for script in catalog.scripts.values()
    ]


def test_prove_reports_are_pinned(catalog):
    assert _digest(_prove_all(catalog, 2, 2)) == PROVE_0_2_WINDOW_2_SHA256
    assert _digest(_prove_all(catalog, 1, 0)) == PROVE_0_1_WINDOW_0_SHA256
    assert _digest(_prove_all(catalog, 1, 4)) == PROVE_0_1_WINDOW_4_SHA256


def test_prove_mutation_reports_are_pinned(catalog):
    blobs = []
    for script in catalog.scripts.values():
        env = {p: 2 for p in script.params}
        for idx in range(len(script.steps)):
            mutated = mutate_step(script, idx)
            blobs.append(run_proof_script(mutated, [env], window=2).canonical_json())
    assert _digest(blobs) == PROVE_MUTATIONS_SHA256
