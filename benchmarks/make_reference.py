"""Record the reference outputs that every benchmark run is checked against.

    python3 benchmarks/make_reference.py

Run it on the commit whose answers are the reference (it was recorded on the
seed commit); it rewrites benchmarks/reference.json. For every operation a
workload can draw it stores the digest of the report's canonical JSON. Proof
instances store the canonical report itself (deduplicated, since most are
identical) so that a call over several instances can be checked against the
merged per-instance reports, together with a cost class: the instance's
quartile, within its script, of series coefficient products (`series.mul.pairs`
from the tracer). A count of work, unlike a timing, is the same on every
machine, so the classes, and the stratified samples drawn from them, do not
change from one recording to the next.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from binomid import catalog, proofs, verify  # noqa: E402
from binomid.verify import GridSpec  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    cat = catalog.load_builtin()
    ref = {"grid": {}, "prove": {"reports": [], "instances": {}}, "sharded": {}}

    for name, ident in cat.identities.items():
        grid = GridSpec.uniform(ident.params, catalog.DEFAULT_GRID_LO, catalog.DEFAULT_GRID_HI)
        ref["grid"][f"verify:{name}"] = wl.digest(verify.verify_grid(ident, grid).canonical_json())
    for name, claim in cat.claims.items():
        ref["grid"][f"claim:{name}"] = wl.digest(wl.claim_json(catalog.check_specialization(cat, claim)))

    ident = cat.identity(wl.SHARD_IDENTITY)
    grid = GridSpec.uniform(ident.params, wl.SHARD_LO, wl.SHARD_HI)
    ref["sharded"][f"verify:{wl.SHARD_IDENTITY}:{wl.SHARD_LO}..{wl.SHARD_HI}"] = wl.digest(
        verify.verify_grid(ident, grid).canonical_json())

    reports = ref["prove"]["reports"]
    tracer = Tracer().install()
    try:
        for name, envs in wl.prove_pool(cat).items():
            script = cat.script(name)
            work = []
            for env in envs:
                tracer.reset()
                text = proofs.run_proof_script(script, [env], window=wl.PROVE_WINDOW).canonical_json()
                if text not in reports:
                    reports.append(text)
                work.append((tracer.counters["series.mul.pairs"], wl.instance_key(script, env),
                             reports.index(text)))
                tracer.spans.clear()
            work.sort()
            for rank, (_, key, index) in enumerate(work):
                ref["prove"]["instances"][key] = [index, rank * wl.PROVE_CLASSES // len(work)]
    finally:
        tracer.remove()

    out = HERE / "reference.json"
    out.write_text(json.dumps(ref, sort_keys=True, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {out.name}: {len(ref['grid'])} grid, "
          f"{len(ref['prove']['instances'])} proof instances, {len(reports)} distinct proof reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
