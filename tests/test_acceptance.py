"""Acceptance suite: one test per criterion, one printed line each.

Run `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Everything is exact arithmetic; "tolerance" everywhere is equality.
"""
import random
import time

from binomid.arith import binomial, run_invariant_suite
from binomid.catalog import chained_form, check_specialization, specialized_form
from binomid.dsl import parse_identity, print_identity
from binomid.model import (
    BinomFactor,
    Identity,
    LinExpr,
    SumExpr,
    Term,
    apply_chain,
    canonicalize,
    structurally_equal,
)
from binomid.series import LaurentSeries, first_difference, geometric_collapse
from binomid.verify import GridSpec, fuzz, verify_grid

from conftest import series_equal, series_expand

PAPER_IDENTITIES = ["chugen", "chu2gen"] + [f"eq{i}" for i in range(1, 15)]
LITERATURE = [
    "nanjundiah1", "nanjundiah2", "bizley1", "bizley2",
    "gould", "suranyi", "takacs", "riordan", "stanley1", "stanley2",
]


def report(line):
    print(line, flush=True)


def test_criterion_1_identity_suite(catalog):
    started = time.perf_counter()
    total = 0
    for name in PAPER_IDENTITIES:
        ident = catalog.identity(name)
        result = verify_grid(ident, GridSpec.uniform(ident.params, 0, 5), jobs=4)
        assert result.ok, (name, result.failures[:2])
        total += result.instances
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"identity suite took {elapsed:.1f}s"
    report(
        f"PASS criterion 1: 16 paper identities, {total} instances on 0..5 grids, "
        f"0 failures, {elapsed:.1f}s with jobs=4"
    )


def test_criterion_2_literature_suite(catalog):
    for name in LITERATURE:
        claim = catalog.claim(name)
        result = check_specialization(catalog, claim, jobs=2)
        assert result.structural_match, (name, result.substituted_form, result.literature_form)
        assert result.report.ok, (name, result.report.failures[:2])
        if name == "bizley1":
            assert result.report.grid["d"] == (-5, 5)
    report(
        "PASS criterion 2: 10 literature identities verified numerically "
        "(bizley1 with d extended to [-5,5]) and all 10 claims match structurally"
    )


def test_criterion_3_stanley_chain(catalog):
    claim1 = catalog.claim("stanley1")
    claim2 = catalog.claim("stanley2")
    inter1 = canonicalize(apply_chain(catalog.identity("stanley1"), claim1.chain))
    inter2 = canonicalize(apply_chain(catalog.identity("stanley2"), claim2.chain))
    assert structurally_equal(inter1, claim1.intermediate), print_identity(inter1)
    assert structurally_equal(inter1, inter2)
    for claim in (claim1, claim2):
        assert structurally_equal(
            specialized_form(catalog, claim), chained_form(catalog, claim), allow_renaming=True
        )
    report(
        "PASS criterion 3: both Stanley chains reproduce the displayed intermediate "
        "identity and reach one canonical form matching the substituted parent"
    )


def test_criterion_4_proof_scripts(catalog):
    import dataclasses

    from binomid.dsl import parse_linexpr
    from binomid.proofs import run_proof_script
    from binomid.resexpr import parse_resexpr

    stated_maps = {
        "proof-eq1": {"a": "c+d-b", "b": "p", "c": "0", "d": "c+d+p-n", "m": "b-d"},
        "proof-eq2": {"a": "a-c", "b": "n-a", "c": "0", "d": "d-p-a", "m": "c+d-a"},
    }
    for name in ("proof-eq1", "proof-eq2"):
        script = catalog.script(name)
        got = {k: str(v) for k, v in script.steps[-1].mapping}
        want = {k: str(parse_linexpr(v)) for k, v in stated_maps[name].items()}
        assert got == want, (name, got)
        instances = script.instances({p: (0, 3) for p in script.params})
        result = run_proof_script(script, instances, window=2, jobs=4)
        assert result.ok, (name, result.failures[:2])
        assert all(n == result.instances for n in result.step_passes)

        # mutating any single step expression fails at exactly that step
        env = {p: 2 for p in script.params}
        for idx, step in enumerate(script.steps):
            steps = list(script.steps)
            if step.kind == "Recognize":
                mapping = dict(step.mapping)
                mapping["m"] = mapping["m"] + LinExpr(1)
                steps[idx] = dataclasses.replace(step, mapping=tuple(mapping.items()))
            else:
                text = step.after_text + "+1"
                steps[idx] = dataclasses.replace(
                    step, after_text=text, after=parse_resexpr(text)
                )
            mutated = dataclasses.replace(script, steps=tuple(steps))
            bad = run_proof_script(mutated, [env], window=2)
            assert not bad.ok and bad.failures[0].step == idx, (name, idx)
    report(
        "PASS criterion 4: proof-eq1 and proof-eq2 pass every step on all 0..3 "
        "instances (864 + 640), recognition maps as stated, and every single-step "
        "mutation fails at exactly that step"
    )


def test_criterion_5_arithmetic_kernel():
    suite = run_invariant_suite(30)
    for name, cases, violations in suite:
        assert not violations, (name, violations[:3])
    total = sum(cases for _, cases, _ in suite)
    report(
        f"PASS criterion 5: pascal, upper-negation, second-symmetry, and symmetry "
        f"invariants hold exhaustively for |n|,|k| <= 30 ({total} cases)"
    )


def test_criterion_6_residue_kernel():
    for n in range(-8, 9):
        s = series_expand(f"(1+x)^({n})", {"x": (0, 10)})
        for k in range(0, 11):
            assert s.coeff({"x": k}) == binomial(n, k), (n, k)

    vars3 = ("x", "y", "z")
    window = {v: (-6, 6) for v in vars3}
    one = LaurentSeries.constant(vars3, 1)
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        v = rng.choice(vars3)
        e = rng.choice((-2, -1, 1, 2))
        others = [w for w in vars3 if w != v]
        text = f"{v}^({e})"
        if rng.random() < 0.7:
            text += f"*(1+{rng.choice(others)})^({rng.randint(-2, 2)})"
        if rng.random() < 0.5:
            text = f"{rng.choice((2, 3, -1))}*{text}"
        ratio = series_expand(text, window)
        g = geometric_collapse(ratio, window)
        assert series_equal(g * (one - ratio), one), text
        checked += 1

    spot_checks = [
        "(1+x)^(-2)*(1+y)^(3)",
        "(1+(1+y)*z)^(4)*y^(-2)",
        "(x*y*(1+z))^(-1)",
        "geo[(1+y)*z*x^(-1)]*(1+x)^(3)*x^(-1)",
    ]
    for text in spot_checks:
        small = series_expand(text, {v: (-4, 4) for v in vars3})
        large = series_expand(text, {v: (-8, 8) for v in vars3})
        assert first_difference(small, large) is None, text
        for expo, c in small.coeffs.items():
            assert large.coeff(dict(zip(vars3, expo))) == c, (text, expo)
    report(
        "PASS criterion 6: coefficient oracle law on n in [-8,8], k in [0,10]; "
        "100 random geometric collapses invert 1-r; doubled-window spot checks agree"
    )


def test_criterion_7_determinism(catalog):
    ident = catalog.identity("chugen")
    grid = GridSpec.uniform(ident.params, 0, 5)
    blobs = {verify_grid(ident, grid, jobs=j).canonical_json() for j in (1, 2, 8)}
    assert len(blobs) == 1
    f1 = fuzz(catalog.identity("eq12"), seed=7, trials=800, lo=-5, hi=5)
    f2 = fuzz(catalog.identity("eq12"), seed=7, trials=800, lo=-5, hi=5)
    assert f1.canonical_json() == f2.canonical_json()
    report(
        "PASS criterion 7: verify reports byte-identical across jobs in {1,2,8}; "
        "fuzz with a fixed seed is byte-identical across runs"
    )


def _random_identity(rng):
    params = ("a", "b", "c", "d", "m", "n", "p", "q")[: rng.randint(1, 5)]
    body_vars = params + ("k",)

    def linexpr(vars):
        coeffs = {v: rng.randint(-4, 4) for v in rng.sample(vars, rng.randint(0, min(3, len(vars))))}
        return LinExpr.make(rng.randint(-9, 9), coeffs)

    def term(vars, with_sign=True):
        sign = linexpr(vars) if with_sign and rng.random() < 0.5 else None
        factors = tuple(
            BinomFactor(linexpr(vars), linexpr(vars)) for _ in range(rng.randint(1, 4))
        )
        return Term(sign, factors)

    if rng.random() < 0.5:
        lhs = SumExpr("k", linexpr(params), linexpr(params), term(body_vars))
    else:
        lhs = term(params)
    constraints = tuple(linexpr(params) for _ in range(rng.randint(0, 2)))
    return Identity("t", params, lhs, term(params), constraints)


def test_criterion_8_dsl_round_trip(catalog):
    for name, ident in catalog.identities.items():
        reparsed = parse_identity(print_identity(ident))
        assert structurally_equal(reparsed, canonicalize(ident)), name

    rng = random.Random(99)
    for _ in range(500):
        ident = _random_identity(rng)
        text = print_identity(ident)
        reparsed = parse_identity(text)
        assert structurally_equal(reparsed, canonicalize(ident)), text

    from binomid.dsl import ParseError

    errors = 0
    for _ in range(300):
        ident = _random_identity(rng)
        text = print_identity(ident)
        pos = rng.randrange(len(text))
        corrupted = text[:pos] + rng.choice(["]", ")", "(", "==", "@", ",", "C("]) + text[pos + 1 :]
        try:
            parse_identity(corrupted)
        except ParseError as err:
            errors += 1
            assert 0 <= err.span.start.offset <= err.span.end.offset <= len(corrupted)
    assert errors > 50  # most corruptions are syntactic
    report(
        "PASS criterion 8: parse/print round trip on all 26 catalog identities and "
        f"500 random ASTs; {errors} corrupted inputs all produced in-bounds error spans"
    )
