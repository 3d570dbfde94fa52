import json
from importlib import resources

import pytest

from binomid.catalog import (
    CatalogError,
    _load,
    chained_form,
    check_specialization,
    load_builtin,
    load_catalog_file,
    specialized_form,
)
from binomid.dsl import parse_identity
from binomid.model import apply_chain, canonicalize, structurally_equal, substitute
from binomid.verify import GridSpec, verify_grid

from conftest import apply_env, constraints_satisfied


def test_builtin_counts(catalog):
    assert len(catalog.identities) == 26
    assert len(catalog.claims) == 10
    assert len(catalog.scripts) == 2
    expected = {
        "chugen", "chu2gen",
        *{f"eq{i}" for i in range(1, 15)},
        "nanjundiah1", "nanjundiah2", "bizley1", "bizley2",
        "gould", "suranyi", "takacs", "riordan", "stanley1", "stanley2",
    }
    assert set(catalog.identities) == expected


def test_gould_entry(catalog):
    want = parse_identity(
        "identity g params(a,b,x) :: "
        "sum(k,0,a)[C(a,k)*C(b,k)*C(a+b+x+k,a+b)] == C(a+b+x,a)*C(a+b+x,b)"
    )
    assert structurally_equal(catalog.identity("gould"), want)


def test_takacs_entry(catalog):
    want = parse_identity(
        "identity t params(a,m,n,p) :: "
        "sum(k,0,n)[C(a,k)*C(m-a,n-k)*C(p+k,m)] == C(p,m-n)*C(n+a+p-m,n)"
    )
    assert structurally_equal(catalog.identity("takacs"), want)


def test_all_identities_hold_on_small_grid(catalog):
    for name, ident in catalog.identities.items():
        report = verify_grid(ident, GridSpec.uniform(ident.params, 0, 4))
        assert report.ok, (name, report.failures[:2])


def test_unknown_names_raise(catalog):
    with pytest.raises(CatalogError, match="unknown identity"):
        catalog.identity("nope")
    with pytest.raises(CatalogError, match="unknown claim"):
        catalog.claim("nope")
    with pytest.raises(CatalogError, match="unknown proof script"):
        catalog.script("nope")


def test_load_is_stable():
    a = load_builtin()
    b = load_builtin()
    assert list(a.identities) == list(b.identities)
    assert list(a.claims) == list(b.claims)


def test_load_rejects_corrupt_catalog(tmp_path):
    bad = tmp_path / "broken.bid"
    bad.write_text("identity x params(a) :: C(a,1) ==\n")
    with pytest.raises(CatalogError, match="does not parse"):
        load_catalog_file(bad)


@pytest.mark.parametrize("op", ["trinomial_revision", "no_such_rule"])
def test_load_rejects_unknown_chain_op(op):
    data = resources.files("binomid").joinpath("data")
    claims = json.loads(data.joinpath("claims.json").read_text(encoding="utf-8"))
    stanley1 = next(c for c in claims["claims"] if c["name"] == "stanley1")
    stanley1["chain"][0]["op"] = op
    scripts = [json.loads(data.joinpath(name).read_text(encoding="utf-8"))
               for name in ("proof_eq1.json", "proof_eq2.json")]
    with pytest.raises(CatalogError, match=f"unknown claim-chain op '{op}'"):
        _load(data.joinpath("catalog.bid").read_text(encoding="utf-8"), claims, scripts)


def test_load_user_catalog(tmp_path):
    path = tmp_path / "user.bid"
    path.write_text(
        "identity vander params(m,n,r) :: "
        "sum(k,0,r)[C(m,k)*C(n,r-k)] == C(m+n,r)\n"
    )
    cat = load_catalog_file(path)
    report = verify_grid(cat.identity("vander"), GridSpec.uniform(("m", "n", "r"), 0, 5))
    assert report.ok


# -- specialization claims -----------------------------------------------------


def test_all_claims_certify(catalog):
    for name, claim in catalog.claims.items():
        result = check_specialization(catalog, claim)
        assert result.structural_match, (name, result.substituted_form, result.literature_form)
        assert result.report.ok, (name, result.report.failures[:2])


def test_nanjundiah1_claim(catalog):
    result = check_specialization(catalog, catalog.claim("nanjundiah1"))
    assert result.ok
    assert result.report.instances == 6 ** 3


def test_bizley1_grid_extends_to_negative_d(catalog):
    claim = catalog.claim("bizley1")
    assert dict(claim.grid_overrides)["d"] == (-5, 5)
    result = check_specialization(catalog, claim)
    assert result.ok
    assert result.report.grid["d"] == (-5, 5)
    assert result.report.instances == 6 ** 3 * 11


def test_bizley1_exercises_negative_parent_values(catalog):
    # the map sends the parent's p to -d: composed environments reach p < 0
    claim = catalog.claim("bizley1")
    env = {"a": 1, "b": 1, "d": 3, "p": 2}
    assert apply_env(claim.substitution, env)["p"] == -3


def test_structural_mismatch_is_reported(catalog):
    claim = catalog.claim("takacs")
    broken = claim.__class__(
        name=claim.name,
        parent="eq5",  # wrong parent on purpose
        substitution=claim.substitution,
    )
    result = check_specialization(catalog, broken)
    assert not result.structural_match
    assert result.substituted_form != result.literature_form
    assert result.substituted_form.startswith("identity")


# -- the Stanley chain -----------------------------------------------------------


def test_stanley_chains_reach_displayed_intermediate(catalog):
    for name in ("stanley1", "stanley2"):
        claim = catalog.claim(name)
        ident = catalog.identity(name)
        reached = canonicalize(apply_chain(ident, claim.chain))
        assert structurally_equal(reached, claim.intermediate), name


def test_stanley_chains_reach_same_canonical_form(catalog):
    one, two = (canonicalize(apply_chain(catalog.identity(name), catalog.claim(name).chain))
                for name in ("stanley1", "stanley2"))
    assert structurally_equal(one, two)


def test_stanley_chain_meets_substituted_parent(catalog):
    for name in ("stanley1", "stanley2"):
        claim = catalog.claim(name)
        spec = specialized_form(catalog, claim)
        chained = chained_form(catalog, claim)
        assert structurally_equal(spec, chained, allow_renaming=True), name


def test_stanley_swap_preserves_truth(catalog):
    # exchanging p<->q and a<->b does not change the identities' validity
    for name in ("stanley1", "stanley2"):
        claim = catalog.claim(name)
        ident = catalog.identity(name)
        swapped = substitute(ident, claim.swap, f"{name}-swapped")
        report = verify_grid(swapped, GridSpec.uniform(ident.params, 0, 4))
        assert report.ok, (name, report.failures[:2])


def test_stanley_swap_rescues_out_of_domain_corner(catalog):
    # stanley2's displayed form needs q+b >= a; the swap moves a violating
    # corner into the verified region (p+q >= 0 makes both fail impossible)
    stan2 = catalog.identity("stanley2")
    claim = catalog.claim("stanley2")
    env = {"p": 0, "q": 0, "a": 1, "b": 0}
    assert not constraints_satisfied(stan2, env)
    swapped_env = apply_env(claim.swap, env)
    assert constraints_satisfied(stan2, swapped_env)


def test_stanres_verifies_under_recorded_conditions(catalog):
    claim = catalog.claim("stanley1")
    chained = canonicalize(apply_chain(catalog.identity("stanley1"), claim.chain))
    # the chain records q+b-k >= 0; within range that means q+b >= a
    report = verify_grid(chained, GridSpec.uniform(("p", "q", "a", "b"), 0, 4))
    assert report.ok
    assert report.instances < 5 ** 4
