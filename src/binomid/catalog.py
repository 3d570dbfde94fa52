"""The built-in catalog: identities, specialization claims, proof scripts.

Everything ships as data files (a DSL catalog, a claims file with the
rewrite chains, and two proof scripts); loading parses and cross-checks
them. A catalog is immutable after load; certification fans out per claim.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import dsl
from .model import (
    CancelSignStep,
    ChainStep,
    Identity,
    LinExpr,
    RewriteStep,
    SubstStep,
    Substitution,
    TERM_REWRITES,
    apply_chain,
    canonicalize,
    structurally_equal,
    substitute,
)
from .proofs import ProofScript, load_script
from .verify import GridSpec, VerificationReport, verify_grid

DEFAULT_GRID_LO = 0
DEFAULT_GRID_HI = 5


class CatalogError(Exception):
    """The catalog data is inconsistent or fails to load."""


@dataclass(frozen=True)
class SpecializationClaim:
    """One literature identity presented as a substitution instance.

    `chain` rewrites the literature identity into the form that the parent
    substitution produces; the plain claims have an empty chain. For the
    Stanley pair the chain passes through the intermediate identity (the
    displayed one), and `post_chain` carries the final symmetry step needed
    to meet the substituted parent. `swap` records the parameter exchange
    that moves out-of-domain instances into the verified region; it leaves
    the identities' truth unchanged.
    """

    name: str
    parent: str
    substitution: Substitution
    attribution: str = ""
    chain: tuple[ChainStep, ...] = ()
    post_chain: tuple[ChainStep, ...] = ()
    intermediate: Optional[Identity] = None
    swap: Optional[Substitution] = None
    grid_overrides: tuple[tuple[str, tuple[int, int]], ...] = ()

    def grid(self, params) -> GridSpec:
        ranges = {p: (DEFAULT_GRID_LO, DEFAULT_GRID_HI) for p in params}
        ranges.update(dict(self.grid_overrides))
        return GridSpec.of(ranges)


@dataclass
class Catalog:
    identities: dict[str, Identity]
    claims: dict[str, SpecializationClaim]
    scripts: dict[str, ProofScript]

    def identity(self, name: str) -> Identity:
        return _lookup(self.identities, name, "identity")

    def claim(self, name: str) -> SpecializationClaim:
        return _lookup(self.claims, name, "claim")

    def script(self, name: str) -> ProofScript:
        return _lookup(self.scripts, name, "proof script")


def _lookup(table: dict, name: str, what: str):
    if name not in table:
        raise CatalogError(f"unknown {what} '{name}' (known: {', '.join(table)})")
    return table[name]


def _parse_chain_step(raw: dict) -> ChainStep:
    op = raw["op"]
    if op == "cancel_sign":
        return CancelSignStep()
    if op == "substitute":
        mapping = tuple((k, dsl.parse_linexpr(v)) for k, v in raw["map"].items())
        return SubstStep(mapping)
    if op not in TERM_REWRITES:
        known = ", ".join([*TERM_REWRITES, "substitute", "cancel_sign"])
        raise CatalogError(f"unknown claim-chain op '{op}' (known: {known})")
    return RewriteStep(op, raw["side"], raw["index"])


def _build_claims(identities, declarations, claims_data) -> dict[str, SpecializationClaim]:
    extras = {entry["name"]: entry for entry in claims_data.get("claims", [])}
    claims: dict[str, SpecializationClaim] = {}
    for decl in declarations:
        if decl.name not in identities:
            raise CatalogError(f"specialization target '{decl.name}' is not in the catalog")
        if decl.parent not in identities:
            raise CatalogError(f"specialization parent '{decl.parent}' is not in the catalog")
        target = identities[decl.name]
        parent = identities[decl.parent]
        mapping = dict(decl.mapping)
        unknown = set(mapping) - set(parent.params)
        if unknown:
            raise CatalogError(f"claim '{decl.name}' maps unknown parameter(s) {sorted(unknown)}")
        full = {p: mapping.get(p, LinExpr.var(p)) for p in parent.params}
        sub = Substitution.of(full, target.params)
        extra = extras.get(decl.name, {})
        chain = tuple(_parse_chain_step(s) for s in extra.get("chain", []))
        post = tuple(_parse_chain_step(s) for s in extra.get("post_chain", []))
        inter = extra.get("intermediate")
        swap = extra.get("swap")
        claims[decl.name] = SpecializationClaim(
            name=decl.name,
            parent=decl.parent,
            substitution=sub,
            attribution=extra.get("attribution", ""),
            chain=chain,
            post_chain=post,
            intermediate=dsl.parse_identity(inter) if inter else None,
            swap=Substitution.of(
                {k: dsl.parse_linexpr(v) for k, v in swap.items()}, target.params
            ) if swap else None,
            grid_overrides=tuple(
                (p, (lo, hi)) for p, (lo, hi) in extra.get("grid", {}).items()
            ),
        )
    return claims


def _load(catalog_text: str, claims_data: dict, script_data: list[dict]) -> Catalog:
    try:
        identity_list, declarations = dsl.parse_catalog(catalog_text)
    except dsl.ParseError as exc:
        raise CatalogError(f"catalog data does not parse: {exc}") from exc
    identities = {i.name: i for i in identity_list}
    claims = _build_claims(identities, declarations, claims_data)
    scripts: dict[str, ProofScript] = {}
    for data in script_data:
        script = load_script(data, lambda name: identities[name])
        scripts[script.name] = script
    return Catalog(identities, claims, scripts)


def load_builtin() -> Catalog:
    """Load the shipped catalog: 26 identities, 10 claims, 2 proof scripts."""
    data = Path(__file__).parent / "data"
    catalog_text = (data / "catalog.bid").read_text(encoding="utf-8")
    claims_data = json.loads((data / "claims.json").read_text(encoding="utf-8"))
    scripts = [
        json.loads((data / name).read_text(encoding="utf-8"))
        for name in ("proof_eq1.json", "proof_eq2.json")
    ]
    return _load(catalog_text, claims_data, scripts)


def load_catalog_file(path) -> Catalog:
    """Load a catalog from a user-supplied DSL file (no claims or scripts)."""
    text = Path(path).read_text(encoding="utf-8")
    return _load(text, {}, [])


# ---------------------------------------------------------------------------
# Claim certification


@dataclass
class ClaimResult:
    claim: str
    structural_match: bool
    substituted_form: str
    literature_form: str
    report: VerificationReport

    @property
    def ok(self) -> bool:
        return self.structural_match and self.report.ok

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "structural": "match" if self.structural_match else "mismatch",
            "substituted_form": self.substituted_form,
            "literature_form": self.literature_form,
            "verification": self.report.to_json_dict(),
        }


def specialized_form(catalog: Catalog, claim: SpecializationClaim) -> Identity:
    """The parent identity pushed through the claim's substitution."""
    parent = catalog.identity(claim.parent)
    return substitute(parent, claim.substitution, f"{claim.parent}-specialized")


def chained_form(catalog: Catalog, claim: SpecializationClaim) -> Identity:
    """The literature identity pushed through the claim's rewrite chain."""
    ident = catalog.identity(claim.name)
    return canonicalize(apply_chain(ident, claim.chain + claim.post_chain))


def check_specialization(catalog: Catalog, claim: SpecializationClaim, jobs: int = 1) -> ClaimResult:
    """Certify one claim: structural identity of forms plus grid verification.

    Structurally, substituting the parent and rewriting the literature
    identity through the claim's chain must meet in one canonical form (up
    to parameter renaming). Numerically, the literature identity itself is
    verified on its grid (extended where the substitution forces negative
    values).
    """
    target = catalog.identity(claim.name)
    spec_form = specialized_form(catalog, claim)
    chain_form = chained_form(catalog, claim)
    match = structurally_equal(spec_form, chain_form, allow_renaming=True)
    report = verify_grid(target, claim.grid(params=target.params), jobs=jobs)
    return ClaimResult(
        claim.name,
        match,
        dsl.print_identity(spec_form),
        dsl.print_identity(chain_form),
        report,
    )
