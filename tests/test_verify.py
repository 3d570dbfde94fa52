import itertools

import pytest

from binomid.dsl import parse_identity
from binomid.model import BinomFactor, CompiledIdentity, Identity, LinExpr, Term
from binomid import verify
from binomid.verify import GridError, GridSpec, bound_sensitivity, fuzz, shard_map, verify_grid

from conftest import comb_oracle


def naive_chugen_check(env):
    """Second, independent spelling of the first base identity."""
    a, b, c, d, n = env["a"], env["b"], env["c"], env["d"], env["n"]
    lhs = 0
    for k in range(0, n + 1):
        lhs += (
            comb_oracle(a, k)
            * comb_oracle(b, n - k)
            * comb_oracle(k, c)
            * comb_oracle(n - k, d)
        )
    rhs = comb_oracle(a + b - c - d, n - c - d) * comb_oracle(a, c) * comb_oracle(b, d)
    return lhs, rhs


def test_verify_chugen_full_grid(catalog):
    ident = catalog.identity("chugen")
    report = verify_grid(ident, GridSpec.uniform(ident.params, 0, 5))
    assert report.instances == 7776
    assert report.ok
    # independence check: re-derive a sample with the naive implementation
    for vals in itertools.product(range(0, 6, 2), repeat=5):
        env = dict(zip(ident.params, vals))
        lhs, rhs = naive_chugen_check(env)
        assert lhs == rhs


def test_verify_eq1_grid(catalog):
    ident = catalog.identity("eq1")
    report = verify_grid(ident, GridSpec.uniform(ident.params, 0, 4))
    assert report.instances == 5 ** 5
    assert report.ok


def corrupted(ident):
    """Add +1 to the first constant of the first rhs factor's upper index."""
    first = ident.rhs.factors[0]
    bumped = BinomFactor(first.upper + LinExpr(1), first.lower)
    rhs = Term(ident.rhs.sign_exponent, (bumped,) + ident.rhs.factors[1:])
    return Identity(ident.name + "-corrupt", ident.params, ident.lhs, rhs, ident.constraints)


def test_corrupted_identity_fails_in_order(catalog):
    ident = corrupted(catalog.identity("chugen"))
    report = verify_grid(ident, GridSpec.uniform(ident.params, 0, 2))
    assert not report.ok
    envs = [tuple(f.env[p] for p in ident.params) for f in report.failures]
    assert envs == sorted(envs)
    assert all(f.lhs != f.rhs for f in report.failures)


def all_rhs_mutations(ident):
    """Every identity variant with one rhs index constant bumped by +1."""
    for i, factor in enumerate(ident.rhs.factors):
        for field in ("upper", "lower"):
            bumped = BinomFactor(
                factor.upper + LinExpr(1) if field == "upper" else factor.upper,
                factor.lower + LinExpr(1) if field == "lower" else factor.lower,
            )
            factors = ident.rhs.factors[:i] + (bumped,) + ident.rhs.factors[i + 1 :]
            rhs = Term(ident.rhs.sign_exponent, factors)
            yield Identity(ident.name, ident.params, ident.lhs, rhs, ident.constraints)


def first_failing_env(ident, lo, hi):
    """First admissible environment of [lo, hi]^params where the sides differ."""
    compiled = CompiledIdentity(ident)
    for point in itertools.product(range(lo, hi + 1), repeat=len(ident.params)):
        vals = list(point) + [0]
        if compiled.admissible(vals) and len(set(compiled.evaluate(vals))) == 2:
            return point
    return None


def test_mutation_sensitivity_every_catalog_identity(catalog):
    # bumping any single rhs constant must be caught on the default grid
    for name, ident in catalog.identities.items():
        for bad in all_rhs_mutations(ident):
            assert first_failing_env(bad, 0, 5) is not None, (name, bad.rhs)


def test_grid_missing_param(catalog):
    with pytest.raises(GridError, match="missing"):
        verify_grid(catalog.identity("chugen"), GridSpec.of({"a": (0, 1)}))


def test_empty_range_rejected():
    with pytest.raises(GridError):
        GridSpec.of({"a": (3, 1)})


def test_grid_cardinality():
    g = GridSpec.of({"a": (0, 5), "b": (-5, 5)})
    assert g.cardinality() == 6 * 11


def test_shard_determinism(catalog):
    ident = catalog.identity("eq4")
    grid = GridSpec.uniform(ident.params, 0, 4)
    reports = [verify_grid(ident, grid, jobs=j) for j in (1, 2, 8)]
    blobs = {r.canonical_json() for r in reports}
    assert len(blobs) == 1
    assert reports[0].instances == 5 ** 5


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    made: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = []
        RecordingPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.tasks = list(tasks)
        return map(fn, self.tasks)


@pytest.mark.parametrize(
    "cpus, jobs, total, workers",
    [
        (2, 64, 100, 2),  # clamped to the cores
        (None, 4, 100, None),  # unknown core count: one worker
        (64, 8, 100, 8),
        (64, 8, 15, None),  # fewer than two items per worker
        (64, 1, 100, None),
    ],
)
def test_shard_map_clamps_workers(monkeypatch, cpus, jobs, total, workers):
    RecordingPool.made = []
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
    shards = shard_map(lambda span: span, total, jobs, lambda start, stop: (start, stop))
    # contiguous shards in order, covering every item once
    assert [i for start, stop in shards for i in range(start, stop)] == list(range(total))
    if workers is None:
        assert RecordingPool.made == [] and shards == [(0, total)]
    else:
        assert [pool.max_workers for pool in RecordingPool.made] == [workers]
        assert len(shards) == workers


def test_report_is_independent_of_clamped_jobs(catalog, monkeypatch):
    ident = catalog.identity("eq4")
    grid = GridSpec.uniform(ident.params, 0, 4)
    serial = verify_grid(ident, grid).canonical_json()
    RecordingPool.made = []
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
    for jobs in (2, 3, 1000):
        assert verify_grid(ident, grid, jobs=jobs).canonical_json() == serial
    assert [pool.max_workers for pool in RecordingPool.made] == [2, 3, 3]


def test_constraints_skip_envs(catalog):
    stan2 = catalog.identity("stanley2")
    report = verify_grid(stan2, GridSpec.uniform(stan2.params, 0, 5))
    assert report.ok
    assert report.instances < 6 ** 4  # constraint-violating envs skipped


# -- bound sensitivity ---------------------------------------------------------


@pytest.mark.parametrize("name", ["chugen", "chu2gen"])
def test_bound_sensitivity_vanishing_tails(catalog, name):
    # for these two, out-of-range summands vanish on the whole 0..5 grid
    ident = catalog.identity(name)
    for vals in itertools.product(range(0, 6), repeat=5):
        env = dict(zip(ident.params, vals))
        assert bound_sensitivity(ident, env, 5).equal, env


def test_bound_sensitivity_eq1_example(catalog):
    # frozen from a direct brute-force evaluation of the extended sum
    ident = catalog.identity("eq1")
    env = {"b": 0, "c": 1, "d": 0, "n": 0, "p": 0}
    stated = sum(
        comb_oracle(1, k) * comb_oracle(0, -k) * comb_oracle(k, 1) * comb_oracle(-k, 0)
        for k in range(0, 1)
    )
    extended = sum(
        comb_oracle(1, k) * comb_oracle(0, -k) * comb_oracle(k, 1) * comb_oracle(-k, 0)
        for k in range(-3, 4)
    )
    result = bound_sensitivity(ident, env, 3)
    assert (result.stated, result.extended) == (stated, extended) == (0, 0)
    assert result.equal


def test_bound_sensitivity_detects_nonvanishing_tails():
    ident = parse_identity("identity t params(n) :: sum(k,0,n)[C(n+k,k)] == C(n,0)")
    result = bound_sensitivity(ident, {"n": 2}, 2)
    assert not result.equal  # C(n+k,k) does not vanish past the stated bound


def test_bound_sensitivity_needs_sum(catalog):
    ident = parse_identity("identity t params(n) :: C(n,1) == C(n,n-1)")
    with pytest.raises(ValueError):
        bound_sensitivity(ident, {"n": 2}, 1)


# -- fuzz -----------------------------------------------------------------------


def test_fuzz_chugen(catalog):
    report = fuzz(catalog.identity("chugen"), seed=1, trials=1000, lo=0, hi=8)
    assert report.trials == 1000
    assert report.ok
    assert report.exploratory == []


def test_fuzz_zero_trials(catalog):
    report = fuzz(catalog.identity("chugen"), seed=9, trials=0, lo=0, hi=3)
    assert report.instances == 0
    assert report.failures == [] and report.exploratory == []


def test_fuzz_deterministic(catalog):
    a = fuzz(catalog.identity("eq7"), seed=42, trials=500, lo=-4, hi=4)
    b = fuzz(catalog.identity("eq7"), seed=42, trials=500, lo=-4, hi=4)
    assert a.canonical_json() == b.canonical_json()


def test_fuzz_exploratory_classification(catalog):
    # stanley2 fails outside its recorded constraint; those failures are
    # exploratory data, not verification failures
    report = fuzz(catalog.identity("stanley2"), seed=3, trials=2000, lo=0, hi=4)
    assert report.ok
    assert len(report.exploratory) > 0


def test_fuzz_rejects_empty_interval(catalog):
    with pytest.raises(ValueError):
        fuzz(catalog.identity("chugen"), seed=0, trials=10, lo=2, hi=1)


# -- report schema ----------------------------------------------------------------


def test_report_json_schema(catalog):
    ident = catalog.identity("chugen")
    report = verify_grid(ident, GridSpec.uniform(ident.params, 0, 2))
    data = report.to_json_dict()
    assert set(data) == {"identity", "grid", "instances", "failures", "elapsed_ms"}
    assert data["identity"] == "chugen"
    assert all(isinstance(v, list) and len(v) == 2 for v in data["grid"].values())
    assert isinstance(data["instances"], int)
    corrupted_report = verify_grid(
        corrupted(ident), GridSpec.uniform(ident.params, 0, 2)
    )
    entry = corrupted_report.to_json_dict()["failures"][0]
    assert set(entry) == {"env", "lhs", "rhs"}
    assert isinstance(entry["lhs"], str) and isinstance(entry["rhs"], str)
    int(entry["lhs"])  # decimal strings
