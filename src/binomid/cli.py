"""Command-line front end.

Subcommands: catalog, verify, fuzz, specialize, prove, check-arith.
Exit codes: 0 all requested checks pass, 1 a mathematical check failed,
2 usage or input error (a bad flag value, an unreadable catalog file),
3 internal error (a bug in binomid, reported with its traceback).
Reports go to stdout, diagnostics and a JSON run's `--dump-trace` to stderr.
The env var BINOMID_CATALOG overrides the built-in catalog file.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback

from .arith import run_invariant_suite
from .catalog import Catalog, CatalogError, check_specialization, load_builtin, load_catalog_file
from .proofs import run_proof_script
from .verify import GridSpec, fuzz, verify_grid

_RANGE = re.compile(r"^(\*|[A-Za-z_][A-Za-z0-9_]*)=(-?\d+)\.\.(-?\d+)$")


class UsageError(Exception):
    pass


def _parse_ranges(specs) -> tuple[dict[str, tuple[int, int]], tuple[int, int] | None]:
    explicit: dict[str, tuple[int, int]] = {}
    star = None
    for spec in specs or ():
        m = _RANGE.match(spec)
        if not m:
            raise UsageError(f"bad range '{spec}' (expected name=lo..hi or '*=lo..hi')")
        name, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
        if lo > hi:
            raise UsageError(f"bad range '{spec}': empty interval")
        if name in explicit or (name == "*" and star is not None):
            raise UsageError(f"--range given twice for '{name}'")
        if name == "*":
            star = (lo, hi)
        else:
            explicit[name] = (lo, hi)
    return explicit, star


def _grid_for(params, specs, default=(0, 5)) -> GridSpec:
    explicit, star = _parse_ranges(specs)
    unknown = set(explicit) - set(params)
    if unknown:
        raise UsageError(f"range for unknown parameter(s): {', '.join(sorted(unknown))}")
    fill = star or default
    return GridSpec.of({p: explicit.get(p, fill) for p in params})


def _check_counts(args) -> None:
    """Counts and bounds given on the command line must make sense."""
    for flag in ("window", "trials", "bound"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise UsageError(f"--{flag} must be nonnegative, got {value}")
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    if getattr(args, "lo", 0) > getattr(args, "hi", 0):
        raise UsageError(f"--lo must not exceed --hi, got {args.lo} > {args.hi}")


def _load_catalog() -> Catalog:
    path = os.environ.get("BINOMID_CATALOG")
    if path:
        print(f"using catalog {path}", file=sys.stderr)
        try:
            return load_catalog_file(path)
        except (OSError, UnicodeError) as exc:
            raise UsageError(f"cannot read catalog {path}: {exc}") from exc
    return load_builtin()


def _pick(names, requested, all_flag, what) -> list[str]:
    if all_flag:
        return list(names)
    if not requested:
        raise UsageError(f"pick a {what} with --{what} NAME or use --all")
    for name in requested:
        if name not in names:
            raise UsageError(f"unknown {what} '{name}' (valid: {', '.join(names)})")
    return list(requested)


def _emit(reports, fmt: str, text_lines) -> None:
    if fmt == "json":
        payload = reports[0] if len(reports) == 1 else reports
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- subcommands -------------------------------------------------------------


def _cmd_catalog(args, cat: Catalog) -> int:
    from .dsl import print_identity

    if args.identity:
        names = _pick(list(cat.identities), args.identity, False, "identity")
        reports = [{"identity": n, "text": print_identity(cat.identities[n])} for n in names]
        _emit(reports, args.format, [r["text"] for r in reports])
        return 0
    if args.format == "json":
        payload = {
            "identities": [print_identity(i) for i in cat.identities.values()],
            "claims": [
                {"name": c.name, "parent": c.parent, "attribution": c.attribution}
                for c in cat.claims.values()
            ],
            "scripts": list(cat.scripts),
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"{len(cat.identities)} identities:")
    for ident in cat.identities.values():
        print(f"  {ident.name:13s} params({','.join(ident.params)})")
    print(f"{len(cat.claims)} specialization claims:")
    for c in cat.claims.values():
        chain = f" via a {len(c.chain)}-step rewrite chain" if c.chain else ""
        print(f"  {c.name:13s} from {c.parent}{chain}  [{c.attribution}]")
    print(f"{len(cat.scripts)} proof scripts: " + ", ".join(cat.scripts))
    return 0


def _cmd_verify(args, cat: Catalog) -> int:
    names = _pick(list(cat.identities), args.identity, args.all, "identity")
    reports, lines, failed = [], [], False
    for name in names:
        ident = cat.identities[name]
        grid = _grid_for(ident.params, args.range)
        report = verify_grid(ident, grid, jobs=args.jobs)
        reports.append(report.to_json_dict())
        status = "ok" if report.ok else f"{len(report.failures)} FAILURES"
        lines.append(
            f"{name}: {report.instances} instances, {status} ({report.elapsed_ms} ms)"
        )
        if not report.ok:
            failed = True
            for f in report.failures[:5]:
                lines.append(f"  env={f.env} lhs={f.lhs} rhs={f.rhs}")
    _emit(reports, args.format, lines)
    return 1 if failed else 0


def _cmd_fuzz(args, cat: Catalog) -> int:
    names = _pick(list(cat.identities), args.identity, args.all, "identity")
    reports, lines, failed = [], [], False
    for name in names:
        report = fuzz(cat.identities[name], args.seed, args.trials, args.lo, args.hi)
        reports.append(report.to_json_dict())
        status = "ok" if report.ok else f"{len(report.failures)} FAILURES"
        lines.append(
            f"{name}: {report.trials} trials in [{args.lo},{args.hi}] seed={args.seed}, "
            f"{status}, {len(report.exploratory)} exploratory"
        )
        failed = failed or not report.ok
    _emit(reports, args.format, lines)
    return 1 if failed else 0


def _cmd_specialize(args, cat: Catalog) -> int:
    names = _pick(list(cat.claims), args.claim, args.all, "claim")
    reports, lines, failed = [], [], False
    for name in names:
        result = check_specialization(cat, cat.claims[name], jobs=args.jobs)
        reports.append(result.to_json_dict())
        verdict = "match" if result.structural_match else "MISMATCH"
        lines.append(
            f"{name}: structural verdict \"{verdict}\", "
            f"{result.report.instances} instances, {len(result.report.failures)} failures"
        )
        if not result.ok:
            failed = True
            lines.append(f"  substituted: {result.substituted_form}")
            lines.append(f"  literature:  {result.literature_form}")
    _emit(reports, args.format, lines)
    return 1 if failed else 0


def _cmd_prove(args, cat: Catalog) -> int:
    names = _pick(list(cat.scripts), args.script, args.all, "script")
    reports, lines, failed = [], [], False
    for name in names:
        script = cat.scripts[name]
        grid = _grid_for(script.params, args.range, default=(0, 3))
        instances = script.instances(grid.as_dict())
        trace = None
        if args.dump_trace:
            out = sys.stderr if args.format == "json" else None  # JSON owns stdout
            def trace(label, series, _name=name):
                print(f"[{_name}] {label}:", file=out)
                for e, c in series.items():
                    mono = "*".join(f"{v}^{x}" for v, x in zip(series.vars, e) if x != 0) or "1"
                    print(f"    {mono}: {c}", file=out)
        report = run_proof_script(script, instances, window=args.window, jobs=args.jobs, trace=trace)
        reports.append(report.to_json_dict())
        steps = " ".join(
            f"{k}={n}" for k, n in zip(report.step_kinds, report.step_passes)
        )
        status = "ok" if report.ok else f"{len(report.failures)} FAILURES"
        lines.append(f"{name}: {report.instances} instances, {status} ({report.elapsed_ms} ms)")
        lines.append(f"  per-step passes: {steps}")
        if not report.ok:
            failed = True
            for f in report.failures[:5]:
                lines.append(f"  step {f.step} ({f.kind}) at {f.instance}: {f.message}")
    _emit(reports, args.format, lines)
    return 1 if failed else 0


def _cmd_check_arith(args, _cat) -> int:
    reports, lines = [], []
    for name, cases, bad in run_invariant_suite(args.bound):
        reports.append({"invariant": name, "cases": cases, "violations": len(bad)})
        mark = "FAIL" if bad else "ok  "
        lines.append(f"{mark} {name}: {cases} cases" + (f", first violation {bad[0]}" if bad else ""))
    _emit(reports, args.format, lines)
    return 1 if any(r["violations"] for r in reports) else 0


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomid",
        description="Exact-arithmetic workbench for binomial coefficient identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=True):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, metavar="N")

    p = sub.add_parser("catalog", help="list or print catalog entries")
    p.add_argument("--identity", action="append", metavar="NAME")
    common(p, jobs=False)

    p = sub.add_parser("verify", help="exhaustively verify identities on a grid")
    p.add_argument("--identity", action="append", metavar="NAME")
    p.add_argument("--all", action="store_true")
    p.add_argument("--range", action="append", metavar="NAME=LO..HI",
                   help="parameter range; '*=lo..hi' fills the rest (default 0..5)")
    common(p)

    p = sub.add_parser("fuzz", help="randomized verification with a fixed seed")
    p.add_argument("--identity", action="append", metavar="NAME")
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--lo", type=int, default=-5)
    p.add_argument("--hi", type=int, default=5)
    common(p, jobs=False)

    p = sub.add_parser("specialize", help="certify literature specialization claims")
    p.add_argument("--claim", action="append", metavar="NAME")
    p.add_argument("--all", action="store_true")
    common(p)

    p = sub.add_parser("prove", help="run the integral-representation proof scripts")
    p.add_argument("--script", action="append", metavar="NAME")
    p.add_argument("--all", action="store_true")
    p.add_argument("--range", action="append", metavar="NAME=LO..HI",
                   help="instance ranges (default 0..3)")
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--dump-trace", action="store_true",
                   help="print every intermediate coefficient table")
    common(p)

    p = sub.add_parser("check-arith", help="run the arithmetic kernel invariant suite")
    p.add_argument("--bound", type=int, default=30)
    common(p, jobs=False)
    return parser


_COMMANDS = {
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
    "fuzz": _cmd_fuzz,
    "specialize": _cmd_specialize,
    "prove": _cmd_prove,
    "check-arith": _cmd_check_arith,
}


class _ReaderSafeStdout:
    """stdout that drops its output once the reader has closed the pipe, so
    that `binomid catalog | head -1` exits with the command's own verdict."""

    def __init__(self, stream):
        self.stream, self.reader_gone = stream, False

    def write(self, text):
        self._guard(self.stream.write, text)

    def flush(self):
        self._guard(self.stream.flush)

    def _guard(self, call, *args) -> None:
        try:
            if not self.reader_gone:
                call(*args)
        except BrokenPipeError:
            self.reader_gone = True
            if hasattr(self.stream, "fileno"):  # the final flush then writes to devnull
                os.dup2(os.open(os.devnull, os.O_WRONLY), self.stream.fileno())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stdout = sys.stdout = _ReaderSafeStdout(sys.stdout)
    try:
        _check_counts(args)
        return _COMMANDS[args.command](args, _load_catalog())
    except (UsageError, CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug must not pass for a failed (or a passed) mathematical check
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        stdout.flush()
        sys.stdout = stdout.stream


if __name__ == "__main__":
    sys.exit(main())
