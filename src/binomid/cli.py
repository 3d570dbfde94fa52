"""Command-line front end.

Subcommands: catalog, verify, fuzz, specialize, prove, check-arith. Each
yields one row (JSON report, text lines, passed) per item it checks; `_run`
builds every row, prints them, and picks the exit code.
Exit codes: 0 all requested checks pass, 1 a mathematical check failed,
2 usage or input error (a bad flag value, an unreadable catalog file),
3 internal error (a bug in binomid, reported with its traceback).
Reports go to stdout, diagnostics and a JSON run's `--dump-trace` to stderr.
JSON output is one object when one item is named (or for the catalog
listing), and a list otherwise, even of one report. A `--range` name must be
a parameter of some selected item and applies to the items that have it.
The env var BINOMID_CATALOG overrides the built-in catalog file for every
subcommand but check-arith, which reads no catalog.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback

from .arith import run_invariant_suite
from .catalog import (DEFAULT_GRID_HI, DEFAULT_GRID_LO, Catalog, CatalogError,
                      check_specialization, load_builtin, load_catalog_file)
from .proofs import run_proof_script
from .verify import GridSpec, fuzz, verify_grid

# any name: a name that no selected item declares is refused after parsing
_RANGE = re.compile(r"([^=]+)=(-?[0-9]+)\.\.(-?[0-9]+)")


class UsageError(Exception):
    pass


def _grids(items, specs, default: tuple[int, int]) -> list[GridSpec]:
    """One grid per item from the --range flags, which are checked before any
    item runs; '*' fills every parameter that no flag names."""
    ranges: dict[str, tuple[int, int]] = {}
    for spec in specs or ():
        m = _RANGE.fullmatch(spec)
        if not m:
            raise UsageError(f"bad range '{spec}' (expected name=lo..hi or '*=lo..hi')")
        name, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
        if lo > hi:
            raise UsageError(f"bad range '{spec}': empty interval")
        if name in ranges:
            raise UsageError(f"--range given twice for '{name}'")
        ranges[name] = (lo, hi)
    fill = ranges.pop("*", default)
    unknown = set(ranges).difference(*(item.params for item in items))
    if unknown:
        raise UsageError(f"range for unknown parameter(s): {', '.join(sorted(unknown))}")
    return [GridSpec.of({p: ranges.get(p, fill) for p in item.params}) for item in items]


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


def _pick(table: dict, lookup, args, what: str) -> list:
    if args.all:
        return list(table.values())
    if not args.names:
        raise UsageError(f"pick a {what} with --{what} NAME or use --all")
    return [lookup(name) for name in args.names]


def _status(report) -> str:
    return "ok" if report.ok else f"{len(report.failures)} FAILURES"


# -- subcommands: each yields one (JSON report, text lines, passed) row per item


def _cmd_catalog(args, cat: Catalog):
    from .dsl import print_identity

    if args.names:
        for ident in map(cat.identity, args.names):
            text = print_identity(ident)
            yield {"identity": ident.name, "text": text}, [text], True
        return
    lines = [f"{len(cat.identities)} identities:"]
    lines += [f"  {i.name:13s} params({','.join(i.params)})" for i in cat.identities.values()]
    lines.append(f"{len(cat.claims)} specialization claims:")
    for c in cat.claims.values():
        chain = f" via a {len(c.chain)}-step rewrite chain" if c.chain else ""
        lines.append(f"  {c.name:13s} from {c.parent}{chain}  [{c.attribution}]")
    lines.append(f"{len(cat.scripts)} proof scripts: " + ", ".join(cat.scripts))
    listing = {
        "identities": [print_identity(i) for i in cat.identities.values()],
        "claims": [
            {"name": c.name, "parent": c.parent, "attribution": c.attribution}
            for c in cat.claims.values()
        ],
        "scripts": list(cat.scripts),
    }
    yield listing, lines, True


def _cmd_verify(args, cat: Catalog):
    idents = _pick(cat.identities, cat.identity, args, "identity")
    default = (DEFAULT_GRID_LO, DEFAULT_GRID_HI)
    for ident, grid in zip(idents, _grids(idents, args.range, default)):
        report = verify_grid(ident, grid, jobs=args.jobs)
        lines = [f"{ident.name}: {report.instances} instances, {_status(report)} "
                 f"({report.elapsed_ms} ms)"]
        lines += [f"  env={f.env} lhs={f.lhs} rhs={f.rhs}" for f in report.failures[:5]]
        yield report.to_json_dict(), lines, report.ok


def _cmd_fuzz(args, cat: Catalog):
    for ident in _pick(cat.identities, cat.identity, args, "identity"):
        report = fuzz(ident, args.seed, args.trials, args.lo, args.hi)
        line = (f"{ident.name}: {report.trials} trials in [{args.lo},{args.hi}] "
                f"seed={args.seed}, {_status(report)}, {len(report.exploratory)} exploratory")
        yield report.to_json_dict(), [line], report.ok


def _cmd_specialize(args, cat: Catalog):
    for claim in _pick(cat.claims, cat.claim, args, "claim"):
        result = check_specialization(cat, claim, jobs=args.jobs)
        verdict = "match" if result.structural_match else "MISMATCH"
        lines = [f"{claim.name}: structural verdict \"{verdict}\", "
                 f"{result.report.instances} instances, {len(result.report.failures)} failures"]
        if not result.ok:
            lines.append(f"  substituted: {result.substituted_form}")
            lines.append(f"  literature:  {result.literature_form}")
        yield result.to_json_dict(), lines, result.ok


def _cmd_prove(args, cat: Catalog):
    scripts = _pick(cat.scripts, cat.script, args, "script")
    for script, grid in zip(scripts, _grids(scripts, args.range, (0, 3))):
        trace = None
        if args.dump_trace:
            out = sys.stderr if args.format == "json" else None  # JSON owns stdout
            def trace(label, series, _name=script.name):
                print(f"[{_name}] {label}:", file=out)
                for e, c in series.items():
                    mono = "*".join(f"{v}^{x}" for v, x in zip(series.vars, e) if x != 0) or "1"
                    print(f"    {mono}: {c}", file=out)
        report = run_proof_script(script, script.instances(grid.as_dict()), window=args.window,
                                  jobs=args.jobs, trace=trace)
        steps = " ".join(f"{k}={n}" for k, n in zip(report.step_kinds, report.step_passes))
        lines = [f"{script.name}: {report.instances} instances, {_status(report)} "
                 f"({report.elapsed_ms} ms)", f"  per-step passes: {steps}"]
        lines += [f"  step {f.step} ({f.kind}) at {f.instance}: {f.message}"
                  for f in report.failures[:5]]
        yield report.to_json_dict(), lines, report.ok


def _cmd_check_arith(args, _cat):
    for name, cases, bad in run_invariant_suite(args.bound):
        mark = "FAIL" if bad else "ok  "
        line = f"{mark} {name}: {cases} cases" + (f", first violation {bad[0]}" if bad else "")
        yield {"invariant": name, "cases": cases, "violations": len(bad)}, [line], not bad


def _run(args) -> int:
    """Run the subcommand over every item, print its rows, and return 1 if a
    check failed. No row is printed before every row is built, so a run that
    stops on an error prints no report."""
    rows = list(args.run(args, _load_catalog() if args.reads_catalog else None))
    if args.format == "text":
        for _, lines, _ in rows:
            for line in lines:
                print(line)
    else:
        reports = [report for report, _, _ in rows]
        one = not args.all and len(args.names or ()) <= 1  # one item named, or the listing
        print(json.dumps(reports[0] if one else reports, sort_keys=True))
    return 0 if all(passed for _, _, passed in rows) else 1


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomid",
        description="Exact-arithmetic workbench for binomial coefficient identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, select=None, all_flag=True):
        p = sub.add_parser(name, help=help)
        # check-arith, which names no items, always runs its whole suite and
        # reads no catalog
        p.set_defaults(run=run, names=None, all=select is None, reads_catalog=select is not None)
        if select:
            p.add_argument(f"--{select}", action="append", dest="names", metavar="NAME")
            if all_flag:
                p.add_argument("--all", action="store_true")
        return p

    def common(p, jobs=True):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, metavar="N")

    p = command("catalog", _cmd_catalog, "list or print catalog entries", "identity",
                all_flag=False)
    common(p, jobs=False)

    p = command("verify", _cmd_verify, "exhaustively verify identities on a grid", "identity")
    p.add_argument("--range", action="append", metavar="NAME=LO..HI",
                   help="parameter range; '*=lo..hi' fills the rest "
                        f"(default {DEFAULT_GRID_LO}..{DEFAULT_GRID_HI})")
    common(p)

    p = command("fuzz", _cmd_fuzz, "randomized verification with a fixed seed", "identity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--lo", type=int, default=-5)
    p.add_argument("--hi", type=int, default=5)
    common(p, jobs=False)

    p = command("specialize", _cmd_specialize, "certify literature specialization claims",
                "claim")
    common(p)

    p = command("prove", _cmd_prove, "run the integral-representation proof scripts", "script")
    p.add_argument("--range", action="append", metavar="NAME=LO..HI",
                   help="instance ranges (default 0..3)")
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--dump-trace", action="store_true",
                   help="print every intermediate coefficient table")
    common(p)

    p = command("check-arith", _cmd_check_arith, "run the arithmetic kernel invariant suite")
    p.add_argument("--bound", type=int, default=30)
    common(p, jobs=False)
    return parser


class _ReaderSafeStream:
    """stdout or stderr that drops its output once the reader has closed the
    pipe, so that `binomid catalog | head -1` exits with its own verdict."""

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
    stdout = sys.stdout = _ReaderSafeStream(sys.stdout)
    stderr = sys.stderr = _ReaderSafeStream(sys.stderr)
    try:
        _check_counts(args)
        return _run(args)
    except (UsageError, CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug must not pass for a failed (or a passed) mathematical check
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        for guard in (stdout, stderr):
            guard.flush()
        sys.stdout, sys.stderr = stdout.stream, stderr.stream


if __name__ == "__main__":
    sys.exit(main())
