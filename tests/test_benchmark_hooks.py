"""The benchmark tracer's hook contract, checked in the fast suite.

`benchmarks/tracer.py` rebinds named functions and `LaurentSeries` methods
of the package. A refactor that drops or renames one of them fails here,
not only in the benchmark's own smoke test.
"""
import sys
from pathlib import Path

from binomid.series import LaurentSeries

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _bindings():
    """Every attribute of every binomid module and of LaurentSeries."""
    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "binomid" or n.startswith("binomid."))]
    out = {(owner.__name__, attr): value for owner in owners for attr, value in vars(owner).items()}
    out.update({("LaurentSeries", attr): value for attr, value in vars(LaurentSeries).items()})
    return out


def test_tracer_install_and_remove_restore_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracer

    before = _bindings()
    t = tracer.Tracer().install()
    try:
        rebound = {(getattr(owner, "__name__", owner), attr) for owner, attr, _ in t._restore}
        for module, attr, _ in tracer.HOT + tracer.COARSE:
            assert (module.__name__, attr) in rebound, attr
        for attr, _ in tracer.SERIES_METHODS:
            assert vars(LaurentSeries)[attr] is not before[("LaurentSeries", attr)], attr
    finally:
        t.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
