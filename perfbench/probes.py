"""Scaling probes for ``chains`` and ``towers``.

* the validated residuum ``u -> u`` on the full-depth unit, for right-nested
  towers (``Z_d``, ``Q_d``) and left-nested representation towers
  (``ranks = [1]*d``, all III or all IV), at several depths;
* ``build_standard_target`` on the all-III spec at several stage counts.

Each probe reports a median time, scaled to the reference speed (see
speed.py), and a fitted log-log exponent.  Run this file
to print the depth rows of the ROADMAP Baseline table::

    python3 perfbench/probes.py
"""

from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path

if __name__ == "__main__":
    _root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_root / "src"), str(_root)]

from perfbench.speed import timed  # noqa: E402
from oddlex.towers import (  # noqa: E402
    MODE_I_II,
    RepresentationSpec,
    build_representation,
    build_standard_target,
    make_qj,
    make_zj,
)

DEPTHS = (1, 8, 32, 64)
STAGE_COUNTS = (8, 16, 32, 64)


def _left(kind: str, depth: int):
    spec = RepresentationSpec((1,) * depth, (kind,) * (depth - 1))
    return build_representation(spec, MODE_I_II).top


FAMILIES = {
    "right_z": make_zj,
    "right_q": make_qj,
    "left_iii": lambda d: _left("III", d),
    "left_iv": lambda d: _left("IV", d),
}


def median_time(fn, batches: int = 5, min_batch_s: float = 0.02) -> float:
    """Median over ``batches`` batches of the scaled time of one ``fn()``.

    A batch repeats ``fn`` until it has run ``min_batch_s``; its time is
    scaled to the reference speed (see speed.py), so points of one sweep
    measured at different moments stay comparable.
    """
    first = timed(fn)[1]
    reps = max(1, int(min_batch_s / first))
    samples = [first] if reps == 1 else []  # else it was a warm-up

    def batch():
        for _ in range(reps):
            fn()

    while len(samples) < batches:
        samples.append(timed(batch)[1] / reps)
    return statistics.median(samples)


def exponent(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def residuum_us(algebra) -> float:
    unit = algebra.unit()
    return median_time(lambda: algebra.residuum(unit, unit)) * 1e6


def build_standard_target_s(n: int, batches: int = 1) -> float:
    spec = RepresentationSpec((1,) * n, ("III",) * (n - 1))
    return median_time(lambda: build_standard_target(spec), batches=batches)


def probe_metrics() -> dict[str, tuple[float, str]]:
    """The per-layer probe metrics, name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for family, make in FAMILIES.items():
        times = [residuum_us(make(d)) for d in DEPTHS]
        for d, t in zip(DEPTHS, times):
            out[f"chains.residuum_us.{family}.d{d}"] = (t, "us")
        out[f"chains.residuum.exp.{family}"] = (exponent(DEPTHS, times), "exp")
    times = [build_standard_target_s(n) for n in STAGE_COUNTS]
    for n, t in zip(STAGE_COUNTS, times):
        out[f"towers.build_standard_target_ms.n{n}"] = (t * 1e3, "ms")
    out["towers.build_standard_target.exp"] = (exponent(STAGE_COUNTS, times), "exp")
    return out


def baseline_rows() -> list[str]:
    """The depth rows of the ROADMAP Baseline table, as markdown."""
    def ms(us):
        return f"{us / 1e3:.4g} ms"

    right = [residuum_us(make_zj(32)), residuum_us(make_qj(32)), residuum_us(make_zj(512))]
    left = [residuum_us(_left("III", n)) for n in (16, 32, 64)]
    build = [build_standard_target_s(n, batches=3) * 1e6 for n in (16, 32, 64)]
    sweep = probe_metrics()
    fits = ", ".join(f"{f} {sweep[f'chains.residuum.exp.{f}'][0]:.2f}" for f in FAMILIES)
    return [
        "| what | measured |",
        "| --- | --- |",
        "| validated residuum on the full-depth unit, right-nested `Z_32` / `Q_32` / `Z_512` "
        f"| {' / '.join(ms(t) for t in right)} |",
        "| validated residuum, left-nested spec `ranks=[1]*n`, all `III`, n = 16 / 32 / 64 "
        f"| {' / '.join(ms(t) for t in left)} |",
        "| `build_standard_target`, same spec, n = 16 / 32 / 64 "
        f"| {' / '.join(ms(t) for t in build)} |",
        f"| residuum depth exponent over d = {'/'.join(map(str, DEPTHS))} | {fits} |",
        f"| `build_standard_target` stage-count exponent over n = "
        f"{'/'.join(map(str, STAGE_COUNTS))} | {sweep['towers.build_standard_target.exp'][0]:.2f} |",
    ]


if __name__ == "__main__":
    # The Z_512 row recurses about three frames per tower level.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 5000))
    print("\n".join(baseline_rows()))
