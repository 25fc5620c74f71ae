"""Rebuild khard_table.json: hard-edge kernel values at r >= 2 by mpmath.

    python3 wplbench/build_khard_table.py

Each value is

    K(x, y) = int_0^1 G^{1,0}_{0,r+1}(ux | -nu_0..-nu_r) G^{r,0}_{0,r+1}(uy | nu_1..nu_r, nu_0) du

with nu_0 = 0, the first factor as 0F_r(; nu+1; -ux)/prod Gamma(1+nu_j)
(mpmath.hyper), the second by mpmath.meijerg, and the u-integral by
mpmath.quad, all at 30 significant digits.  Nothing from wpl is used.
One value takes about 1 s at r = 2 and 4 s at r = 3 on a 2-core x86 box,
so the 108 values take about 4 minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "khard_table.json"
DPS = 30

# (r, nu) families and the x/y lattice; every ordered pair of lattice
# points, the diagonal included, is tabulated.
FAMILIES = ((2, (0, 0)), (2, (1, 0)), (3, (0, 0, 0)))
LATTICE = (0.3, 1.1, 2.6, 5.0, 8.5, 13.0)


def k_hard_mp(r: int, nu: tuple[int, ...], x: float, y: float) -> str:
    if r != len(nu):
        raise ValueError("nu must have length r")
    mp.mp.dps = DPS
    lower = [1 + v for v in nu]
    pref = mp.mpf(1)
    for v in nu:
        pref /= mp.gamma(1 + v)

    def integrand(u):
        f = pref * mp.hyper([], lower, -u * x)
        g = mp.meijerg([[], []], [list(nu), [0]], u * y)
        return f * g

    val = mp.quad(integrand, [0, 0.25, 0.5, 0.75, 1])
    return mp.nstr(val, DPS)


def main() -> int:
    rows = [
        {"r": r, "nu": list(nu), "x": x, "y": y, "value": k_hard_mp(r, nu, x, y)}
        for r, nu in FAMILIES for x in LATTICE for y in LATTICE
    ]
    doc = {
        "about": "k_hard by mpmath (hyper x meijerg under quad) at %d digits" % DPS,
        "mpmath": mp.__version__,
        "lattice": list(LATTICE),
        "rows": rows,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} values to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
