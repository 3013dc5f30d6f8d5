"""Independent oracles the tests compare realbook's kernels with.

Each is written the plain, dense way and shares no code with the kernel
it checks, so a fault in the kernel cannot hide in the oracle too.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from realbook.contact import FormSampler
from realbook.intalg import IntMatrix
from realbook.surface import SurfaceModel


def twist_matrix(model: SurfaceModel, curve: str, exponent: int) -> IntMatrix:
    """Homology action x -> x + e <x, a> a of the e-th power of a twist."""
    a = model.curve(curve)
    rank = model.h1_rank
    ja = model.form.apply(a)  # <x, a> = x . (J a)
    rows = [
        [(1 if i == j else 0) + exponent * a[i] * ja[j] for j in range(rank)]
        for i in range(rank)
    ]
    return IntMatrix(rows, ncols=rank)


def determinantal_divisors(a: IntMatrix) -> list[int]:
    """gcd of all k x k minors for k = 1..min shape (0 when all vanish).

    Brute-force over index subsets; this is the independent oracle for
    the Smith form (d_k = D_k / D_{k-1}), so it must not share code with
    smith_normal_form.
    """
    m, n = a.shape
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = IntMatrix([[a[i, j] for j in cols] for i in rows])
                g = gcd(g, sub.det())
        out.append(abs(g))
    return out


def k_term_dominates(family: int, k: float, resolution: int = 50) -> bool:
    """Whether the K-proportional term exceeds the twist remainder
    everywhere on the grid (the large-K structure of the construction)."""
    fs = FormSampler(family=family, k=k, resolution=resolution)
    return all(kt - abs(d - kt) > 0.0
               for d, kt in zip(fs.defect_grid(+1), fs.k_term_grid()))
