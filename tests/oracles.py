"""Independent oracles the tests compare realbook's kernels with, and
the small helpers only the tests use.

Each oracle is written the plain, dense way and shares no code with the
kernel it checks, so a fault in the kernel cannot hide in the oracle
too.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import combinations
from math import gcd

from realbook.contact import FormSampler, ProfileFunctions
from realbook.intalg import AbelianGroup, IntMatrix, SmithForm
from realbook.surface import FixedSet, Involution, Sparse, SurfaceModel, entries


def expand(stored: tuple[int, ...], n: int) -> list[int]:
    """A stored vector, its flat nonzero entries (i, x_i, j, x_j, ...),
    as a dense list of length n."""
    out = [0] * n
    for i, x in zip(stored[::2], stored[1::2]):
        out[i] = x
    return out


def as_matrix(rows: tuple[Sparse, ...]) -> IntMatrix:
    """A square matrix stored as sparse rows (the form J, the matrix C),
    dense."""
    return IntMatrix([expand(row, len(rows)) for row in rows], ncols=len(rows))


def as_rows(m: IntMatrix) -> tuple[Sparse, ...]:
    """The sparse rows of a dense matrix, as a page or an involution
    stores them and as cokernel takes them."""
    return tuple(tuple(v for j, x in enumerate(row) if x for v in (j, x)) for row in m.rows)


def dense_class(model: SurfaceModel, curve: str) -> list[int]:
    """The class of a curve as a dense list."""
    return expand(model.curve(curve), model.h1_rank)


def pairing(model: SurfaceModel, x: Sparse, y: Sparse) -> int:
    """Intersection pairing <x, y> = x^T J y of two sparse classes."""
    rows = as_matrix(model.form).rows
    return sum(a * rows[i][j] * b for i, a in entries(x) for j, b in entries(y))


def annulus_rotation() -> Involution:
    """The rotation of the standard annulus (catalog.standard_surface(0, 2))
    that swaps its boundary circles and fixes its core, c(core) = +core:
    no fixed arc, one fixed circle."""
    return Involution(
        matrix=((0, 1),),
        boundary_perm={1: 2, 2: 1},
        fixed_points={},
        fixed_set=FixedSet(circles=((0, 1),)),
        curve_image={"d1": ("d2", -1), "d2": ("d1", -1)},
    )


def zeros(m: int, n: int) -> IntMatrix:
    return IntMatrix([[0] * n for _ in range(m)], ncols=n)


def diagonal(entries: list[int], m: int | None = None, n: int | None = None) -> IntMatrix:
    """The m x n matrix with entries on its diagonal (square by default)."""
    m = len(entries) if m is None else m
    n = len(entries) if n is None else n
    rows = [[0] * n for _ in range(m)]
    for i, d in enumerate(entries):
        rows[i][i] = int(d)
    return IntMatrix(rows, ncols=n)


# The dense reference algebra on IntMatrix; realbook itself computes on
# sparse rows and keeps only the product.

def identity(n: int) -> IntMatrix:
    return diagonal([1] * n)


def transpose(m: IntMatrix) -> IntMatrix:
    # zip(*rows) sees no columns in a 0 x k matrix; its transpose is k x 0
    cols = zip(*m.rows) if m.nrows else [()] * m.ncols
    return IntMatrix(cols, ncols=m.nrows)


def apply(m: IntMatrix, vec) -> tuple[int, ...]:
    """m applied to a column vector."""
    if len(vec) != m.ncols:
        raise ValueError("vector length mismatch")
    return tuple(sum(x * y for x, y in zip(row, vec)) for row in m.rows)


def add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    return IntMatrix([[x + y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)], ncols=a.ncols)


def neg(m: IntMatrix) -> IntMatrix:
    return IntMatrix([[-x for x in row] for row in m.rows], ncols=m.ncols)


def sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return add(a, neg(b))


def diag(m: IntMatrix) -> tuple[int, ...]:
    return tuple(m.rows[i][i] for i in range(min(m.shape)))


def trace(m: IntMatrix) -> int:
    return sum(diag(m))


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.nrows != a.ncols:
        raise ValueError("determinant of non-square matrix")
    n = a.nrows
    if n == 0:
        return 1
    rows = [list(row) for row in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


def logged_transforms(snf: SmithForm) -> tuple[IntMatrix, IntMatrix]:
    """U and V of a Smith form, rebuilt from its logs: each logged row
    operation applied, in order, to the rows of the identity, and each
    column operation, in order, to its columns.  (i, t, q) adds q times
    row (column) t to row (column) i, so (t, t, -2) negates it, and
    (i, t, None) swaps the two."""
    m, n = snf.shape
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, t, q in snf.row_ops:
        if q is None:
            u[i], u[t] = u[t], u[i]
        else:
            u[i] = [x + q * y for x, y in zip(u[i], u[t])]
    for i, t, q in snf.col_ops:
        for row in v:
            if q is None:
                row[i], row[t] = row[t], row[i]
            else:
                row[i] += q * row[t]
    return IntMatrix(u, ncols=m), IntMatrix(v, ncols=n)


def smith_check(snf: SmithForm, a: IntMatrix) -> bool:
    """Whether snf is a Smith form of a: U A V = D with U and V, rebuilt
    from its logs, unimodular, and D, rebuilt from its diagonal and
    shape, nonnegative, each entry dividing the next (zeros last)."""
    u, v = logged_transforms(snf)
    if u @ a @ v != diagonal(snf.diag, *snf.shape):
        return False
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        return False
    ds = snf.diag
    if any(d < 0 for d in ds):
        return False
    for prev, nxt in zip(ds, ds[1:]):
        if prev == 0:
            if nxt != 0:
                return False
        elif nxt % prev != 0:
            return False
    return True


def full_scan_smith_normal_form(a):
    """(D, U, V) with U A V = D, as the Smith form was first written, with
    dense transforms: the pivot scan always covers the whole working
    block, the divisibility sweep always runs, and each row and column
    operation is applied to u or v as it runs.  The reference for
    intalg.smith_normal_form, whose pivots and operations are the same,
    so its logged transforms must equal these entry for entry."""
    m, n = a.shape
    mat = [list(row) for row in a.rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        mat[i], mat[j] = mat[j], mat[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in mat + v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        mat[dst] = [x + q * y for x, y in zip(mat[dst], mat[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in mat + v:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                x = mat[i][j]
                if x != 0 and (pivot is None or abs(x) < abs(mat[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, m):
                if mat[i][t] != 0:
                    add_row(i, t, -(mat[i][t] // mat[t][t]))
            col_dirty = [i for i in range(t + 1, m) if mat[i][t] != 0]
            if col_dirty:
                swap_rows(t, min(col_dirty, key=lambda k: abs(mat[k][t])))
                continue
            for j in range(t + 1, n):
                if mat[t][j] != 0:
                    add_col(j, t, -(mat[t][j] // mat[t][t]))
            row_dirty = [j for j in range(t + 1, n) if mat[t][j] != 0]
            if row_dirty:
                swap_cols(t, min(row_dirty, key=lambda k: abs(mat[t][k])))
                continue
            offender = next((i for i in range(t + 1, m) for j in range(t + 1, n)
                             if mat[i][j] % mat[t][t] != 0), None)
            if offender is None:
                break
            add_row(t, offender, 1)
        if mat[t][t] < 0:
            mat[t] = [-x for x in mat[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return IntMatrix(mat, ncols=n), IntMatrix(u, ncols=m), IntMatrix(v, ncols=n)


def dense_solve(a: IntMatrix, b: list[int]) -> tuple[tuple[int, ...] | None, list]:
    """One solution of a x = b (None when there is none) and the kernel
    basis, read off the dense transforms of full_scan_smith_normal_form:
    x = V y for D y = U b, and the columns of V past the nonzero
    diagonal."""
    d, u, v = full_scan_smith_normal_form(a)
    ds = diag(d)
    c = apply(u, b)
    y = [0] * a.ncols
    x: tuple[int, ...] | None = None
    for i, ci in enumerate(c):
        di = ds[i] if i < len(ds) else 0
        if (ci % di if di else ci) != 0:
            break
        if di:
            y[i] = ci // di
    else:
        x = apply(v, y)
    kernel = [col for j, col in enumerate(transpose(v).rows)
              if j >= len(ds) or ds[j] == 0]
    return x, kernel


def is_trivial(group: AbelianGroup) -> bool:
    return group.free_rank == 0 and not group.torsion


def wronskian(pf: ProfileFunctions, r: float) -> float:
    """The Wronskian of the profile pair at one radius."""
    return pf.wronskians((r,))[0]


def h1(pf: ProfileFunctions, r: float) -> float:
    """The profile h1 at one radius."""
    return next(pf.samples((r,)))[0]


def h2(pf: ProfileFunctions, r: float) -> float:
    """The profile h2 at one radius."""
    return next(pf.samples((r,)))[2]


def twist_matrix(model: SurfaceModel, curve: str, exponent: int) -> IntMatrix:
    """Homology action x -> x + e <x, a> a of the e-th power of a twist."""
    a = dense_class(model, curve)
    rank = model.h1_rank
    ja = apply(as_matrix(model.form), a)  # <x, a> = x . (J a)
    rows = [
        [(1 if i == j else 0) + exponent * a[i] * ja[j] for j in range(rank)]
        for i in range(rank)
    ]
    return IntMatrix(rows, ncols=rank)


def words_equal_by_moves(commuting, w1, w2) -> bool:
    """Whether two twist words reach a common word, by breadth-first
    search over every word each one reaches by three moves: swapping
    adjacent letters whose curves form a pair in commuting (a set of
    frozenset pairs), merging adjacent letters on one curve, and
    dropping a letter with exponent 0.  No move lengthens a word, so
    each closure is finite.  Every move keeps the element of the graph
    group, and any two reduced words of one element differ by swaps
    alone, so the closures meet exactly when the words are equal there.
    """
    def moves(w):
        for i, (name, exp) in enumerate(w):
            if exp == 0:
                yield w[:i] + w[i + 1:]
        for i in range(len(w) - 1):
            (n1, e1), (n2, e2) = w[i], w[i + 1]
            if n1 == n2:
                yield w[:i] + ((n1, e1 + e2),) + w[i + 2:]
            elif frozenset((n1, n2)) in commuting:
                yield w[:i] + (w[i + 1], w[i]) + w[i + 2:]

    def closure(w):
        seen = {w}
        todo = deque([w])
        while todo:
            for nxt in moves(todo.popleft()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    return not closure(tuple(w1)).isdisjoint(closure(tuple(w2)))


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
                minor = IntMatrix([[a.rows[i][j] for j in cols] for i in rows])
                g = gcd(g, det(minor))
        out.append(abs(g))
    return out


def k_term_dominates(family: int, k: float, resolution: int = 50) -> bool:
    """Whether the K-proportional term exceeds the twist remainder
    everywhere on the grid (the large-K structure of the construction)."""
    fs = FormSampler(family=family, k=k, resolution=resolution)
    return all(kt - abs(d - kt) > 0.0
               for d, kt in zip(fs.defect_grid(+1), fs.k_term_grid()))


def _fixed_set_obj(fs, rank: int) -> dict:
    return {
        "arcs": [
            {
                "ends": [list(fs_end) for fs_end in arc.ends],
                "pair_curves": expand(arc.pair_curves, rank),
                "pair_arcs": {str(k): v for k, v in sorted(arc.pair_arcs.items())},
            }
            for arc in fs.arcs
        ],
        "circles": [{"h1_class": expand(c, rank)} for c in fs.circles],
    }


def reference_to_obj(ob) -> dict:
    """The JSON object of a book as the schema-3 writer was first
    written: every class and row expanded dense, and the disjoint pairs
    the page holds that name no curve of the written provenance."""
    page = ob.page
    rank = page.h1_rank
    inv = ob.real_structure
    made = {n for rec in ob.provenance for n, _ in rec.sigma}
    return {
        "schema": 3,
        "page": {
            "genus": page.genus,
            "boundary": [{"id": cid, "pclass": expand(p, rank)} for cid, p in page.circles.items()],
            "basis": list(page.basis),
            "form": [expand(r, rank) for r in page.form],
        },
        "alphabet": [
            {
                "name": name,
                "h1_class": expand(cls, rank),
                "c_image": list(inv.curve_image[name]) if name in inv.curve_image else None,
            }
            for name, cls in sorted(page.alphabet.items())
        ],
        "ref_arcs": [
            {"boundary": cid, "pairings": expand(row, rank)}
            for cid, row in sorted(page.ref_arcs.items())
        ],
        "disjoint": sorted(sorted(p) for p in page.disjoint_pairs() if made.isdisjoint(p)),
        "word": [{"curve": n, "exp": e} for n, e in ob.monodromy],
        "involution": {
            "matrix": [expand(r, rank) for r in inv.matrix],
            "boundary_perm": {str(k): v for k, v in sorted(inv.boundary_perm.items())},
            "fixed_points": {str(k): list(v) for k, v in sorted(inv.fixed_points.items())},
            "fixed_set": _fixed_set_obj(inv.fixed_set, rank),
        },
        "fix_plus": _fixed_set_obj(ob.fix_plus, rank) if ob.fix_plus is not None else None,
        "provenance": [
            {
                "type": rec.tag,
                "site": list(rec.site),
                "sigma": [[n, e] for n, e in rec.sigma],
                "images": {k: list(v) for k, v in sorted(rec.images.items())},
            }
            for rec in ob.provenance
        ],
    }


_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def reference_dumps(ob) -> str:
    """The book's text as the writer first wrote it: reference_to_obj,
    one top-level field per line in sorted key order, each value
    encoded compact with sorted keys by the C encoder."""
    obj = reference_to_obj(ob)
    return "{\n" + ",\n".join(f"{_compact(k)}:{_compact(obj[k])}" for k in sorted(obj)) + "\n}"


def full_walk_viii_search(pattern, c_old, form):
    """Type VIII's attachment data (v, w, x, m) as the search read it
    before it tried its particular point first: for each (m, x) in
    product((0, 1, -1), (1, -1)) the system of x (the attachment pattern
    on v, (1 - C) w = P_j + P_k and x (v - C^T v) + J w = 0), built
    dense entry by entry, is factored and solved once per x, the first
    four kernel generators are read, and the whole lattice walk (the
    particular solution, then base + sum c_i g_i over c in
    product(-2..2), lexicographic) is built point by point up to the
    first with v . w = x m."""
    from itertools import chain, product

    from realbook.errors import StabilizationError
    from realbook.intalg import factor
    from realbook.surface import sparse

    n = len(c_old)
    c = [expand(r, n) for r in c_old]
    j = [expand(r, n) for r in form]
    pj, pk = expand(pattern[0][0], n), expand(pattern[1][0], n)
    rows = [expand(p, n) + [0] * n for p, _want in pattern]
    rows += [[0] * n + [int(i == u) - c[i][u] for u in range(n)] for i in range(n)]
    rhs = [want for _p, want in pattern] + [a + b for a, b in zip(pj, pk)] + [0] * n
    lattices = {}
    for m, x in product((0, 1, -1), (1, -1)):
        if x not in lattices:
            x_rows = [[x * (int(i == u) - c[u][i]) for u in range(n)] + j[i] for i in range(n)]
            snf = factor([sparse(r) for r in rows + x_rows], 2 * n)
            base = snf.solve(rhs)
            gens = [] if base is None else [g for g, _ in zip(snf.kernel(), range(4))]
            lattices[x] = base, gens
        base, gens = lattices[x]
        if base is None:
            continue
        for combo in chain([()], product(range(-2, 3), repeat=len(gens))):
            point = list(base)
            for k, g in zip(combo, gens):
                point = [a + k * b for a, b in zip(point, g)]
            if sum(a * b for a, b in zip(point[:n], point[n:])) == x * m:
                return sparse(point[:n]), sparse(point[n:]), x, m
    raise StabilizationError("type VIII: no consistent boundary class at this site")
