"""Exact integer linear algebra: matrices, Smith normal form, cokernels.

Everything here works over Python ints, so entry blow-up during Smith
reduction is harmless.  Intended scale is small (page ranks up to about
32, relation matrices up to about 60x60).  The product scatters over the
nonzeros of both factors: a row of the right factor is listed once as
(j, x) pairs, when a nonzero of the left factor first reaches it, and
each row of the result gathers a * x into entry j for every nonzero a
of the left row.  So it costs one multiply per pair of nonzeros that
meet, and a row of the right factor that no nonzero reaches is never
read: the sparse involutions, forms and Smith transforms cost far less
than n^3, and a product of a few probe rows reads a few rows of the
right factor.  Twist words never go through it, because mcg applies
each twist as an O(n^2) rank-one update.  The Smith form uses the
smallest-entry pivot rule, with no modular or HNF shortcut, and its
updates touch only nonzeros: a row operation adds the nonzeros of the
pivot row, listed once per clearing pass, a column operation changes
one entry of the working matrix and is a sparse axpy on the columns of
v.  The pivots and the row and column operations are the full-scan
rule's, in its order, so the form and its transforms are the same
entry for entry; only the zero updates are skipped.  One
elimination loop serves every caller: linear systems are solved by
back-substitution through a form factored with its transforms, which a
caller may reuse for many right-hand sides, and cokernel runs the same
loop without transforms, since it reads only the diagonal.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, mul, neg, sub
from typing import Iterable, Sequence

from .records import record


class IntMatrix:
    """Immutable dense integer matrix."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        self.rows = tuple(tuple(map(int, row)) for row in rows)
        self.nrows = len(self.rows)
        if self.nrows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
        else:
            self.ncols = 0 if ncols is None else ncols
        if ncols is not None and self.nrows and self.ncols != ncols:
            raise ValueError("ncols mismatch")

    @staticmethod
    def _trusted(rows: Iterable[Sequence[int]], ncols: int) -> "IntMatrix":
        """Wrap rows known to be ints of width ncols already: computed
        here from the entries of IntMatrix values, or checked so by the
        book reader.  The normalisation and the width checks of
        __init__, most of its cost, are skipped."""
        m = object.__new__(IntMatrix)
        m.rows = tuple(map(tuple, rows))
        m.nrows = len(m.rows)
        m.ncols = ncols
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._trusted([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], nrows: int) -> "IntMatrix":
        return IntMatrix([[col[i] for col in cols] for i in range(nrows)], ncols=len(cols))

    # -- basics --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.shape == other.shape and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.shape, self.rows))

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.rows))!r})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"dimension mismatch {self.shape} @ {other.shape}")
        n = other.ncols
        # the nonzeros (j, x) of a row of the right factor, listed when a
        # nonzero of the left factor first reaches the row
        orows = other.rows
        right: list[list[tuple[int, int]] | None] = [None] * other.nrows
        out = []
        for row in self.rows:
            acc = [0] * n
            for i, a in enumerate(row):
                if a:
                    orow = right[i]
                    if orow is None:
                        orow = right[i] = [(j, x) for j, x in enumerate(orows[i]) if x]
                    for j, x in orow:
                        acc[j] += a * x
            out.append(acc)
        return IntMatrix._trusted(out, n)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        pairs = zip(self.rows, other.rows)
        return IntMatrix._trusted((map(add, r1, r2) for r1, r2 in pairs), self.ncols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        pairs = zip(self.rows, other.rows)
        return IntMatrix._trusted((map(sub, r1, r2) for r1, r2 in pairs), self.ncols)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted((map(neg, row) for row in self.rows), self.ncols)

    def transpose(self) -> "IntMatrix":
        # zip(*rows) sees no columns in a 0 x k matrix; its transpose is k x 0
        cols = zip(*self.rows) if self.nrows else [()] * self.ncols
        return IntMatrix._trusted(cols, self.nrows)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, row, vec)) for row in self.rows)

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def diag(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))


@record
class SmithForm:
    """U @ A @ V = D with U, V unimodular and D in Smith normal form;
    u and v are None when the form was computed without transforms.
    The diagonal of D is read once and kept, so a form reused for many
    right-hand sides does not rebuild it per solve."""

    d: IntMatrix
    u: IntMatrix | None
    v: IntMatrix | None

    @cached_property
    def diag(self) -> tuple[int, ...]:
        return self.d.diag()


@record
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    torsion entries are >= 2 and each divides the next.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for t in self.torsion:
            if t < 2:
                raise ValueError("torsion entries must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion entries must form a divisibility chain")

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def smith_normal_form(a: IntMatrix, transforms: bool = True) -> SmithForm:
    """Smith normal form with unimodular transforms.

    Pivoting rule: smallest nonzero absolute value in the working
    submatrix, ties broken row-major.  Deterministic, and keeps entry
    growth tolerable at this scale.  The scan stops at the first unit
    entry, which is the pivot the full scan would pick, and a unit pivot
    needs no divisibility sweep.

    Every update touches only nonzeros, and the pivots and the row and
    column operations are those of the full-scan rule, in its order, so
    d, u and v equal its transforms entry for entry.  Each pass that
    clears column t lists the nonzeros of the pivot row from column t
    on, and of u's pivot row, once, and adds multiples of them to the
    rows with an entry in column t.  Once column t is clear below the
    pivot, and every row above t is zero from column t on (each earlier
    step ends with its row and column clear but for the pivot), a column
    operation that clears row t changes only the pivot row of the
    working matrix: its entry becomes a remainder by the pivot.  v is
    kept as its list of columns, so that operation is one sparse axpy
    on v, and a column swap swaps two lists.

    With transforms=False the same eliminations run on the working
    matrix alone, u and v having empty rows and columns: d is the same,
    and u and v are None.
    """
    m, n = a.shape
    mat = list(map(list, a.rows))
    if transforms:
        u = [[0] * m for _ in range(m)]
        for i, row in enumerate(u):
            row[i] = 1
        vcols = [[0] * n for _ in range(n)]
        for i, col in enumerate(vcols):
            col[i] = 1
    else:
        # every update of an empty row or column is a no-op, so the loop
        # is the same and only d is computed
        u = [[] for _ in range(m)]
        vcols = [[] for _ in range(n)]

    def swap_rows(i, j):
        mat[i], mat[j] = mat[j], mat[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(t, j):
        # rows above t are zero in both columns
        for r in range(t, m):
            row = mat[r]
            row[t], row[j] = row[j], row[t]
        vcols[t], vcols[j] = vcols[j], vcols[t]

    t = 0
    size = min(m, n)
    while t < size:
        # pick pivot: smallest |entry| != 0, row-major tie-break
        pivot = None
        best = 0
        for i in range(t, m):
            row = mat[i]
            for j in range(t, n):
                x = row[j]
                if x and (pivot is None or abs(x) < best):
                    pivot = (i, j)
                    best = abs(x)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        prow, pcol = pivot
        if prow != t:
            swap_rows(t, prow)
        if pcol != t:
            swap_cols(t, pcol)

        while True:
            top = mat[t]        # the pivot row
            p = top[t]
            # clear column t by division; leftover remainders become new,
            # strictly smaller pivots, so this terminates
            below = [i for i in range(t + 1, m) if mat[i][t]]
            if below:
                pnz = [(j, x) for j, x in enumerate(top[t:], t) if x]
                unz = [(j, x) for j, x in enumerate(u[t]) if x]
                for i in below:
                    q = -(mat[i][t] // p)
                    row = mat[i]
                    for j, x in pnz:
                        row[j] += q * x
                    row = u[i]
                    for j, x in unz:
                        row[j] += q * x
                dirty = [i for i in below if mat[i][t]]
                if dirty:
                    swap_rows(t, min(dirty, key=lambda k: abs(mat[k][t])))
                    continue
            right = [j for j in range(t + 1, n) if top[j]]
            if right:
                vnz = [(i, y) for i, y in enumerate(vcols[t]) if y]
                for j in right:
                    q = -(top[j] // p)
                    top[j] += q * p
                    col = vcols[j]
                    for i, y in vnz:
                        col[i] += q * y
                dirty = [j for j in right if top[j]]
                if dirty:
                    swap_cols(t, min(dirty, key=lambda k: abs(top[k])))
                    continue
            # divisibility sweep: pivot must divide the whole remaining block
            if abs(p) == 1:
                break
            offender = next((i for i in range(t + 1, m)
                             if any(x % p for x in mat[i][t + 1:])), None)
            if offender is None:
                break
            # row t += the offender, which is zero up to column t
            for j, x in enumerate(mat[offender][t + 1:], t + 1):
                if x:
                    top[j] += x
            row = u[t]
            for j, x in enumerate(u[offender]):
                if x:
                    row[j] += x
        if mat[t][t] < 0:
            # row t is zero but for the pivot
            mat[t][t] = -mat[t][t]
            u[t] = [-x for x in u[t]]
        t += 1

    d = IntMatrix._trusted(mat, n)
    if not transforms:
        return SmithForm(d=d, u=None, v=None)
    return SmithForm(d=d, u=IntMatrix._trusted(u, m), v=IntMatrix._trusted(zip(*vcols), n))


def cokernel(a: IntMatrix) -> AbelianGroup:
    """Z^rows(a) modulo the column span of a, in canonical form.  Only
    the Smith diagonal is needed, so no transform is built."""
    diag = smith_normal_form(a, transforms=False).diag
    nonzero = [d for d in diag if d != 0]
    torsion = tuple(d for d in nonzero if d >= 2)
    return AbelianGroup(free_rank=a.nrows - len(nonzero), torsion=torsion)


def snf_solve(snf: SmithForm, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of a @ x = b, given the Smith form of a, or
    None if there is none.  Factor a once to solve for many b."""
    if snf.u.ncols != len(b):
        raise ValueError("rhs length mismatch")
    c = snf.u.apply(b)
    diag = snf.diag
    y = [0] * snf.v.nrows
    for i, ci in enumerate(c):
        d = diag[i] if i < len(diag) else 0
        if d != 0:
            if ci % d != 0:
                return None
            y[i] = ci // d
        elif ci != 0:
            return None
    return snf.v.apply(y)


def solve_integer(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of a @ x = b, or None if there is none."""
    if a.nrows != len(b):
        raise ValueError("rhs length mismatch")
    return snf_solve(smith_normal_form(a), b)


def solve_integer_affine(
    a: IntMatrix, b: Sequence[int]
) -> tuple[tuple[int, ...], list[tuple[int, ...]]] | None:
    """Particular solution and a kernel basis of a @ x = b, or None."""
    if a.nrows != len(b):
        raise ValueError("rhs length mismatch")
    snf = smith_normal_form(a)
    x = snf_solve(snf, b)
    if x is None:
        return None
    # the kernel is spanned by the columns of v past the nonzero diagonal
    diag = snf.diag
    cols = snf.v.transpose().rows
    return x, [col for j, col in enumerate(cols) if j >= len(diag) or diag[j] == 0]
