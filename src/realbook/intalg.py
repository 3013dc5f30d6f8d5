"""Exact integer linear algebra: matrices, Smith normal form, cokernels.

Everything here works over Python ints, so entry blow-up during Smith
reduction is harmless.  Intended scale is small (page ranks up to about
32, relation matrices up to about 60x60).

An integer system has one entry point, factor(rows, ncols): it takes
sparse rows (surface.Sparse), expands them itself and factors them
once, so how a system is stored is this module's decision.  The
SmithForm it returns keeps D as its diagonal and shape, solves A x = b
(solve, for as many b as a caller has) and spans the kernel (kernel, a
lazy basis in column order).  The Smith form uses the smallest-entry
pivot rule, with no modular or HNF shortcut, and its updates touch only
nonzeros of the working matrix.  Its transforms are logged as the row
and column operations run, not built as matrices (Kannan & Bachem,
1979, compute the form with its transforms): a right-hand side is
solved by replaying the row log on it and the column log backwards on
the result, and a kernel vector is the column log replayed on a unit
vector.  The pivots and operations
are the full-scan rule's, in its order, so the form, its transforms,
every solution and every kernel vector are the same entry for entry.
cokernel takes sparse rows and eliminates their unit entries on dict
rows first, the usual way to keep a sparse integer Smith form sparse
(Dumas, Saunders & Villard, 2001), and reads only the diagonal of the
form of the core that is left.

IntMatrix is the dense matrix smith_normal_form takes.  No realbook
path forms a dense product (mcg applies each twist as a rank-one update
of sparse rows); the product stays as the tests' reference, timed by the
benchmark's tracer by name.  It costs one multiply per pair of nonzeros
that meet: a row of the right factor is listed once as (j, x) pairs,
when a nonzero of the left factor first reaches it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

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
    def _lent(rows: list[list[int]], ncols: int) -> "IntMatrix":
        """Wrap the rows factor has just expanded, each list kept as it
        is, not copied: the matrix lives only as smith_normal_form's
        argument, which copies the rows it reduces and mutates none of
        these."""
        m = object.__new__(IntMatrix)
        m.rows = tuple(rows)
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

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
        return IntMatrix(out, n)


@record
class SmithForm:
    """U @ A @ V = D with U, V unimodular and D in Smith normal form.
    D is kept as its diagonal and its shape, (rows, columns) of A,
    which determine it: every other entry is zero.  U and V are kept as
    the logs of the row and column operations that made them, in order:
    (i, t, q) adds q times row (column) t to row (column) i, (i, t,
    None) swaps them, and (t, t, -2) negates row t.  Neither is built
    as a matrix: solve and kernel replay the logs on vectors."""

    diag: tuple[int, ...]
    shape: tuple[int, int]
    row_ops: tuple[tuple[int, int, int | None], ...]
    col_ops: tuple[tuple[int, int, int | None], ...]

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One integer solution x of A x = b, or None if there is none:
        x = V y for D y = U b, with U b and V y replayed from the logs."""
        m, n = self.shape
        if m != len(b):
            raise ValueError("rhs length mismatch")
        # U b: the row log replayed on b, in order, skipping additions
        # from a zero entry
        c = list(b)
        for i, t, q in self.row_ops:
            if q is None:
                c[i], c[t] = c[t], c[i]
            elif c[t]:
                c[i] += q * c[t]
        diag = self.diag
        y = [0] * n
        for i, ci in enumerate(c):
            d = diag[i] if i < len(diag) else 0
            if d != 0:
                if ci % d != 0:
                    return None
                y[i] = ci // d
            elif ci != 0:
                return None
        return self._times_v(y)

    def kernel(self) -> Iterator[tuple[int, ...]]:
        """A basis of the kernel of A: the columns of V past the nonzero
        diagonal, in column order, each the column log replayed on a unit
        vector.  The basis is a lazy generator, so a caller that reads a
        few generators replays the log only for those."""
        diag, n = self.diag, self.shape[1]
        return (self._times_v([int(i == j) for i in range(n)])
                for j in range(n) if j >= len(diag) or diag[j] == 0)

    def _times_v(self, y: Sequence[int]) -> tuple[int, ...]:
        """V y: the column log replayed backwards on y, as its first
        operation is V's outermost factor.  Adding q times column t to
        column i adds q y_i to y_t; an addition from zero is skipped."""
        y = list(y)
        for i, t, q in reversed(self.col_ops):
            if q is None:
                y[i], y[t] = y[t], y[i]
            elif y[i]:
                y[t] += q * y[i]
        return tuple(y)


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


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Smith normal form, with its transforms as logs of eliminations.

    Pivoting rule: smallest nonzero absolute value in the working
    submatrix, ties broken row-major.  Deterministic, and keeps entry
    growth tolerable at this scale.  The scan stops at the first unit
    entry, which is the pivot the full scan would pick, and a unit pivot
    needs no divisibility sweep.

    Every update touches only nonzeros, and the pivots and the row and
    column operations are those of the full-scan rule, in its order, so
    D and the transforms the logs give equal its own entry for entry.
    Each pass that clears column t lists the nonzeros of the pivot row
    from column t on, once, and adds multiples of them to the rows with
    an entry in column t.  Once column t is clear below the pivot, and
    every row above t is zero from column t on (each earlier step ends
    with its row and column clear but for the pivot), a column operation
    that clears row t changes only the pivot row of the working matrix:
    its entry becomes a remainder by the pivot.  Each operation is logged
    (SmithForm) and none is applied to a transform, so cokernel, which
    reads the diagonal only, pays nothing for them.  The working matrix
    ends diagonal, so the form keeps its diagonal and shape only.  a
    itself is left as it is: its rows are copied once, into the working
    matrix.
    """
    m, n = a.shape
    mat = list(map(list, a.rows))
    row_ops: list[tuple[int, int, int | None]] = []
    col_ops: list[tuple[int, int, int | None]] = []

    def swap_rows(i, j):
        mat[i], mat[j] = mat[j], mat[i]
        row_ops.append((i, j, None))

    def swap_cols(t, j):
        # rows above t are zero in both columns
        for r in range(t, m):
            row = mat[r]
            row[t], row[j] = row[j], row[t]
        col_ops.append((t, j, None))

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
                for i in below:
                    q = -(mat[i][t] // p)
                    row = mat[i]
                    for j, x in pnz:
                        row[j] += q * x
                    row_ops.append((i, t, q))
                dirty = [i for i in below if mat[i][t]]
                if dirty:
                    swap_rows(t, min(dirty, key=lambda k: abs(mat[k][t])))
                    continue
            right = [j for j in range(t + 1, n) if top[j]]
            if right:
                for j in right:
                    q = -(top[j] // p)
                    top[j] += q * p
                    col_ops.append((j, t, q))
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
            row_ops.append((t, offender, 1))
        if mat[t][t] < 0:
            # row t is zero but for the pivot
            mat[t][t] = -mat[t][t]
            row_ops.append((t, t, -2))
        t += 1

    return SmithForm(diag=tuple(mat[i][i] for i in range(size)), shape=(m, n),
                     row_ops=tuple(row_ops), col_ops=tuple(col_ops))


def factor(rows: Sequence[Sequence[int]], ncols: int) -> SmithForm:
    """The Smith form of the matrix with the given sparse rows, ncols
    wide, each row its nonzero entries, flat, (j, a_j, k, a_k, ...).
    The rows are expanded here, the one place a system is dense, each
    once, into the list the matrix wraps (IntMatrix._lent), so the
    working copy smith_normal_form makes is the only other one; the
    matrix is passed to this module's smith_normal_form as looked up on
    each call, so a wrapper set on it (as the benchmark's tracer sets
    one, reading its shape) sees every factorization."""
    expanded = []
    for row in rows:
        out = [0] * ncols
        it = iter(row)
        for j in it:
            out[j] = next(it)
        expanded.append(out)
    return smith_normal_form(IntMatrix._lent(expanded, ncols))


def cokernel(rows: Sequence[Sequence[int]]) -> AbelianGroup:
    """Z^len(rows) modulo the column span of the matrix with these rows,
    in canonical form.  Each row is sparse, its nonzero entries flat,
    (j, a_j, k, a_k, ...), as surface.Sparse stores a vector; a column
    no row reaches relates nothing, so no width is needed.

    Unit pivots first, on dict rows with an index from each column to
    the rows that reach it.  Lemma: if a_ij = +-1, the relation of
    column j solves generator i in terms of the others.  Subtracting
    a_ij a_il times column j from each other column l clears row i but
    for a_ij, and changes no span; then e_i is a sum of the other
    generators modulo the relations, and dropping row i and column j
    leaves the quotient unchanged: a unit pivot removes one generator
    and one relation.  Each pivot takes, in its row, the unit whose
    column reaches the fewest rows, so an update touches few rows.
    What is left has no unit entry, and only that core, its zero rows
    and columns dropped, goes to factor as sparse rows, and only the
    diagonal of its form is read.
    """
    mat: dict[int, dict[int, int]] = {}
    index: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        if row:
            it = iter(row)
            mat[i] = entry = dict(zip(it, it))
            for j in entry:
                index.setdefault(j, set()).add(i)
    units = 0
    todo = list(mat)
    while todo:
        i = todo.pop()
        row = mat.get(i)
        if row is None:
            continue
        pcol = None
        for j, x in row.items():
            if (x == 1 or x == -1) and (pcol is None or len(index[j]) < len(index[pcol])):
                pcol = j
        if pcol is None:
            continue
        units += 1
        del mat[i]
        for j in row:
            index[j].discard(i)
        p = row.pop(pcol)
        # column l -= a_ij a_il column j, on the rows column j reaches
        scaled = [(j, p * x) for j, x in row.items()]
        for k in index.pop(pcol):
            other = mat[k]
            a = other.pop(pcol)
            for j, q in scaled:
                if j in other:
                    x = other[j] - q * a
                    if x:
                        other[j] = x
                    else:
                        del other[j]
                        index[j].discard(k)
                else:
                    other[j] = -q * a
                    index[j].add(k)
            if other:
                todo.append(k)
            else:
                del mat[k]
    nonzero: list[int] = []
    if mat:
        cols = sorted(j for j, reach in index.items() if reach)
        at = {j: k for k, j in enumerate(cols)}
        core = [tuple(chain.from_iterable(sorted((at[j], x) for j, x in row.items())))
                for _i, row in sorted(mat.items())]
        nonzero = [d for d in factor(core, len(cols)).diag if d]
    torsion = tuple(d for d in nonzero if d >= 2)
    return AbelianGroup(free_rank=len(rows) - units - len(nonzero), torsion=torsion)
