"""Combinatorial model of a compact oriented page with boundary.

A page is described by declared data, each piece held once as a bare
mapping: an integral basis of its first homology with the intersection
form, its boundary circles (id -> pushoff class), a named curve
alphabet (name -> class), reference arcs from a basepoint boundary to
every other boundary (target id -> pairing row), and (for a real page)
an orientation-reversing involution with its fixed-point set, whose
fixed circles are bare classes.  What follows from these is derived,
not stored: the genus from 2g + b - 1 = rank H1 (SurfaceModel.genus),
a curve's crossings with the basis and with the reference arcs from its
class, the form and the arc rows (SurfaceModel.curve_vectors and
curve_tables), and the disjoint pairs that name a curve a stabilization
made, from that curve's birth (SurfaceModel.meeting_lists, the one
statement of the rule).

Every vector a page or a fixed set holds (a curve class, a pushoff
class, a reference-arc row, a fixed arc's pair_curves, a fixed circle's
class) is stored Sparse: its nonzero entries, flat, in increasing index
order.  So are the form J and the involution's matrix C, one Sparse row
per basis class (Rows).  So a vector or a row keeps its stored form when
the basis grows, and a stabilized page shares each vector and each row
its handle leaves alone with its parent; the book reader converts each
of JSON's dense rows once, as it checks it, and the writer renders each
row's text from its nonzeros (jsonio).  The monodromy's matrix F and
the products read off it (F C, C F C, F^-1) are sparse rows too
(mcg.word_matrix, sparse_combine).  A Smith system is handed over as
sparse rows too: intalg.factor expands them, the one place a system is
dense, and the relation rows of H1 go to intalg.cokernel, which factors
only the core its unit pivots leave.  Arc transport expands each
pairing row into its own buffer (mcg.transport_arcs); nothing dense is
kept on a page, an involution or a book.

Conventions fixed here once and used everywhere else:

* basis order is a1, b1, ..., ag, bg, d1, ..., d_{b-1} with <ai, bi> = +1;
* boundary-parallel classes are oriented as the boundary of the page, so
  they sum to zero and db = -(d1 + ... + d_{b-1});
* the reference arc to boundary i crosses the d_i curve once (+1) and
  the basepoint-parallel curve d_1 once (-1), and misses everything else.

Shared kernels and checks, each written once here and called by every
site that needs it: sparse and dense (the two forms of a vector),
sparse_add, sparse_scale, sparse_tail, sparse_dot and set_coord (on
sparse vectors),
sparse_combine, sparse_transpose and antisymmetric (on sparse rows,
the last the book reader's check of the form), sparse_column (one
column of sparse rows), image_holds (a curve image under a matrix,
read off the columns at the nonzeros of the curve's class), and
involution_check, anti_symplectic_check and lefschetz_check on sparse
rows, which validate_involution reports and heegaard.validate_heegaard
reads for both invariant pages.  validate_involution is the one
validation of a page and its involution (a stabilized book also runs
structural_checks alone), and failures words the failing checks of a
report.

The vector kernels are shaped by their callers: sparse_add
concatenates supports that lie apart and sums on a dict only where they
interleave, sparse_scale scales the value slice, and sparse_combine
sums over the nonzeros its rows reach, so each costs its nonzeros; a
stabilized page inherits its parent's CurveVectors.

Premise: the form J is antisymmetric.  The book reader refuses any
other ($.page.form must be antisymmetric), and the forms built by the
catalog (catalog._symplectic_block) and by stabilization
(stabilization._extend_form) are antisymmetric by construction, so
CurveVectors derives J a as -J^T a.

The standard pages and involutions the worked examples start from are
built in realbook.catalog, and a stabilized book is certified from its
parent in realbook.stabilization, so a process that only reads a book
compiles neither.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter, mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .records import factory, record, replace

if TYPE_CHECKING:
    from .openbook import StabType


Vec = tuple[int, ...]
# a vector at rest: its nonzero entries, flat, (i, x_i, j, x_j, ...) with
# increasing indices.  One tuple per vector, not one per entry, keeps a page
# small; the form is canonical, so == and hash compare vectors; and a
# vector keeps its form when the rank grows, so a stabilized page shares
# every vector its handle leaves alone with its parent.
Sparse = tuple[int, ...]
# a square matrix at rest (the form J, the involution's matrix C): one
# Sparse row per basis class
Rows = tuple[Sparse, ...]


_flat = chain.from_iterable
_value = itemgetter(1)


def sparse(v: Iterable[int], start: int = 0) -> Sparse:
    """The canonical sparse form of a dense vector: the (i, x_i) pairs of
    its nonzero entries, filtered and flattened without a Python-level
    loop, as the book reader converts every row of a file.  With start,
    the entries are indexed from start: the vector placed after start
    zeros."""
    return tuple(_flat(filter(_value, enumerate(v, start))))


def dense(v: Sparse, n: int) -> list[int]:
    """The dense vector of length n with the entries of a sparse one, as
    a fresh list."""
    out = [0] * n
    it = iter(v)
    for i in it:
        out[i] = next(it)
    return out


def entries(v: Sparse) -> Iterator[tuple[int, int]]:
    """The pairs (i, x_i) of a flat sparse vector."""
    it = iter(v)
    return zip(it, it)


def _canonical(acc: Mapping[int, int]) -> Sparse:
    return tuple(_flat(filter(_value, sorted(acc.items()))))


def sparse_add(x: Sparse, y: Sparse, c: int = 1) -> Sparse:
    """x + c y, both sparse, y possibly holding zero values (a solve's
    output does).  y empty or c = 0 gives x itself.  When the indices of
    y all lie after those of x, or all before, the sum is the
    concatenation of x and c y, y's zeros dropped; y with one entry
    inside x's range is placed by bisection; only other interleaved
    supports are summed on a dict."""
    if not (y and c):
        return x
    if x and y[0] <= x[-2] and y[-2] >= x[0]:
        if len(y) == 2:
            i, v = y
            if not v:
                return x
            idx = x[::2]
            k = bisect_left(idx, i)
            if k < len(idx) and idx[k] == i:
                s = x[2 * k + 1] + c * v
                return x[:2 * k + 1] + (s,) + x[2 * k + 2:] if s else x[:2 * k] + x[2 * k + 2:]
            return x[:2 * k] + (i, c * v) + x[2 * k:]
        acc = dict(entries(x))
        for i, v in entries(y):
            acc[i] = acc.get(i, 0) + c * v
        return _canonical(acc)
    before = x and y[-2] < x[0]
    if c != 1 or 0 in y[1::2]:
        y = tuple(_flat((i, c * v) for i, v in entries(y) if v))
    return y + x if before else x + y


def sparse_scale(c: int, x: Sparse) -> Sparse:
    """c x, sparse: x itself when c = 1, else its value slice scaled."""
    if c == 1:
        return x
    if not c:
        return ()
    out = list(x)
    out[1::2] = [v * c for v in x[1::2]]
    return tuple(out)


def sparse_tail(v: Sparse, n: int) -> Sparse:
    """The entries of v at indices n and up: a suffix of v, found from
    its end, so a v with none costs one comparison."""
    at = len(v)
    while at and v[at - 2] >= n:
        at -= 2
    return v[at:]


def sparse_dot(x: Sparse, y: Sparse) -> int:
    """x . y, both sparse."""
    ys = dict(entries(y))
    return sum(v * ys.get(i, 0) for i, v in entries(x))


def set_coord(v: Sparse, idx: int, value: int) -> Sparse:
    """v with entry idx set to value."""
    acc = dict(entries(v))
    acc[idx] = value
    return _canonical(acc)


def sparse_combine(v: Sparse, rows: Sequence[Sparse] | Mapping[int, Sparse]) -> Sparse:
    """v^T M for the square matrix M with the given sparse rows: the sum
    of v_i rows[i] over the nonzeros of v, each row read over its own
    nonzeros, accumulated over the nonzeros the rows reach only.  A v
    with one nonzero scales its row.  rows may be a mapping that holds
    the rows at the nonzeros of v only."""
    if len(v) == 2:
        return sparse_scale(v[1], rows[v[0]])
    acc: dict[int, int] = {}
    get = acc.get
    for i, x in entries(v):
        for j, y in entries(rows[i]):
            acc[j] = get(j, 0) + x * y
    return _canonical(acc)


def antisymmetric(rows: Sequence[Sparse]) -> bool:
    """Whether the square matrix with the given sparse rows is minus its
    transpose, row by row."""
    return sparse_transpose(rows) == tuple(sparse_scale(-1, r) for r in rows)


def sparse_transpose(rows: Sequence[Sparse]) -> Rows:
    """The sparse rows of the transpose of a square matrix given by its
    sparse rows, O(nnz)."""
    cols: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        it = iter(row)
        for j in it:
            cols[j].extend((i, next(it)))
    return tuple(map(tuple, cols))


def _shown(rows: Sequence[Sparse]) -> tuple[Vec, ...]:
    """A square matrix given by its sparse rows, as the dense rows a
    failure report shows."""
    n = len(rows)
    return tuple(tuple(dense(row, n)) for row in rows)


def vec_dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


def crossing_residuals(circles: Mapping[int, Sparse],
                       rows: Mapping[int, Sparse]) -> Iterator[tuple[int, list[int]]]:
    """The boundary crossing pattern of reference arcs, arc by arc.

    An arc from the basepoint (the least id) to boundary l crosses the
    pushoff of l once (+1), the basepoint pushoff once (-1) and no
    other.  For each (l, pairing row) of rows, in increasing l, yields
    l and that pattern minus row . pclass, per circle in increasing id:
    all zero when the row keeps the pattern.  An index from each
    coordinate to the circles whose class is nonzero there, with that
    entry, is built once, so each arc's residuals are summed over the
    nonzeros of its row, not dotted with every circle.
    """
    cids = sorted(circles)
    by_coord: dict[int, list[tuple[int, int]]] = {}
    for k, cid in enumerate(cids):
        for i, x in entries(circles[cid]):
            by_coord.setdefault(i, []).append((k, x))
    for l, row in sorted(rows.items()):
        residual = [1 if cid == l else (-1 if cid == cids[0] else 0) for cid in cids]
        for i, a in entries(row):
            for k, x in by_coord.get(i, ()):
                residual[k] -= a * x
        yield l, residual


@record
class FixArc:
    """Fixed arc of an involution, with declared crossing data.

    ``ends`` are (circle id, fixed point id) pairs.  ``pair_curves`` is
    the signed crossing vector against the basis curves, sparse;
    ``pair_arcs`` maps a boundary id to the signed crossing number with
    its reference arc.
    """

    ends: tuple[tuple[int, int], tuple[int, int]]
    pair_curves: Sparse
    pair_arcs: Mapping[int, int] = factory(dict)


@record
class FixedSet:
    """Fixed arcs, and fixed circles as their sparse classes: a circle's
    crossing data follows from its class."""

    arcs: tuple[FixArc, ...] = ()
    circles: tuple[Sparse, ...] = ()


@record
class Involution:
    """Orientation-reversing involution of a page, as declared data."""

    matrix: Rows                                  # C, one sparse row per basis class
    boundary_perm: Mapping[int, int]
    fixed_points: Mapping[int, tuple[int, int]]   # circle id -> its two fixed point ids
    fixed_set: FixedSet
    curve_image: Mapping[str, tuple[str, int]]    # partial: name -> (name, sign)


@record
class SurfaceModel:
    """A page, stored as its independent data only: a boundary circle is
    its id -> pushoff class entry (in stored order), a curve its name ->
    class entry, the genus follows from 2g + b - 1 = rank H1, and a
    reference arc is its pairing row (entry j its crossing number with
    the j-th basis curve), as its transport defect starts at zero
    (mcg.transport_arcs).  Every class and row is Sparse, the rows of
    the form J too.  Frozen: the
    per-curve vectors of curve_vectors are cached on the instance,
    outside the fields, so they take no part in ==, repr or JSON, and a
    page made with records.replace starts without them.

    Disjointness is stored as the rule the construction obeys, not as
    pairs.  disjoint holds the root's declared pairs only, among curves
    no stabilization made; a stabilized page shares its parent's object.
    births maps each curve a stabilization made to (step, type): its
    type's flags (openbook.STAB_TYPES) pair it with every curve born
    before its step (root curves included) and with the curves of its
    own step.  meeting_lists states the rule, giving the curves each of
    a set of curves meets, step by step; disjoint_pairs lists every pair
    it leaves out once, and with_births sets the births."""

    circles: Mapping[int, Sparse]        # boundary id -> pushoff class
    basis: tuple[str, ...]
    form: Rows                           # intersection form J, row by row
    alphabet: Mapping[str, Sparse]       # curve name -> class
    ref_arcs: Mapping[int, Sparse]       # target boundary id -> pairing row
    disjoint: frozenset[frozenset[str]] = frozenset()   # the root's pairs
    births: Mapping[str, tuple[int, StabType]] = factory(dict)

    @property
    def boundary_count(self) -> int:
        return len(self.circles)

    @property
    def h1_rank(self) -> int:
        return len(self.basis)

    @property
    def genus(self) -> int:
        return (self.h1_rank - self.boundary_count + 1) // 2

    @property
    def euler(self) -> int:
        """2 - 2g - b, which is 1 - rank H1."""
        return 1 - self.h1_rank

    @property
    def basepoint(self) -> int:
        return min(self.circles)

    def curve(self, name: str) -> Sparse:
        try:
            return self.alphabet[name]
        except KeyError:
            raise KeyError(f"unknown curve {name!r}") from None

    def with_births(self, births: Mapping[str, tuple[int, StabType]],
                    pairs: Iterable[Iterable[str]]) -> SurfaceModel:
        """The page with these births, and as its root pairs the given
        pairs that name no born curve."""
        born = births.keys()
        return replace(self, births=births, disjoint=frozenset(
            frozenset(pair) for pair in pairs if born.isdisjoint(pair)))

    def disjoint_pairs(self) -> Iterator[tuple[str, str]]:
        """Every pair the page holds disjoint, once each: the pairs that
        meeting_lists does not list, over the alphabet, the born names
        and the names the root pairs use, so that a pair naming a curve
        the alphabet lacks still reaches validate_page."""
        names = list(dict.fromkeys(chain(self.alphabet, self.births, *self.disjoint)))
        meets = self.meeting_lists(names)
        for i, a in enumerate(names):
            met = set(meets[a])
            for b in names[:i]:
                if b not in met:
                    yield b, a

    def meeting_lists(self, names: Iterable[str]) -> dict[str, list[str]]:
        """For each of the given curve names, the others among them that
        the page does not hold disjoint: the rule of the page's
        disjointness, stated here only.  It is derived from births step
        by step (birth_steps), not pair by pair: names no
        stabilization made pair by the root's declared pairs; a name
        born at a step meets every name from before the step, unless its
        type's disjoint_old holds, when it meets only the names the page
        lacks; and it meets the other names of its step unless
        disjoint_mutual holds.  On a page whose every step has both
        flags, the lists cost what the names and their root pairs cost."""
        out: dict[str, list[str]] = {name: [] for name in names}

        def meet(a: str, b: str) -> None:
            out[a].append(b)
            out[b].append(a)

        before = [name for name in out if name not in self.births]
        for i, a in enumerate(before):
            for b in before[:i]:
                if frozenset((a, b)) not in self.disjoint:
                    meet(a, b)
        unknown = [name for name in before if name not in self.alphabet]
        for st, step_names in self.birth_steps():
            group = [name for name in step_names if name in out]
            for i, a in enumerate(group):
                for b in (unknown if st.disjoint_old else before):
                    meet(a, b)
                if not st.disjoint_mutual:
                    for b in group[:i]:
                        meet(a, b)
            before = before + group
        return out

    def birth_steps(self) -> list[tuple[StabType, list[str]]]:
        """The curves each step made, in step order: (type, names) per
        step, the names in stored order."""
        born = self.births
        return [(st, list(names)) for (_step, st), names
                in groupby(sorted(born, key=lambda n: born[n][0]), key=born.get)]

    @cached_property
    def _curve_vectors(self) -> dict[str, CurveVectors]:
        return {}

    def curve_vectors(self, name: str) -> CurveVectors:
        """The sparse vectors of a curve's class, computed on first use and
        kept for the life of the page."""
        vecs = self._curve_vectors.get(name)
        if vecs is None:
            a = self.curve(name)
            if a and a[-2] >= self.h1_rank:
                raise ValueError(f"class of curve {name!r} has entry {a[-2]}, "
                                 f"past the rank {self.h1_rank}")
            vecs = self._curve_vectors[name] = CurveVectors(a, self.form)
        return vecs

    def inherit_curve_vectors(self, parent: SurfaceModel) -> None:
        """Seed the cache with the parent's vectors of every curve whose
        class is still the parent's object (CurveVectors.widened).

        Premise: the page extends the parent by classes at the indices
        from the parent's rank n on, each of the first n rows of its
        form is the parent's row followed by its entries at the new
        indices, and each new row is minus its column, as a
        stabilization builds it (stabilization._extend_form).  So the
        tail of old row u is read off the new rows, minus their entries
        at u, without a scan of the old rows; a curve whose class meets
        no tail keeps the parent's vectors object.  The parent's
        vectors are taken as they are, no reference to the parent page
        is kept."""
        n = parent.h1_rank
        tails: dict[int, Sparse] = {}
        for t, row in enumerate(self.form[n:], n):
            for u, x in entries(row):
                if u >= n:
                    break
                tails[u] = tails.get(u, ()) + (t, -x)
        alphabet = self.alphabet
        kept = [(name, vecs) for name, vecs in vars(parent).get("_curve_vectors", {}).items()
                if alphabet.get(name) is vecs.a]
        if tails:
            kept = [(name, vecs if tails.keys().isdisjoint(vecs.a[::2]) else vecs.widened(
                        sparse_combine(tuple(_flat((i, x) for i, x in entries(vecs.a)
                                                   if i in tails)), tails)))
                    for name, vecs in kept]
        self._curve_vectors.update(kept)

    def curve_tables(self, name: str) -> tuple[Vec, Vec]:
        """A curve's crossing tables: J a (<x_j, a> for each basis class)
        and its crossing with each reference arc, in sorted boundary order."""
        vecs = self.curve_vectors(name)
        arc_pairings = [sparse_dot(row, vecs.a) for _cid, row in sorted(self.ref_arcs.items())]
        return tuple(dense(vecs.ja, self.h1_rank)), tuple(arc_pairings)


class CurveVectors:
    """Sparse a, J a and J^T a for the class a of one curve on a page,
    and at, the index of a (i -> a_i); a is the page's stored class
    itself.

    A twist along the curve acts by x -> x + e <x, a> a with
    <x, a> = x . (J a), and moves a pairing row by multiples of
    <a, x> = (J^T a) . x.  J^T a combines the sparse rows of J at the
    nonzeros of a, and J a = -J^T a, as J is antisymmetric (the premise
    in the module docstring).

    A stabilized page inherits the vectors of the curves its handle
    leaves alone (SurfaceModel.inherit_curve_vectors): with J' the
    widened form, J'^T a is J^T a followed by the sum of a_i times the
    tail of row i of J' at the new indices, which all come after the
    old ones, so the sparse vectors are concatenations (widened).
    """

    __slots__ = ("a", "at", "ja", "jta")

    def __init__(self, a: Sparse, form: Rows):
        self.a = a
        self.at = dict(entries(a))
        self.jta = sparse_combine(a, form)
        self.ja = sparse_scale(-1, self.jta)

    def widened(self, tail: Sparse) -> CurveVectors:
        """The vectors of the same class on a page whose J^T a gains
        tail past the old rank: self when tail is empty."""
        if not tail:
            return self
        out = object.__new__(CurveVectors)
        out.a, out.at = self.a, self.at
        out.jta = self.jta + tail
        out.ja = self.ja + sparse_scale(-1, tail)
        return out


@record
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def failures(report: Iterable[CheckResult]) -> str:
    """The failing checks of a report, as name: detail; ..."""
    return "; ".join(f"{r.name}: {r.detail}" for r in report if not r.ok)


def involution_check(c: Rows, rank: int) -> CheckResult:
    """C^2 = I on sparse rows: row i of C^2 combines the rows of C at
    the nonzeros of row i, and must be e_i.  A failure reports C^2,
    expanded only for its text."""
    ok = not rank or (len(c) == rank and all(
        sparse_combine(r, c) == (i, 1) for i, r in enumerate(c)))
    if ok:
        return CheckResult("involution", True)
    return CheckResult("involution", False, f"C^2 = {_shown([sparse_combine(r, c) for r in c])}")


def anti_symplectic_check(c: Rows, j: Rows, rank: int, involution: bool) -> CheckResult:
    """C^T J C = -J on sparse rows, with one product and one transpose
    where the premise allows.

    Lemma: when C^2 = I and J is antisymmetric, C^T J C = -J exactly
    when K = C^T J is symmetric.  Multiplying by C on the right, which
    C^2 = I makes invertible, C^T J C = -J holds exactly when
    C^T J = -J C, and K^T = J^T C = -J C.  So given C^2 = I
    (involution) and J = -J^T, checked here, the check compares K with
    its transpose; otherwise the full product C^T J C is compared
    with -J.  Row i of K combines the rows of J at the nonzeros of
    column i of C.  A failure reports C^T J C (J at rank 0), expanded
    only for its text."""
    ctj = [sparse_combine(col, j) for col in sparse_transpose(c)]
    if rank and involution and len(j) == rank and antisymmetric(j):
        ok = sparse_transpose(ctj) == tuple(ctj)
    else:
        ok = [sparse_combine(r, c) for r in ctj] == [sparse_scale(-1, r) for r in j]
    if ok:
        return CheckResult("anti_symplectic", True)
    full = [sparse_combine(r, c) for r in ctj] if rank else j
    return CheckResult("anti_symplectic", False, f"C^T J C = {_shown(full)}")


def lefschetz_check(arc_count: int, c: Rows, rank: int) -> CheckResult:
    """The Lefschetz count of an involution of a page: arc_count fixed
    arcs, and 1 - tr C of them, the trace read off the sparse rows."""
    trace = 0
    for i, r in enumerate(c):
        at = r[::2]                 # the row's indices
        if i in at:
            trace += r[2 * at.index(i) + 1]
    lef = 1 - (trace if rank else 0)
    ok = arc_count == lef
    return CheckResult("lefschetz", ok, "" if ok else f"{arc_count} arcs vs 1 - tr = {lef}")


def sparse_column(rows: Sequence[Sparse], i: int) -> Sparse:
    """Column i of the matrix with the given sparse rows: entry i of
    each row whose indices span i, found by bisection of its indices,
    with no transpose of the rest."""
    out: list[int] = []
    for u, r in enumerate(rows):
        if r and r[0] <= i <= r[-2]:
            idx = r[::2]
            k = bisect_left(idx, i)
            if idx[k] == i:
                out += (u, r[2 * k + 1])
    return tuple(out)


def image_holds(model: SurfaceModel, column: Callable[[int], Sparse], name: str,
                img: str, s: int) -> bool:
    """Whether a matrix maps the class of curve name to s times the
    class of curve img: s * sum_i x_i column(i) over the nonzeros x_i of
    the sparse class of name (sparse_combine over those columns), so
    only those columns are read, not a dense apply.  column(i) is column
    i of the matrix, sparse: read off
    its rows (sparse_column) where a few images are checked, or off its
    transpose where every curve's is.  A curve the page lacks fails."""
    if name not in model.alphabet or img not in model.alphabet:
        return False
    a = model.curve(name)
    return model.curve(img) == sparse_scale(s, sparse_combine(a, {i: column(i) for i in a[::2]}))


def validate_involution(model: SurfaceModel, inv: Involution) -> list[CheckResult]:
    """Check every declared invariant; reports failures, never raises.

    The checks run over nonzeros: involution_check, anti_symplectic_check
    and lefschetz_check on the sparse rows of C and J, image_holds per
    curve image on the sparse columns of C, and a boundary class
    p is radical when J p = sum_i p_i col_i(J), combined from the sparse
    columns of J over the nonzeros of p, vanishes.  A failing check
    expands its product only to report it.
    """
    c = inv.matrix
    j = model.form
    rank = model.h1_rank
    involution = involution_check(c, rank)
    out = [involution, anti_symplectic_check(c, j, rank, involution.ok)]
    out += structural_checks(model, inv)

    ok, detail = True, ""
    c_col = sparse_transpose(c).__getitem__
    for name, (img, s) in inv.curve_image.items():
        if name not in model.alphabet or img not in model.alphabet:
            ok, detail = False, f"image map mentions unknown curve {name!r} -> {img!r}"
            break
        if not image_holds(model, c_col, name, img, s):
            ok, detail = False, f"curve_image({name}) class mismatch"
            break
    out.append(CheckResult("curve_image", ok, detail))

    ok, detail = True, ""
    total: dict[int, int] = {}
    j_cols = sparse_transpose(j)
    for cid, p in model.circles.items():
        for i, x in entries(p):
            total[i] = total.get(i, 0) + x
        if sparse_combine(p, j_cols):
            ok, detail = False, f"boundary class of circle {cid} is not radical"
    if rank and any(total.values()):
        ok, detail = False, "boundary classes do not sum to zero"
    out.append(CheckResult("boundary_classes", ok, detail))

    return out


def structural_checks(model: SurfaceModel, inv: Involution) -> list[CheckResult]:
    """boundary_perm, boundary_tags, lefschetz and arc_endpoints: the
    checks of validate_involution that read the boundary and fixed-set
    data, not the algebra."""
    out: list[CheckResult] = []
    perm = dict(inv.boundary_perm)
    ok = all(perm.get(perm.get(i, None), None) == i for i in perm)
    ids = set(model.circles)
    ok = ok and set(perm) == ids
    out.append(CheckResult("boundary_perm", ok, "" if ok else f"perm = {perm}"))

    ok = True
    detail = ""
    for cid in ids:
        if perm.get(cid) == cid:
            if len(inv.fixed_points.get(cid, ())) != 2:
                ok, detail = False, f"reflection circle {cid} lacks two fixed points"
        else:
            if cid in inv.fixed_points:
                ok, detail = False, f"swapped circle {cid} carries fixed points"
    out.append(CheckResult("boundary_tags", ok, detail))

    arcs = inv.fixed_set.arcs
    out.append(lefschetz_check(len(arcs), inv.matrix, model.h1_rank))
    out.append(arc_endpoints_check(inv.fixed_points, arcs))
    return out


def arc_endpoints_check(fixed_points: Mapping[int, tuple[int, int]],
                        arcs: Sequence[FixArc]) -> CheckResult:
    """Each declared fixed point is used by exactly one end of the arcs:
    the fixed arcs of either page end on the binding's fixed points."""
    declared = sorted({(cid, p) for cid, pts in fixed_points.items() for p in pts})
    used = sorted(e for a in arcs for e in a.ends)
    ok = used == declared
    return CheckResult("arc_endpoints", ok, "" if ok else f"used {used} vs declared {declared}")


def validate_page(model: SurfaceModel) -> list[CheckResult]:
    """Check the page's declared data against its form; reports
    failures, never raises.

    disjoint: every pair the page holds disjoint (disjoint_pairs: the
    pairs meeting_lists leaves out) has algebraic
    intersection <a, b> = a . J b = 0 (sparse_dot).  Word equality commutes the twists of such a
    pair on the page's word alone, and twists along curves that meet do
    not commute, so a pair that meets algebraically would let a word
    certificate pass on a book that is not real.  On a born pair it
    checks the stored classes against the construction.
    """
    ok, detail = True, ""
    for a, b in sorted(sorted(p) for p in model.disjoint_pairs()):
        if a not in model.alphabet or b not in model.alphabet:
            ok, detail = False, f"disjoint pair ({a}, {b}) names an unknown curve"
            break
        meet = sparse_dot(model.curve_vectors(a).a, model.curve_vectors(b).ja)
        if meet:
            ok, detail = False, f"disjoint pair ({a}, {b}) has <{a}, {b}> = {meet}"
            break
    return [CheckResult("disjoint", ok, detail)]
