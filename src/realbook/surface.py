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
made, from that curve's birth (SurfaceModel.curves_disjoint).

Conventions fixed here once and used everywhere else:

* basis order is a1, b1, ..., ag, bg, d1, ..., d_{b-1} with <ai, bi> = +1;
* boundary-parallel classes are oriented as the boundary of the page, so
  they sum to zero and db = -(d1 + ... + d_{b-1});
* the reference arc to boundary i crosses the d_i curve once (+1) and
  the basepoint-parallel curve d_1 once (-1), and misses everything else.

Shared kernels and checks, each written once here and called by every
site that needs it: unit (a basis vector), combine (a sparse
combination of rows), image_holds (a curve image under a matrix given
by its columns), and involution_check, anti_symplectic_check and
lefschetz_check, which validate_involution reports and
heegaard.validate_heegaard reads for both invariant pages.

Premise: the form J is antisymmetric.  The book reader refuses any
other ($.page.form must be antisymmetric), and the forms built here
(_symplectic_block) and by stabilization (stabilization._extend_form) are
antisymmetric by construction, so CurveVectors derives J a as -J^T a.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, groupby, product
from operator import add, mul
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .intalg import IntMatrix
from .records import factory, record

if TYPE_CHECKING:
    from .openbook import StabType


Vec = tuple[int, ...]
# the nonzero entries of a vector, flat: (i, x_i, j, x_j, ...); one tuple per
# vector, not one per entry, keeps the per-page curve cache small
Sparse = tuple[int, ...]


def _vec(x: Sequence[int]) -> Vec:
    return tuple(int(v) for v in x)


def vec_add(x: Sequence[int], y: Sequence[int]) -> Vec:
    return tuple(map(add, x, y))


def vec_scale(c: int, x: Sequence[int]) -> Vec:
    return tuple(c * a for a in x)


def vec_dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


def _sparse(v: Sequence[int]) -> Sparse:
    return tuple(chain.from_iterable((i, x) for i, x in enumerate(v) if x))


def entries(v: Sparse) -> Iterator[tuple[int, int]]:
    """The pairs (i, x_i) of a flat sparse vector."""
    it = iter(v)
    return zip(it, it)


def unit(rank: int, idx: int) -> Vec:
    """The basis vector e_idx of length rank."""
    return tuple(1 if i == idx else 0 for i in range(rank))


def combine(pairs: Iterable[tuple[int, int]], rows: Sequence[Sequence[int]], n: int) -> list[int]:
    """The sum of x * rows[i] over the pairs (i, x), a list of length n.
    The sum starts from its first term, so only an empty sum builds a
    list of zeros."""
    acc = None
    for i, x in pairs:
        row = rows[i]
        acc = [x * y for y in row] if acc is None else [s + x * y for s, y in zip(acc, row)]
    return [0] * n if acc is None else acc


def crossing_residuals(circles: Mapping[int, Sequence[int]],
                       rows: Mapping[int, Sequence[int]]) -> Iterator[tuple[int, list[int]]]:
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
        for i, x in enumerate(circles[cid]):
            if x:
                by_coord.setdefault(i, []).append((k, x))
    for l, row in sorted(rows.items()):
        residual = [1 if cid == l else (-1 if cid == cids[0] else 0) for cid in cids]
        for i, a in enumerate(row):
            if a:
                for k, x in by_coord.get(i, ()):
                    residual[k] -= a * x
        yield l, residual


@record
class FixArc:
    """Fixed arc of an involution, with declared crossing data.

    ``ends`` are (circle id, fixed point id) pairs.  ``pair_curves`` is
    the signed crossing vector against the basis curves; ``pair_arcs``
    maps a boundary id to the signed crossing number with its reference
    arc.
    """

    ends: tuple[tuple[int, int], tuple[int, int]]
    pair_curves: Vec
    pair_arcs: Mapping[int, int] = factory(dict)


@record
class FixedSet:
    """Fixed arcs, and fixed circles as their classes: a circle's
    crossing data follows from its class."""

    arcs: tuple[FixArc, ...] = ()
    circles: tuple[Vec, ...] = ()


@record
class Involution:
    """Orientation-reversing involution of a page, as declared data."""

    matrix: IntMatrix
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
    (mcg.transport_arcs).  Frozen: the
    per-curve vectors of curve_vectors are cached on the instance,
    outside the fields, so they take no part in ==, repr or JSON, and a
    page made with records.replace starts without them.

    Disjointness is stored as the rule the construction obeys, not as
    pairs.  disjoint holds the root's declared pairs only, among curves
    no stabilization made; a stabilized page shares its parent's object.
    births maps each curve a stabilization made to (step, type): its
    type's flags (openbook.STAB_TYPES) pair it with every curve born
    before its step (root curves included) and with the curves of its
    own step.  curves_disjoint answers from these two, and
    disjoint_pairs lists every pair once."""

    circles: Mapping[int, Vec]           # boundary id -> pushoff class
    basis: tuple[str, ...]
    form: IntMatrix                      # intersection form J on the basis
    alphabet: Mapping[str, Vec]          # curve name -> class
    ref_arcs: Mapping[int, Vec]          # target boundary id -> pairing row
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

    def curve(self, name: str) -> Vec:
        try:
            return self.alphabet[name]
        except KeyError:
            raise KeyError(f"unknown curve {name!r}") from None

    def pairing(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Intersection pairing <x, y> = x^T J y of two classes."""
        return vec_dot(x, self.form.apply(y))

    def curves_disjoint(self, a: str, b: str) -> bool:
        """Whether the page holds curves a and b disjoint: a root pair when
        neither was born (the only case that builds a frozenset), else the
        rule of the later-born one's type."""
        born = self.births
        ba, bb = born.get(a), born.get(b)
        if ba is None and bb is None:
            return a != b and frozenset((a, b)) in self.disjoint
        if ba is None or bb is not None and bb[0] > ba[0]:
            a, b, ba, bb = b, a, bb, ba
        # a was born, at a step no earlier than b's
        step, st = ba
        if bb is None:
            return st.disjoint_old and b in self.alphabet
        if bb[0] == step:
            return st.disjoint_mutual and a != b
        return st.disjoint_old

    def disjoint_pairs(self) -> Iterator[tuple[str, ...]]:
        """Every pair the page holds disjoint, once each: the root's pairs
        that name no born curve, then born_pairs."""
        born = self.births
        for pair in self.disjoint:
            if born.keys().isdisjoint(pair):
                yield tuple(pair)
        yield from self.born_pairs()

    def born_pairs(self) -> Iterator[tuple[str, str]]:
        """The pairs the rule gives, step by step: (u, n) for each curve n
        born at the step and each curve u from before it, when the type's
        disjoint_old holds, and the step's own pairs when disjoint_mutual
        does."""
        born = self.births
        before = [name for name in self.alphabet if name not in born]
        for (_step, st), names in groupby(sorted(born, key=lambda n: born[n][0]), key=born.get):
            names = list(names)
            if st.disjoint_old:
                yield from product(before, names)
            if st.disjoint_mutual:
                yield from combinations(names, 2)
            before += names

    @cached_property
    def _curve_vectors(self) -> dict[str, CurveVectors]:
        return {}

    def curve_vectors(self, name: str) -> CurveVectors:
        """The sparse vectors of a curve's class, computed on first use and
        kept for the life of the page."""
        vecs = self._curve_vectors.get(name)
        if vecs is None:
            a = self.curve(name)
            if len(a) != self.h1_rank:
                raise ValueError(f"class of curve {name!r} has length {len(a)}, not {self.h1_rank}")
            vecs = self._curve_vectors[name] = CurveVectors(a, self.form.rows)
        return vecs

    def curve_tables(self, name: str) -> tuple[Vec, Vec]:
        """A curve's crossing tables: J a (<x_j, a> for each basis class)
        and its crossing with each reference arc, in sorted boundary order."""
        vecs = self.curve_vectors(name)
        pairings = [0] * self.h1_rank
        for i, x in entries(vecs.ja):
            pairings[i] = x
        rows = [row for _cid, row in sorted(self.ref_arcs.items())]
        arc_pairings = [0] * len(rows)
        for i, x in entries(vecs.a):
            arc_pairings = [s + row[i] * x for s, row in zip(arc_pairings, rows)]
        return tuple(pairings), tuple(arc_pairings)


class CurveVectors:
    """Sparse a, J a and J^T a for the class a of one curve on a page.

    A twist along the curve acts by x -> x + e <x, a> a with
    <x, a> = x . (J a), and moves a pairing row by multiples of
    <a, x> = (J^T a) . x.  J^T a combines the rows of J at the nonzeros
    of a, and J a = -J^T a, as J is antisymmetric (the premise in the
    module docstring).
    """

    __slots__ = ("a", "ja", "jta")

    def __init__(self, a: Vec, form: Sequence[Sequence[int]]):
        self.a = _sparse(a)
        jta = combine(entries(self.a), form, len(form))
        self.jta = _sparse(jta)
        self.ja = _sparse([-x for x in jta])


def _symplectic_block(g: int, extra: int) -> IntMatrix:
    n = 2 * g + extra
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[2 * i][2 * i + 1] = 1
        rows[2 * i + 1][2 * i] = -1
    return IntMatrix(rows, ncols=n)


def standard_surface(g: int, b: int) -> SurfaceModel:
    """Standard page of genus g with b boundary circles.

    Basis: symplectic pairs (a_i, b_i) with <a_i, b_i> = +1 followed by
    the boundary-parallel classes d_1 .. d_{b-1}.  The alphabet holds
    curves realizing every basis class plus d_b (the negated sum), and a
    reference arc runs from boundary 1 to each other boundary.
    """
    if b < 1:
        raise ValueError("open book pages need binding: b >= 1")
    if g < 0:
        raise ValueError("genus must be >= 0")
    rank = 2 * g + b - 1
    basis: list[str] = []
    for i in range(1, g + 1):
        basis.extend((f"a{i}", f"b{i}"))
    basis.extend(f"d{j}" for j in range(1, b))
    form = _symplectic_block(g, b - 1)

    alphabet: dict[str, Vec] = {}
    for idx, name in enumerate(basis):
        alphabet[name] = unit(rank, idx)
    # the last boundary curve is determined by the others
    alphabet[f"d{b}"] = tuple(-sum(unit(rank, 2 * g + j)[k] for j in range(b - 1))
                              for k in range(rank))

    # reference arc pairing rows, one per boundary 2..b, indexed by basis
    ref_arcs: dict[int, Vec] = {}
    for i in range(2, b + 1):
        row = [0] * rank
        row[2 * g] -= 1
        if i <= b - 1:
            row[2 * g + i - 1] += 1
        # for i == b the +1 crossing sits on d_b, which is not a basis
        # vector; linearity over the basis already encodes it
        ref_arcs[i] = tuple(row)

    circles = {i: alphabet[f"d{i}"] for i in range(1, b + 1)}

    # every standard pair of curves is disjoint except the dual pairs (a_i, b_i)
    def dual_pair(x: str, y: str) -> bool:
        return x[0] in "ab" and y[0] in "ab" and x[0] != y[0] and x[1:] == y[1:]

    names = list(alphabet)
    disjoint = set()
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            if not dual_pair(x, y):
                disjoint.add(frozenset((x, y)))

    return SurfaceModel(
        circles=circles,
        basis=tuple(basis),
        form=form,
        alphabet=alphabet,
        ref_arcs=ref_arcs,
        disjoint=frozenset(disjoint),
    )


def standard_involution(model: SurfaceModel, kind: str) -> Involution:
    """Construct one of the documented involutions on a standard page.

    Descriptors cover exactly the real structures used by the worked
    examples; adding a new conjugacy class means adding a branch here.

      disk-reflection            (0,1)  one fixed diameter
      annulus-reflection         (0,2)  c(core) = -core, two fixed arcs
      annulus-rotation           (0,2)  c(core) = +core, one fixed circle
      planar-reflection          (0,b)  reflection fixing every boundary
      boundary-swap              (0,2k) free involution swapping circles
                                        i <-> i+k
    """
    g, b = model.genus, model.boundary_count
    rank = model.h1_rank

    if kind in ("disk-reflection", "planar-reflection"):
        if g != 0:
            raise ValueError(f"{kind} needs a planar page")
        if kind == "disk-reflection" and b != 1:
            raise ValueError("disk-reflection needs b = 1")
        c = -IntMatrix.identity(rank) if rank else IntMatrix.identity(0)
        perm = {i: i for i in range(1, b + 1)}
        fixed_points = {i: (2 * i - 1, 2 * i) for i in range(1, b + 1)}
        arcs = []
        if b == 1:
            arcs.append(FixArc(ends=((1, 1), (1, 2)), pair_curves=(0,) * rank))
        else:
            for i in range(1, b + 1):
                j = i + 1 if i < b else 1
                row = [0] * rank
                if i <= b - 1:
                    row[2 * g + i - 1] -= 1
                if j <= b - 1:
                    row[2 * g + j - 1] += 1
                arcs.append(
                    FixArc(ends=((i, fixed_points[i][1]), (j, fixed_points[j][0])), pair_curves=_vec(row))
                )
        image = {f"d{i}": (f"d{i}", -1) for i in range(1, b + 1)}
        return Involution(
            matrix=c,
            boundary_perm=perm,
            fixed_points=fixed_points,
            fixed_set=FixedSet(arcs=tuple(arcs)),
            curve_image=image,
        )

    if kind == "annulus-reflection":
        if (g, b) != (0, 2):
            raise ValueError("annulus-reflection needs (g, b) = (0, 2)")
        c = IntMatrix([[-1]])
        fixed_points = {1: (1, 2), 2: (3, 4)}
        arcs = (
            FixArc(ends=((1, 1), (2, 3)), pair_curves=(1,), pair_arcs={2: 0}),
            FixArc(ends=((1, 2), (2, 4)), pair_curves=(-1,), pair_arcs={2: 0}),
        )
        image = {"d1": ("d1", -1), "d2": ("d2", -1)}
        return Involution(
            matrix=c,
            boundary_perm={1: 1, 2: 2},
            fixed_points=fixed_points,
            fixed_set=FixedSet(arcs=arcs),
            curve_image=image,
        )

    if kind == "annulus-rotation":
        if (g, b) != (0, 2):
            raise ValueError("annulus-rotation needs (g, b) = (0, 2)")
        return Involution(
            matrix=IntMatrix([[1]]),
            boundary_perm={1: 2, 2: 1},
            fixed_points={},
            fixed_set=FixedSet(circles=((1,),)),
            curve_image={"d1": ("d2", -1), "d2": ("d1", -1)},
        )

    if kind == "boundary-swap":
        if g != 0 or b % 2 != 0 or b < 2:
            raise ValueError("boundary-swap needs a planar page with an even number of circles")
        k = b // 2
        perm = {}
        for i in range(1, k + 1):
            perm[i] = i + k
            perm[i + k] = i
        cols = []
        for i in range(1, b):
            img = model.curve(f"d{perm[i]}")
            cols.append(vec_scale(-1, img))
        c = IntMatrix.from_columns(cols, rank) if rank else IntMatrix.identity(0)
        image = {f"d{i}": (f"d{perm[i]}", -1) for i in range(1, b + 1)}
        if b == 2:
            # on the annulus every essential circle is isotopic to the core,
            # so the free involution fixes each curve up to isotopy
            image = {"d1": ("d1", 1), "d2": ("d2", 1)}
        return Involution(
            matrix=c,
            boundary_perm=perm,
            fixed_points={},
            fixed_set=FixedSet(),
            curve_image=image,
        )

    raise ValueError(f"unknown involution descriptor {kind!r}")


@record
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@record
class HandleExtension:
    """The valid pair (page, inv) that a page and involution extend by a
    block of k new classes, as stabilization builds them, and the block
    core = L of the naive extension C~ = C (+) L on the new classes.
    validate_involution reads it to check the block only.

    With n the old rank, the builder guarantees, and nothing here checks:
      * the new basis is the old one followed by the classes
        e_n, ..., e_{n+k-1} of the k new curves, whose names the old page
        lacks (stabilization._start_builder picks them so), and every old
        curve keeps its class widened by zeros;
      * the first n rows of the new form start with the old form J;
      * the new matrix is C~ Sigma, Sigma the positive twist along each
        new curve, the mirror e_{n+1} before e_n for a pair;
      * a curve image equal to the old one names a curve Sigma fixes.
    Everything else the lemma of _handle_block_holds needs is read off
    the data and checked there.
    """

    page: SurfaceModel
    inv: Involution
    core: tuple[tuple[int, ...], ...]


def involution_check(c: IntMatrix, rank: int) -> CheckResult:
    """C^2 = I, compared with I row by row without building it."""
    ok = not rank or (c.shape == (rank, rank) and all(
        r[i] == 1 and r.count(0) == rank - 1 for i, r in enumerate((c @ c).rows)))
    return CheckResult("involution", ok, "" if ok else f"C^2 = {(c @ c).rows}")


def anti_symplectic_check(c: IntMatrix, j: IntMatrix, rank: int, involution: bool) -> CheckResult:
    """C^T J C = -J.  Given C^2 = I (involution), it holds exactly when
    C^T J = -J C (multiply either side by C on the right), which takes
    two products with C as one factor instead of a chain of two; without
    C^2 = I the full product is compared."""
    def dense() -> IntMatrix:
        return c.transpose() @ j @ c if rank else j

    if rank and involution and j.shape == (rank, rank):
        ok = c.transpose() @ j == -(j @ c)
    else:
        ok = dense() == -j
    return CheckResult("anti_symplectic", ok, "" if ok else f"C^T J C = {dense().rows}")


def lefschetz_check(arc_count: int, c: IntMatrix, rank: int) -> CheckResult:
    """The Lefschetz count of an involution of a page: arc_count fixed
    arcs, and 1 - tr C of them."""
    lef = 1 - (c.trace() if rank else 0)
    ok = arc_count == lef
    return CheckResult("lefschetz", ok, "" if ok else f"{arc_count} arcs vs 1 - tr = {lef}")


def image_holds(model: SurfaceModel, cols: Sequence[Sequence[int]], name: str,
                img: str, s: int) -> bool:
    """Whether the matrix with columns cols maps the class of curve name
    to s times the class of curve img: s * sum_i x_i cols[i] over the
    nonzeros x_i of the cached sparse class of name, O(nnz n), not a
    dense apply.  A curve the page lacks fails."""
    if name not in model.alphabet or img not in model.alphabet:
        return False
    acc = combine(entries(model.curve_vectors(name).a), cols, model.h1_rank)
    return model.curve(img) == tuple(s * t for t in acc)


def validate_involution(model: SurfaceModel, inv: Involution,
                        extends: HandleExtension | None = None) -> list[CheckResult]:
    """Check every declared invariant; reports failures, never raises.

    The checks run over nonzeros: involution_check, anti_symplectic_check
    and lefschetz_check on the scatter product of IntMatrix, image_holds
    per curve image, and a boundary class p is radical when
    J p = sum_i p_i col_i(J), summed over the nonzeros of p, vanishes.
    A failing check rebuilds its product only to report it.

    With extends, the pair extends a valid pair by a handle block (see
    HandleExtension).  When the checks of the block hold
    (_handle_block_holds), the involution, anti_symplectic, curve_image
    and boundary_classes checks pass by the lemma there and are
    reported so; the structural checks run in full.  When a block check
    fails, every check runs in full, so the report is the full one.
    """
    if extends is not None and _handle_block_holds(model, inv, extends):
        return ([CheckResult("involution", True), CheckResult("anti_symplectic", True)]
                + _structural_checks(model, inv)
                + [CheckResult("curve_image", True), CheckResult("boundary_classes", True)])
    c = inv.matrix
    j = model.form
    rank = model.h1_rank
    involution = involution_check(c, rank)
    out = [involution, anti_symplectic_check(c, j, rank, involution.ok)]
    out += _structural_checks(model, inv)

    ok, detail = True, ""
    c_cols = c.transpose().rows
    for name, (img, s) in inv.curve_image.items():
        if name not in model.alphabet or img not in model.alphabet:
            ok, detail = False, f"image map mentions unknown curve {name!r} -> {img!r}"
            break
        if not image_holds(model, c_cols, name, img, s):
            ok, detail = False, f"curve_image({name}) class mismatch"
            break
    out.append(CheckResult("curve_image", ok, detail))

    ok, detail = True, ""
    total = (0,) * rank
    j_cols = j.transpose().rows
    for cid, p in model.circles.items():
        total = vec_add(total, p)
        if any(combine(entries(_sparse(p)), j_cols, rank)):
            ok, detail = False, f"boundary class of circle {cid} is not radical"
    if rank and any(total):
        ok, detail = False, "boundary classes do not sum to zero"
    out.append(CheckResult("boundary_classes", ok, detail))

    return out


def _structural_checks(model: SurfaceModel, inv: Involution) -> list[CheckResult]:
    """boundary_perm, boundary_tags, lefschetz and arc_endpoints: the
    checks that read the boundary and fixed-set data, not the algebra."""
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


def _handle_block_holds(model: SurfaceModel, inv: Involution, ext: HandleExtension) -> bool:
    """Whether the involution, anti_symplectic, curve_image and
    boundary_classes checks hold on a handle extension of a valid pair,
    from checks of the block alone (premises in HandleExtension).

    Write the new form as J' = [[J, X], [Y, M]] and the new matrix as
    C~ Sigma with C~ = C (+) L.  Checked here: Y = -X^T, M is
    antisymmetric, L is antidiagonal with L^2 = I (so C~ maps each new
    curve to +-its mirror, the pair reversed), L^T M L = -M, and the
    cross block C^T X L = -X: k sparse products.

    Lemma.  The valid old pair gives C^2 = I and C^T J C = -J, so C~ is
    an involution with C~^T J' C~ = -J' (the off-diagonal blocks are the
    cross block and its transpose).  For such a C~ and a curve a,
    C~ T_a C~ = T_{C~ a}^-1: C~ T_a C~ x = x + <C~ x, a> C~ a and
    <C~ x, a> = -<x, C~ a> (Farb & Margalit, A Primer on Mapping Class
    Groups, ch. 3).  As C~ reverses the new curves up to sign and
    T_{-b} = T_b, C~ Sigma C~ = Sigma^-1, so (C~ Sigma)^2 = I.  A twist
    along a new curve e preserves J', because row and column e of J'
    are antisymmetric (Y = -X^T, M) and <e, e> = 0, so
    Sigma^T J' Sigma = J' and (C~ Sigma)^T J' (C~ Sigma) = -J'.
    An image equal to the old one names a curve Sigma fixes, whose class
    and image's class are the old ones widened by zeros, so C~ Sigma
    maps it as C did; only new or changed images are checked.  A circle
    whose class is its old class q widened by zeros has
    J' (q, 0) = (J q, Y q) with J q = 0 by the old radical check, so it
    needs X^T q = 0 only; a new or changed circle is checked fresh, with
    J' d = -sum_i d_i row_i(J') as J' is antisymmetric (J by the premise
    of the module docstring, Y = -X^T and M by the checks above), and
    the sum of all classes is the old sum, zero, moved by the new and
    changed classes less the old classes of changed and removed
    circles.
    """
    old, core = ext.page, ext.core
    n, rank = old.h1_rank, model.h1_rank
    k = rank - n
    rows = model.form.rows
    if len(core) != k or any(len(r) != k for r in core) or any(len(r) != rank for r in rows[n:]):
        return False
    # column t of L is l[t] e_{k-1-t}, the mirror of new class t
    l = [core[k - 1 - t][t] for t in range(k)]
    m = [r[n:] for r in rows[n:]]
    if (any(core[t][u] and t + u != k - 1
            or m[t][u] != -m[u][t]
            or l[t] * l[u] * m[k - 1 - t][k - 1 - u] != -m[t][u]
            for t in range(k) for u in range(k))
            or any(l[t] * l[k - 1 - t] != 1 for t in range(k))):
        return False
    xs = [[r[n + t] for r in rows[:n]] for t in range(k)]
    xnz = [[(i, x) for i, x in enumerate(col) if x] for col in xs]
    c_old = ext.inv.matrix.rows
    for t in range(k):
        minus_x = [-x for x in xs[t]]
        if list(rows[n + t][:n]) != minus_x:
            return False
        # column t of C^T X L is l[t] C^T x_{k-1-t}, over the nonzeros of x_{k-1-t}
        if [l[t] * a for a in combine(xnz[k - 1 - t], c_old, n)] != minus_x:
            return False

    old_images = ext.inv.curve_image
    c_cols = inv.matrix.transpose().rows
    for name, (img, s) in inv.curve_image.items():
        if old_images.get(name) != (img, s) and not image_holds(model, c_cols, name, img, s):
            return False

    # per circle, d is its class less its old class q widened by zeros
    # (all of it for a new circle), and J' p = (J q, Y q) + J' d, where
    # J q = 0, Y q = -X^T q and J' d = -sum_i d_i row_i(J'); the sum of
    # the d, less the old classes of removed circles, is the sum of all
    # classes
    old_circles = dict(old.circles)
    total = [0] * rank
    for cid, p in model.circles.items():
        q = old_circles.pop(cid, None)
        if q is None:
            d, jq = p, [0] * rank
        else:
            yq = [-sum([x * q[i] for i, x in nz]) for nz in xnz]
            if p[:n] == q and not any(p[n:]):
                if any(yq):
                    return False
                continue
            d = [a - b for a, b in zip(p, q)] + list(p[n:])
            jq = [0] * n + yq
        dnz = [(i, x) for i, x in enumerate(d) if x]
        for i, x in dnz:
            total[i] += x
        if combine(dnz, rows, rank) != jq:
            return False
    for q in old_circles.values():
        total = [t - x for t, x in zip(total, q)] + total[n:]
    return not any(total)


def validate_page(model: SurfaceModel) -> list[CheckResult]:
    """Check the page's declared data against its form; reports
    failures, never raises.

    disjoint: every pair the page holds disjoint (disjoint_pairs: the
    root's declared pairs and the pairs its births give) has algebraic
    intersection <a, b> = 0.  Word equality commutes the twists of such a
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
        jb = dict(entries(model.curve_vectors(b).ja))
        meet = sum(x * jb.get(i, 0) for i, x in entries(model.curve_vectors(a).a))
        if meet:
            ok, detail = False, f"disjoint pair ({a}, {b}) has <{a}, {b}> = {meet}"
            break
    return [CheckResult("disjoint", ok, detail)]


def involution_is_valid(model: SurfaceModel, inv: Involution) -> bool:
    return all(r.ok for r in validate_involution(model, inv))
