"""The central object (page, monodromy, involution) and its calculus.

Implements the reality check as a tri-state, the nine positive real
stabilizations, and first homology of the underlying closed 3-manifold.

Stabilization bookkeeping follows local handle models.  The new real
structure is (extension of c) composed with the stabilizing twist(s);
its matrix is C~ @ Sigma, its fixed set is the old one pushed through a
strand-switch analysis near the twisting annuli.  Every output is
revalidated (involution axioms, Lefschetz arc count); incompatible sites
raise instead of producing inconsistent data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import product
from operator import add
from typing import Callable, Mapping, Sequence

from .intalg import (
    IntMatrix,
    AbelianGroup,
    cokernel,
    smith_normal_form,
    snf_solve,
    solve_integer,
    solve_integer_affine,
)
from .mcg import (
    TwistWord,
    concat,
    conjugate_by_involution,
    free_reduce,
    invert,
    times_word,
    transport_arc,
    word,
    word_matrix,
    word_times,
    words_equal,
)
from .surface import (
    BoundaryCircle,
    FixArc,
    FixCircle,
    FixedSet,
    Involution,
    NamedCurve,
    RefArc,
    SurfaceModel,
    validate_involution,
    vec_add,
    vec_dot,
    vec_scale,
)


class Reality(enum.Enum):
    CERTIFIED_REAL = "CertifiedReal"
    HOMOLOGICALLY_REAL = "HomologicallyReal"
    NOT_REAL = "NotReal"


@dataclass(frozen=True)
class RealityStatus:
    kind: Reality
    witness: object = None

    def __bool__(self) -> bool:
        return self.kind is not Reality.NOT_REAL


@dataclass(frozen=True)
class StabRecord:
    """Provenance of one stabilization, enough to re-verify the word
    certificate (f~ o sigma)^-1 = (c~ o sigma)(f~ o sigma)(c~ o sigma)."""

    tag: str
    site: tuple
    sigma: TwistWord
    images: Mapping[str, tuple[str, int]]  # curve images under the naive extension c~


@dataclass(frozen=True)
class StabType:
    tag: str
    handle_count: int
    boundary_kind: str       # "reflection" | "swap"
    boundary_delta: int
    genus_delta: int
    core_sign: int           # c~ maps each new curve to core_sign times its mirror
    site_keys: tuple[str, ...]  # the keys of a site that the type reads
    description: str


STAB_TYPES: dict[str, StabType] = {
    "I": StabType("I", 1, "reflection", +1, 0, +1, ("boundary",),
                  "handle at the two real points of one boundary circle"),
    "II": StabType("II", 1, "reflection", +1, 0, -1, ("boundary", "shadow"),
                   "handle at a swapped interval pair on one boundary circle"),
    "III": StabType("III", 2, "reflection", +2, 0, +1, ("boundary",),
                    "mirror handle pair, both chords in one complementary arc"),
    "IV": StabType("IV", 2, "reflection", 0, +1, +1, ("boundary", "shadow"),
                   "mirror handle pair with crossing chords on one circle"),
    "V": StabType("V", 1, "reflection", -1, +1, +1, ("boundaries",),
                  "handle at real points on two circles joined by a fixed arc"),
    "VI": StabType("VI", 2, "reflection", 0, +1, +1, ("boundaries",),
                   "mirror handle pair connecting two reflection circles"),
    "VII": StabType("VII", 1, "swap", -1, +1, -1, ("boundaries", "cross"),
                    "single handle connecting a swapped circle pair"),
    "VIII": StabType("VIII", 2, "swap", 0, +1, +1, ("boundaries",),
                     "handle pair, each connecting both circles of a swapped pair"),
    "IX": StabType("IX", 2, "swap", +2, 0, +1, ("boundaries",),
                   "handle pair, one handle on each circle of a swapped pair"),
}


class StabilizationError(ValueError):
    """Site incompatible with the type or with the real structure."""


@dataclass(frozen=True)
class OpenBook:
    """A real open book.  Frozen: the verdict of check_reality and the
    monodromy matrix are memoized on the instance, outside the fields,
    so they take no part in ==, repr or JSON, and a book made with
    dataclasses.replace starts without them."""

    page: SurfaceModel
    monodromy: TwistWord
    real_structure: Involution
    fix_plus: FixedSet | None = None
    provenance: tuple[StabRecord, ...] = ()

    @property
    def binding_count(self) -> int:
        return self.page.boundary_count

    @property
    def page_euler(self) -> int:
        return self.page.euler

    @property
    def heegaard_genus(self) -> int:
        """Genus 2g + b - 1 of the splitting surface, two pages glued."""
        return 2 * self.page.genus + self.page.boundary_count - 1

    @cached_property
    def _reality(self) -> RealityStatus:
        return _reality_of(self)

    @cached_property
    def monodromy_matrix(self) -> IntMatrix:
        """F, the action of the monodromy on H1 of the page."""
        return word_matrix(self.page, self.monodromy)


# ---------------------------------------------------------------------------
# reality


def _arc_identity_holds(ob: OpenBook, f_inv: IntMatrix) -> tuple[bool, object]:
    """Boundary-transport part of f^-1 = c f c on declared data, given
    F^-1.

    For every reference arc gamma:  -F^-1 (f(gamma) - gamma)  must equal
    C applied to the transport defect of c(gamma), whose pairing row is
    -C^T (row of gamma).
    """
    model, w = ob.page, ob.monodromy
    c = ob.real_structure.matrix
    ct = c.transpose()
    for cid, arc in sorted(ob.page.ref_arcs.items()):
        delta = transport_arc(model, w, arc).current_class
        lhs = vec_scale(-1, f_inv.apply(delta))
        mirrored = RefArc(
            target_boundary=arc.target_boundary,
            current_class=model.zero_class(),
            pairings=vec_scale(-1, ct.apply(arc.pairings)),
        )
        rhs = c.apply(transport_arc(model, w, mirrored).current_class)
        if tuple(lhs) != tuple(rhs):
            return False, {"boundary": cid, "lhs": tuple(lhs), "rhs": tuple(rhs)}
    return True, None


def _provenance_certificate(ob: OpenBook) -> bool:
    """Word-level certificate threaded through the stabilization records.

    Each stabilization contributes the displayed identity: its sigma
    block conjugates letterwise to its own inverse under the recorded
    c~ images.  Peeling blocks reduces to the base book, which must
    certify letterwise with the inherited curve images.
    """
    model = ob.page
    inv = ob.real_structure
    w = ob.monodromy
    m = inv.matrix
    for rec in reversed(ob.provenance):
        k = len(rec.sigma)
        if w[:k] != rec.sigma:
            return False
        conj = []
        for name, exp in rec.sigma:
            img = rec.images.get(name)
            if img is None:
                return False
            conj.append((img[0], -exp))
        if free_reduce(tuple(conj)) != invert(rec.sigma):
            return False
        # the recorded images must agree with the extension matrix C~ = C Sigma^-1
        m = times_word(m, model, invert(rec.sigma))
        for name, (img, s) in rec.images.items():
            want = vec_scale(s, m.apply(model.curve(name).h1_class))
            if model.curve(img).h1_class != want:
                return False
        w = w[k:]
    # base word: direct letterwise conjugation against the inherited images
    conj = []
    for name, exp in w:
        img = inv.curve_image.get(name)
        if img is None:
            return False
        conj.append((img[0], -exp))
    return words_equal(model, free_reduce(tuple(conj)), invert(w))


def check_reality(ob: OpenBook) -> RealityStatus:
    """Tri-state reality of the monodromy against the real structure.

    Word level first (sound, incomplete); the homology level is
    necessary but not sufficient, so a clean pass there reports
    HomologicallyReal.  NotReal is definitive and carries a witness.
    Computed once per book and memoized on it.
    """
    return ob._reality


def _reality_of(ob: OpenBook) -> RealityStatus:
    model, w = ob.page, ob.monodromy
    inv = ob.real_structure
    cw = conjugate_by_involution(model, inv, w)
    if cw is not None:
        if words_equal(model, cw, invert(w)):
            return RealityStatus(Reality.CERTIFIED_REAL, witness=cw)
    if ob.provenance and _provenance_certificate(ob):
        return RealityStatus(Reality.CERTIFIED_REAL, witness="stabilization chain")

    f = ob.monodromy_matrix
    f_inv = word_matrix(model, invert(w))
    c = inv.matrix
    lhs = c @ f @ c
    if lhs != f_inv:
        for j in range(model.h1_rank):
            e = model.basis_vector(j)
            if lhs.apply(e) != f_inv.apply(e):
                return RealityStatus(
                    Reality.NOT_REAL,
                    witness={"vector": e, "cfc": lhs.apply(e), "f_inverse": f_inv.apply(e)},
                )
    ok, wit = _arc_identity_holds(ob, f_inv)
    if not ok:
        return RealityStatus(Reality.NOT_REAL, witness=wit)
    return RealityStatus(Reality.HOMOLOGICALLY_REAL)


# ---------------------------------------------------------------------------
# first homology of the underlying 3-manifold


def h1_of_manifold(ob: OpenBook) -> AbelianGroup:
    """H1 of the closed manifold described by the open book.

    Generators H1(page) + Z<t>; relations im(F - I) together with
    t + delta_i = 0 per boundary, delta at the basepoint boundary being
    zero and the others the transported reference-arc classes.
    """
    model, w = ob.page, ob.monodromy
    rank = model.h1_rank
    f = ob.monodromy_matrix
    cols: list[list[int]] = []
    for j in range(rank):
        e = model.basis_vector(j)
        col = list(f.apply(e))
        col[j] -= 1
        cols.append(col + [0])
    bp = model.basepoint
    for circle in sorted(model.circles, key=lambda c: c.cid):
        if circle.cid == bp:
            cols.append([0] * rank + [1])
        else:
            delta = transport_arc(model, w, model.ref_arcs[circle.cid]).current_class
            cols.append(list(delta) + [1])
    rel = IntMatrix.from_columns(cols, rank + 1)
    return cokernel(rel)


# ---------------------------------------------------------------------------
# stabilization


def _max_pid(inv: Involution) -> int:
    pids = [p for pts in inv.fixed_points.values() for p in pts]
    return max(pids, default=0)


def _extend_vec(v: Sequence[int], extra: int) -> tuple[int, ...]:
    return tuple(v) + (0,) * extra


def _extend_form(j: IntMatrix, new_cols: list[tuple[int, ...]], mutual: int) -> IntMatrix:
    """Extend J by one or two classes with pairing functionals new_cols.

    new_cols[i][u] = <u, new_i> for old basis u; <new_0, new_1> = mutual.
    """
    n = j.nrows
    k = len(new_cols)
    rows = [list(r) + [new_cols[t][i] for t in range(k)] for i, r in enumerate(j.rows)]
    for t in range(k):
        row = [-new_cols[t][i] for i in range(n)] + [0] * k
        rows.append(row)
    if k == 2:
        rows[n][n + 1] = mutual
        rows[n + 1][n] = -mutual
    return IntMatrix(rows, ncols=n + k)


def _naive_extension(c: IntMatrix, st: StabType) -> IntMatrix:
    """C~ = C (+) block: the extension acts as C on the old classes and
    maps each new curve to core_sign times its mirror (a <-> ca for a
    handle pair, a to itself for a single handle)."""
    n, k = c.nrows, st.handle_count
    rows = [list(r) + [0] * k for r in c.rows]
    for t in range(k):
        rows.append([0] * n + [st.core_sign if t + u == k - 1 else 0 for u in range(k)])
    return IntMatrix(rows, ncols=n + k)


@dataclass
class _Builder:
    """Mutable scratch state while assembling the stabilized book.

    The new curves are the last len(names) basis classes: the handle
    core a and, for a handle pair, its mirror ca.
    """

    names: list[str]
    basis: list[str]
    form: IntMatrix
    classes: dict[str, tuple[int, ...]]
    circles: dict[int, tuple[int, ...]]          # cid -> pclass
    perm: dict[int, int]
    fixed_points: dict[int, tuple[int, int]]
    arcs_rows: dict[int, tuple[int, ...]]        # cid -> ref-arc pairing row
    minus_arcs: list[FixArc]
    minus_circles: list[FixCircle]
    plus_arcs: list[FixArc]
    plus_circles: list[FixCircle]
    images: dict[str, tuple[str, int]]
    disjoint: set[frozenset[str]]
    next_pid: int

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def a_idx(self) -> int:
        return self.rank - len(self.names)

    def unit(self, idx: int) -> tuple[int, ...]:
        return _unit(self.rank, idx)

    def fresh_pid(self) -> int:
        self.next_pid += 1
        return self.next_pid

    def fresh_cid(self) -> int:
        return max(self.circles) + 1

    def move_ends(self, to: Callable[[int, int], int]) -> None:
        """Move every fixed-arc end (cid, pid) onto circle to(cid, pid)."""
        def moved(a: FixArc) -> FixArc:
            return replace(a, ends=tuple((to(c, p), p) for c, p in a.ends))

        self.minus_arcs = [moved(a) for a in self.minus_arcs]
        self.plus_arcs = [moved(a) for a in self.plus_arcs]

    def merge_boundaries(self, j: int, k: int) -> None:
        """Circle k joins circle j through the handle into one reflection
        circle j: k's reference arc and the crossings with it disappear,
        and fixed-arc ends on k move to j."""
        self.circles[j] = vec_add(self.circles[j], self.circles.pop(k))
        del self.perm[k]
        self.perm[j] = j
        self.fixed_points.pop(k, None)
        self.arcs_rows.pop(k, None)
        for arc in self.minus_arcs + self.plus_arcs:
            arc.pair_arcs.pop(k, None)
        self.move_ends(lambda c, p: j if c == k else c)

    def split_boundary(self, j: int, new: int) -> None:
        """Circle new splits off circle j: its reference arc runs beside
        j's, so it inherits j's row and every fixed piece's crossing with
        j's arc."""
        self.arcs_rows[new] = self.arcs_rows.get(j, (0,) * self.rank)
        for arc in self.minus_arcs + self.plus_arcs:
            if j in arc.pair_arcs:
                arc.pair_arcs[new] = arc.pair_arcs[j]

    def mark_disjoint(self, crossing: bool = False) -> None:
        """Mark the new curves disjoint from every old curve, and from each
        other unless their chords cross."""
        for u in list(self.classes):
            for n in self.names:
                if u != n and not (crossing and u in self.names):
                    self.disjoint.add(frozenset((u, n)))

    def strand(self, ends: tuple[tuple[int, int], tuple[int, int]]) -> FixArc:
        """A fixed arc across the handle: it crosses the core once and
        nothing else."""
        return FixArc(ends=ends, pair_curves=self.unit(self.a_idx), pair_arcs={})


def _start_builder(ob: OpenBook, tag: str, cols: list[tuple[int, ...]] | None = None,
                   mutual: int = 0) -> _Builder:
    """Scratch copy of the book with the new curves of a type-tag handle
    installed: every old vector widened by zero coordinates, the form
    extended by the new curves' pairing columns cols (zero by default)
    and mutual = <a, ca>."""
    count = STAB_TYPES[tag].handle_count
    model = ob.page
    inv = ob.real_structure
    stem = f"s{len(ob.provenance) + 1}"
    names = [stem, stem + "c"][:count]
    rank = model.h1_rank + count
    ext = lambda v: _extend_vec(v, count)
    return _Builder(
        names=names,
        basis=list(model.basis) + names,
        form=_extend_form(model.form, cols or [(0,) * model.h1_rank] * count, mutual),
        classes={n: ext(c.h1_class) for n, c in model.alphabet.items()}
        | {n: _unit(rank, rank - count + i) for i, n in enumerate(names)},
        circles={c.cid: ext(c.pclass) for c in model.circles},
        perm=dict(inv.boundary_perm),
        fixed_points=dict(inv.fixed_points),
        arcs_rows={cid: ext(a.pairings) for cid, a in model.ref_arcs.items()},
        minus_arcs=[replace(a, pair_curves=ext(a.pair_curves), pair_arcs=dict(a.pair_arcs))
                    for a in inv.fixed_set.arcs],
        minus_circles=[FixCircle(h1_class=ext(c.h1_class)) for c in inv.fixed_set.circles],
        plus_arcs=[replace(a, pair_curves=ext(a.pair_curves), pair_arcs=dict(a.pair_arcs))
                   for a in (ob.fix_plus.arcs if ob.fix_plus else ())],
        plus_circles=[FixCircle(h1_class=ext(c.h1_class)) for c in
                      (ob.fix_plus.circles if ob.fix_plus else ())],
        images=dict(inv.curve_image),
        disjoint=set(model.disjoint),
        next_pid=_max_pid(inv),
    )


def _fix_ref_rows(b: _Builder, new_idx: list[int]) -> None:
    """Pin each reference-arc row to the boundary crossing pattern.

    An arc from the basepoint to boundary l crosses the pushoff of l
    once (+1), the basepoint pushoff once (-1) and no other: this fixes
    the crossings with the fresh curves that the per-type bookkeeping
    leaves free.  The crossing matrix is the same for every arc, so its
    Smith form is factored once and each arc only back-substitutes.
    """
    bp = min(b.circles)
    cids = sorted(b.circles)
    snf = smith_normal_form(IntMatrix([[b.circles[cid][t] for t in new_idx] for cid in cids],
                                      ncols=len(new_idx)))
    for l, row in sorted(b.arcs_rows.items()):
        rhs = [(1 if cid == l else (-1 if cid == bp else 0)) - vec_dot(row, b.circles[cid])
               for cid in cids]
        sol = snf_solve(snf, rhs)
        if sol is None:
            raise StabilizationError(
                f"reference arc to boundary {l} has no consistent crossing data")
        for t, d in zip(new_idx, sol):
            row = _set_coord(row, t, row[t] + d)
        b.arcs_rows[l] = row


def _fix_strand_law(b: _Builder, arcs: list[FixArc], mat: IntMatrix,
                    new_idx: list[int]) -> list[FixArc]:
    """Pin fixed-arc crossing data to the invariance law C^T pc = -pc.

    An invariant arc meets a curve and its involution image in opposite
    signed counts, which ties the crossings with the fresh curves to the
    old ones; the per-type local rules leave exactly that freedom.  The
    system matrix is the same for every arc, so its Smith form is
    factored once, on the first arc that needs it.
    """
    mt = mat.transpose()
    snf = None
    out = []
    for arc in arcs:
        pc = arc.pair_curves
        residual = vec_add(mt.apply(pc), pc)
        if not any(residual):
            out.append(arc)
            continue
        if snf is None:
            snf = smith_normal_form(IntMatrix(
                [[mt[i, t] + (1 if i == t else 0) for t in new_idx] for i in range(mt.nrows)],
                ncols=len(new_idx)))
        delta = snf_solve(snf, [-r for r in residual])
        if delta is None:
            raise StabilizationError(
                "fixed-arc crossing data cannot satisfy the invariance law here")
        for t, d in zip(new_idx, delta):
            pc = _set_coord(pc, t, pc[t] + d)
        out.append(replace(arc, pair_curves=pc))
    return out


def _finish(ob: OpenBook, b: _Builder, tag: str, site: tuple) -> OpenBook:
    """Twist along the new curves and revalidate.

    sigma is the positive twist along each new curve (ca before a for a
    handle pair), and the new real structure is C~ Sigma, with C~ the
    naive extension of the type's core sign.
    """
    st = STAB_TYPES[tag]
    model = ob.page
    rank = b.rank
    form = b.form
    new_idx = list(range(b.a_idx, rank))
    _fix_ref_rows(b, new_idx)

    # rebuild alphabet with extended classes and recomputed pairing tables
    arc_order = sorted(b.arcs_rows)
    alphabet: dict[str, NamedCurve] = {}
    for name, cls in b.classes.items():
        pair = tuple(form.apply(cls))
        arcp = tuple(vec_dot(b.arcs_rows[cid], cls) for cid in arc_order)
        alphabet[name] = NamedCurve(name=name, h1_class=cls, pairings=pair, arc_pairings=arcp)

    circles = tuple(
        BoundaryCircle(cid=cid, pclass=b.circles[cid]) for cid in sorted(b.circles)
    )
    ref_arcs = {
        cid: RefArc(target_boundary=cid, current_class=(0,) * rank, pairings=row)
        for cid, row in b.arcs_rows.items()
    }
    page = SurfaceModel(
        genus=model.genus + st.genus_delta,
        circles=circles,
        basis=tuple(b.basis),
        form=form,
        alphabet=alphabet,
        ref_arcs=ref_arcs,
        disjoint=frozenset(b.disjoint),
    )

    sigma_names = b.names[::-1]
    images = {n: (m, st.core_sign) for n, m in zip(b.names, sigma_names)}
    sigma: TwistWord = word([(n, 1) for n in sigma_names])
    new_word = concat(sigma, ob.monodromy)
    c_new = times_word(_naive_extension(ob.real_structure.matrix, st), page, sigma)

    b.minus_arcs = _fix_strand_law(b, b.minus_arcs, c_new, new_idx)
    if ob.fix_plus is not None:
        c_plus = word_times(page, new_word, c_new)
        b.plus_arcs = _fix_strand_law(b, b.plus_arcs, c_plus, new_idx)

    # drop curve images that the twist invalidates (sigma moves the curve);
    # the recorded c~ images survive only for curves sigma fixes
    sigma_pairings = [form.apply(b.classes[s]) for s in sigma_names]

    def moved(name: str) -> bool:
        cls = b.classes[name]
        return any(vec_dot(js, cls) != 0 for js in sigma_pairings)

    images_out: dict[str, tuple[str, int]] = {}
    for name, img in b.images.items():
        if not moved(name):
            images_out[name] = img
    images_out.update({n: img for n, img in images.items() if not moved(n)})

    inv = Involution(
        matrix=c_new,
        boundary_perm=b.perm,
        fixed_points=b.fixed_points,
        fixed_set=FixedSet(arcs=tuple(b.minus_arcs), circles=tuple(b.minus_circles)),
        curve_image=images_out,
    )
    rec = StabRecord(tag=tag, site=site, sigma=sigma, images=images)
    fix_plus = (None if ob.fix_plus is None
                else FixedSet(arcs=tuple(b.plus_arcs), circles=tuple(b.plus_circles)))
    out = OpenBook(
        page=page,
        monodromy=new_word,
        real_structure=inv,
        fix_plus=fix_plus,
        provenance=ob.provenance + (rec,),
    )
    report = validate_involution(page, inv)
    bad = [r for r in report if not r.ok]
    if bad:
        raise StabilizationError(f"type {tag} at {site}: inconsistent data: "
                                 + "; ".join(f"{r.name}: {r.detail}" for r in bad))
    return out


def _reflection_circle(ob: OpenBook, cid: int) -> None:
    if ob.real_structure.boundary_perm.get(cid) != cid:
        raise StabilizationError(f"boundary {cid} is not reflection-tagged")


def _swap_pair(ob: OpenBook, j: int, k: int) -> None:
    if j == k or ob.real_structure.boundary_perm.get(j) != k:
        raise StabilizationError(f"boundaries ({j}, {k}) are not a swapped pair")


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_site(ob: OpenBook, st: StabType, site: object) -> tuple[int, ...]:
    """The site as the tuple the stabilization records: (j,) or
    (j, shadow) on one reflection circle, (j, k) or (j, k, cross) on a
    sorted pair of circles, with the defaults filled in.

    A malformed site raises ValueError: not an object, a key the type
    does not read, a value that is not an integer, or "boundaries" that
    is not a pair of integers.  A well-formed site on the wrong kind of
    boundary raises StabilizationError.
    """
    if site is None:
        site = {}
    if not isinstance(site, Mapping):
        raise ValueError(f"site must be an object, got {site!r}")
    for key, value in site.items():
        if key not in st.site_keys:
            raise ValueError(f"type {st.tag} site has no key {key!r}; it reads "
                             + ", ".join(repr(k) for k in st.site_keys))
        if key == "boundaries":
            if not (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(map(_is_int, value))):
                raise ValueError(f"site 'boundaries' must be a pair of integers, got {value!r}")
        elif not _is_int(value):
            raise ValueError(f"site {key!r} must be an integer, got {value!r}")

    if "boundary" in st.site_keys:
        j = site.get("boundary", ob.page.basepoint)
        _reflection_circle(ob, j)
        if "shadow" not in st.site_keys:
            return (j,)
        pts = ob.real_structure.fixed_points[j]
        shadow = site.get("shadow", max(pts))
        if shadow not in pts:
            raise StabilizationError(f"shadow point {shadow} is not a real point of boundary {j}")
        return (j, shadow)

    if "boundaries" not in site:
        raise ValueError(f"type {st.tag} site needs 'boundaries'")
    j, k = sorted(site["boundaries"])
    if st.boundary_kind == "swap":
        _swap_pair(ob, j, k)
    else:
        if st.tag == "VI" and j == k:
            raise StabilizationError("type VI needs two distinct boundaries")
        _reflection_circle(ob, j)
        _reflection_circle(ob, k)
    if "cross" in st.site_keys:
        return (j, k, site.get("cross", 0))
    return (j, k)


def _minus_arc_between(ob: OpenBook, j: int, k: int) -> FixArc | None:
    for arc in ob.real_structure.fixed_set.arcs:
        cids = {arc.ends[0][0], arc.ends[1][0]}
        if cids == ({j} if j == k else {j, k}):
            return arc
    return None


def _solve_pushoff_column(
    old_rank: int, pj: Sequence[int], pk: Sequence[int],
    c_old: IntMatrix, symmetry: int | None,
    others: Sequence[Sequence[int]] = (),
) -> tuple[int, ...]:
    """Pairing functional v of the new curve: P_j . v = -1, P_k . v = +1,
    zero against every other boundary class, optionally C^T v =
    symmetry * v.  Everything over the old basis."""
    rows: list[list[int]] = [list(pj[:old_rank]), list(pk[:old_rank])]
    rhs = [-1, 1]
    for other in others:
        rows.append(list(other[:old_rank]))
        rhs.append(0)
    if symmetry is not None:
        ct = c_old.transpose()
        for i in range(old_rank):
            row = [ct[i, u] - (symmetry if i == u else 0) for u in range(old_rank)]
            rows.append(row)
            rhs.append(0)
    sol = solve_integer(IntMatrix(rows, ncols=old_rank), rhs)
    if sol is None:
        raise StabilizationError("no consistent pairing data for the attachment site")
    return tuple(sol)


def _other_pushoffs(ob: OpenBook, j: int, k: int) -> list[tuple[int, ...]]:
    return [c.pclass for c in ob.page.circles if c.cid not in (j, k)]


def _solve_viii_data(
    old_rank: int, pj: Sequence[int], pk: Sequence[int],
    c_old: IntMatrix, form: IntMatrix,
    others: Sequence[Sequence[int]] = (),
) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """Attachment data (v, w, x, m) for type VIII.

    v is the pairing functional of the new curve, the re-formed boundary
    classes are x (e_a + e_ca) + w, and m = <a, c~(a)> (the handle
    chords may be forced to cross once, depending on the host).  Linear
    part: P_j . v = -1, P_k . v = +1, (1 - C) w = P_j + P_k and
    x (v - C^T v) + J w = 0; the radical conditions for the boundary
    class, v . w = x m = (C^T v) . w, are bilinear.  So (m, x) runs over
    m in (0, 1, -1), x in (1, -1); the linear system depends on x only
    and is solved at most once per x, and for each (m, x) the solution
    lattice is walked lazily (the particular solution, then combinations
    of up to four kernel generators with coefficients -2..2) up to the
    first point that meets the radical conditions.
    """
    n = old_rank
    ct = c_old.transpose()
    one_minus_c = IntMatrix.identity(n) - c_old
    rows: list[list[int]] = [list(pj) + [0] * n, list(pk) + [0] * n]
    rhs: list[int] = [-1, 1]
    for other in others:
        rows.append(list(other[:n]) + [0] * n)
        rhs.append(0)
    for i in range(n):
        rows.append([0] * n + list(one_minus_c.rows[i]))
        rhs.append(pj[i] + pk[i])
    rhs.extend([0] * n)

    @cache
    def solve(x_coef: int):
        x_rows = [[x_coef * ((1 if u == i else 0) - ct[i, u]) for u in range(n)]
                  + list(form.rows[i]) for i in range(n)]
        return solve_integer_affine(IntMatrix(rows + x_rows, ncols=2 * n), rhs)

    for m, x_coef in product((0, 1, -1), (1, -1)):
        sol = solve(x_coef)
        if sol is None:
            continue
        target = x_coef * m
        for xx in _lattice_points(*sol):
            v, w = xx[:n], xx[n:]
            if vec_dot(v, w) == target and vec_dot(ct.apply(v), w) == target:
                return v, w, x_coef, m
    raise StabilizationError("type VIII: no consistent boundary class at this site")


def _lattice_points(base: tuple[int, ...], kernel: Sequence[tuple[int, ...]]):
    """base, then base + sum c_i g_i over the first four kernel generators
    g_i, each c_i in -2..2, in lexicographic order of (c_1, c_2, ...)."""
    yield base
    gens = kernel[:4]
    for combo in product(range(-2, 3), repeat=len(gens)):
        xx = base
        for c, g in zip(combo, gens):
            if c:
                xx = tuple(map(add, xx, map(c.__mul__, g)))
        yield xx


def _unit(rank: int, idx: int) -> tuple[int, ...]:
    return tuple(1 if i == idx else 0 for i in range(rank))


def _set_coord(v: Sequence[int], idx: int, value: int) -> tuple[int, ...]:
    out = list(v)
    out[idx] = value
    return tuple(out)


def _plus_join(b: _Builder, j_end: tuple[int, int], k_end: tuple[int, int]) -> None:
    """Join the plus-side arcs ending at two retired fixed points through
    the handle core (the naive extension fixes the core pointwise)."""
    hits = [i for i, a in enumerate(b.plus_arcs) if j_end in a.ends or k_end in a.ends]
    if not hits:
        raise StabilizationError("fix_plus data missing arcs at the attachment points")
    if len(hits) == 1 or hits[0] == hits[-1]:
        arc = b.plus_arcs.pop(hits[0])
        # closed up: core + arc; class is the new curve class corrected so
        # the crossing functional matches the arc data
        target = _set_coord(arc.pair_curves, b.a_idx, 0)
        base = b.unit(b.a_idx)
        need = vec_add(target, vec_scale(-1, b.form.transpose().apply(base)))
        w = solve_integer(b.form.transpose(), need)
        if w is None:
            raise StabilizationError("joined fixed circle has no consistent class")
        b.plus_circles.append(FixCircle(h1_class=vec_add(base, w)))
    else:
        i1, i2 = hits[0], hits[-1]
        a2 = b.plus_arcs.pop(i2)
        a1 = b.plus_arcs.pop(i1)
        other1 = a1.ends[0] if a1.ends[1] == j_end or a1.ends[1] == k_end else a1.ends[1]
        other2 = a2.ends[0] if a2.ends[1] == j_end or a2.ends[1] == k_end else a2.ends[1]
        pair_arcs = dict(a1.pair_arcs)
        for cid, v in a2.pair_arcs.items():
            pair_arcs[cid] = pair_arcs.get(cid, 0) + v
        b.plus_arcs.append(
            FixArc(ends=(other1, other2),
                   pair_curves=vec_add(a1.pair_curves, a2.pair_curves),
                   pair_arcs=pair_arcs)
        )


def _consume_arc(b: _Builder, x: FixArc) -> None:
    """The handle core closes the fixed arc x up into the twist curve
    (types I and V).  The twist removes the resulting fixed circle, so x
    leaves the minus side; the plus-side arcs at its ends join through
    the core; every reference arc crosses the new curve as it crossed x,
    with the opposite sign."""
    b.minus_arcs = [a for a in b.minus_arcs if a.ends != x.ends]
    _plus_join(b, *x.ends)
    for cid in list(b.arcs_rows):
        b.arcs_rows[cid] = _set_coord(b.arcs_rows[cid], b.a_idx, -x.pair_arcs.get(cid, 0))


def _arc_at(arcs: list[FixArc], end: tuple[int, int], what: str) -> int:
    for i, a in enumerate(arcs):
        if end in a.ends:
            return i
    raise StabilizationError(f"no {what} ends at {end}")


def stabilize(ob: OpenBook, tag: str, site: Mapping | None = None) -> OpenBook:
    """Positive real stabilization of the given type at the given site.

    A site is an object whose values are integers.  Each type reads only
    the keys in STAB_TYPES[tag].site_keys:
      "boundary" (I-IV; default the basepoint boundary),
      "shadow" (II, IV; the real point of that boundary the closing chord
      passes; default the larger point id),
      "boundaries" (V-IX; a pair of boundaries, required),
      "cross" (VII; index of the fixed piece the closing chord crosses;
      default 0).
    A malformed site (not an object, a key the type does not read, a
    value that is not an integer, "boundaries" not a pair) raises
    ValueError, so the CLI exits 2.  Incompatible sites and NotReal input
    raise StabilizationError (CLI exit 1).
    """
    st = STAB_TYPES.get(tag)
    if st is None:
        raise StabilizationError(f"unknown stabilization type {tag!r}")
    if check_reality(ob).kind is Reality.NOT_REAL:
        raise StabilizationError("refusing to stabilize a NotReal book")
    # looked up by name on every call, so a wrapper set on the module
    # attribute (as the benchmark's tracer does) sees the call
    return globals()[f"_stab_{tag}"](ob, _parse_site(ob, st, site))


def _stab_I(ob: OpenBook, site: tuple) -> OpenBook:
    (j,) = site
    x = _minus_arc_between(ob, j, j)
    if x is None:
        raise StabilizationError(
            f"type I needs the two real points of boundary {j} joined by a fixed arc")
    # class z of the consumed arc closed up along the old boundary: its
    # pairing functional must match the arc's declared crossings, be
    # compatible with the involution, and the split circle classes are
    # then e_a - z and P_j - (e_a - z); the new curve's honest pairing
    # column is J z (zero only when the closing arc misses everything,
    # as on the disk)
    old_rank = ob.page.h1_rank
    c_old = ob.real_structure.matrix
    jm = ob.page.form
    z_rows = [list(r) for r in jm.rows]
    z_rhs = [-pc for pc in x.pair_curves[:old_rank]]
    for l, arc in sorted(ob.page.ref_arcs.items()):
        z_rows.append(list(arc.pairings))
        z_rhs.append(-x.pair_arcs.get(l, 0))
    sym = (c_old.transpose() @ jm) + jm
    for row in sym.rows:
        z_rows.append(list(row))
        z_rhs.append(0)
    z = solve_integer(IntMatrix(z_rows, ncols=old_rank), z_rhs)
    if z is None:
        raise StabilizationError("type I: closing arc has no consistent closed class")

    b = _start_builder(ob, "I", [tuple(jm.apply(z))])
    pj = b.circles[j]
    j2 = b.fresh_cid()
    b.circles[j] = vec_add(b.unit(b.a_idx), vec_scale(-1, _extend_vec(z, 1)))
    b.circles[j2] = vec_add(pj, vec_scale(-1, b.circles[j]))
    b.perm[j] = j2
    b.perm[j2] = j
    del b.fixed_points[j]
    # other minus pieces are disjoint from the twist curve, so their
    # new-curve crossings stay zero; the joined plus circle picks its
    # crossing with the new reference arc up through its class
    _consume_arc(b, x)
    b.split_boundary(j, j2)
    return _finish(ob, b, "I", site)


def _stab_II(ob: OpenBook, site: tuple) -> OpenBook:
    j, shadow = site
    pts = ob.real_structure.fixed_points[j]
    keep = pts[0] if pts[1] == shadow else pts[1]

    b = _start_builder(ob, "II")
    a = b.unit(b.a_idx)
    pj = b.circles[j]
    j2 = b.fresh_cid()
    n1 = b.fresh_pid()
    n2 = b.fresh_pid()
    b.circles[j] = a
    b.circles[j2] = vec_add(pj, vec_scale(-1, a))
    b.perm[j2] = j2
    b.fixed_points[j] = (keep, n1)
    b.fixed_points[j2] = (shadow, n2)

    # strand switch on the minus side at the shadowed point
    y = b.minus_arcs.pop(_arc_at(b.minus_arcs, (j, shadow), "fixed arc"))
    far = y.ends[0] if y.ends[1] == (j, shadow) else y.ends[1]
    arc1 = FixArc(ends=(far, (j2, n2)),
                  pair_curves=_set_coord(y.pair_curves, b.a_idx, 1),
                  pair_arcs=dict(y.pair_arcs))
    b.minus_arcs.extend([arc1, b.strand(((j2, shadow), (j, n1)))])

    # plus side: the chord crosses the strand at the shadowed point, which
    # now lives on the new circle; a new transversal strand crosses the core
    zi = _arc_at(b.plus_arcs, (j, shadow), "plus-side fixed arc")
    z = b.plus_arcs[zi]
    ends = tuple((j2, p) if (c == j and p == shadow) else (c, p) for c, p in z.ends)
    b.plus_arcs[zi] = FixArc(ends=ends,
                             pair_curves=_set_coord(z.pair_curves, b.a_idx, 1),
                             pair_arcs=dict(z.pair_arcs))
    b.plus_arcs.append(b.strand(((j, n1), (j2, n2))))

    b.split_boundary(j, j2)
    # the far strand is the one the new reference arc crosses
    arc1.pair_arcs[j2] = arc1.pair_arcs.get(j2, 0) + 1
    b.mark_disjoint()
    return _finish(ob, b, "II", site)


def _stab_III(ob: OpenBook, site: tuple) -> OpenBook:
    (j,) = site
    b = _start_builder(ob, "III")
    x_cid = b.fresh_cid()
    y_cid = x_cid + 1
    b.circles[x_cid] = b.unit(b.a_idx)
    b.circles[y_cid] = vec_scale(-1, b.unit(b.a_idx + 1))
    pj = b.circles[j]
    b.circles[j] = vec_add(pj, vec_add(vec_scale(-1, b.circles[x_cid]),
                                       vec_scale(-1, b.circles[y_cid])))
    b.perm[x_cid] = y_cid
    b.perm[y_cid] = x_cid
    b.split_boundary(j, x_cid)
    b.split_boundary(j, y_cid)
    b.mark_disjoint()
    return _finish(ob, b, "III", site)


def _stab_IV(ob: OpenBook, site: tuple) -> OpenBook:
    j, shadow = site
    b = _start_builder(ob, "IV", mutual=1)
    # both chords shadow the same real point: its strands pick up one
    # crossing with each new curve as a seed; the invariance-law pass in
    # _finish settles the exact values
    seed = vec_add(b.unit(b.a_idx), b.unit(b.a_idx + 1))
    for arcs, what in ((b.minus_arcs, "fixed arc"), (b.plus_arcs, "plus-side fixed arc")):
        i = _arc_at(arcs, (j, shadow), what)
        arcs[i] = replace(arcs[i], pair_curves=vec_add(arcs[i].pair_curves, seed))
    # the two chords cross each other, so the new pair is not disjoint
    b.mark_disjoint(crossing=True)
    return _finish(ob, b, "IV", site)


def _stab_V(ob: OpenBook, site: tuple) -> OpenBook:
    j, k = site
    x = _minus_arc_between(ob, j, k)
    if x is None:
        raise StabilizationError(
            f"type V needs a fixed arc joining boundaries {j} and {k}")
    old_rank = ob.page.h1_rank
    pj = ob.page.circle(j).pclass
    pk = ob.page.circle(k).pclass
    # the twist curve is core + consumed arc, so its pairing column is
    # forced by the arc's declared crossings up to orientation; the
    # attachment is valid only if one orientation has the
    # boundary-crossing pattern
    v_a = tuple(-pc for pc in x.pair_curves[:old_rank])
    pattern = [(pj, -1), (pk, 1)] + [(o, 0) for o in _other_pushoffs(ob, j, k)]
    for candidate in (v_a, tuple(-v for v in v_a)):
        if all(vec_dot(pcls[:old_rank], candidate) == want for pcls, want in pattern):
            v_a = candidate
            break
    else:
        raise StabilizationError(
            "type V: consumed arc crossing data violates the boundary pattern")

    b = _start_builder(ob, "V", [v_a])
    x_j = next(p for c, p in x.ends if c == j)
    x_k = next(p for c, p in x.ends if c == k)
    keep_j = next(p for p in ob.real_structure.fixed_points[j] if p != x_j)
    keep_k = next(p for p in ob.real_structure.fixed_points[k] if p != x_k)
    _consume_arc(b, x)
    b.merge_boundaries(j, k)
    b.fixed_points[j] = (keep_j, keep_k)
    return _finish(ob, b, "V", site)


def _stab_VI(ob: OpenBook, site: tuple) -> OpenBook:
    j, k = site
    old_rank = ob.page.h1_rank
    c_old = ob.real_structure.matrix
    pj = ob.page.circle(j).pclass
    pk = ob.page.circle(k).pclass
    # anti-invariant functional keeps the re-formed boundary classes radical
    v_a = _solve_pushoff_column(old_rank, pj, pk, c_old, -1, _other_pushoffs(ob, j, k))
    v_ca = tuple(vec_scale(-1, c_old.transpose().apply(v_a)))

    b = _start_builder(ob, "VI", [v_a, v_ca])
    # circles re-form: first points gather on j, second points on k
    pj_pts = ob.real_structure.fixed_points[j]
    pk_pts = ob.real_structure.fixed_points[k]
    diag = vec_add(b.unit(b.a_idx), vec_scale(-1, b.unit(b.a_idx + 1)))
    b.circles[j] = vec_add(vec_add(b.circles[j], b.circles[k]), diag)
    b.circles[k] = vec_scale(-1, diag)
    b.fixed_points[j] = (pj_pts[0], pk_pts[0])
    b.fixed_points[k] = (pj_pts[1], pk_pts[1])
    first = {j: pj_pts[0], k: pk_pts[0]}
    b.move_ends(lambda c, p: c if c not in first else (j if p == first[c] else k))
    return _finish(ob, b, "VI", site)


def _stab_VII(ob: OpenBook, site: tuple) -> OpenBook:
    j, k, cross = site
    pieces = list(ob.real_structure.fixed_set.arcs) + list(ob.real_structure.fixed_set.circles)
    if not pieces:
        raise StabilizationError("type VII needs a fixed piece for the closing chord to cross")
    if not 0 <= cross < len(pieces):
        raise StabilizationError(f"no fixed piece with index {cross}")
    old_rank = ob.page.h1_rank
    pj = ob.page.circle(j).pclass
    pk = ob.page.circle(k).pclass
    v_a = _solve_pushoff_column(old_rank, pj, pk, ob.real_structure.matrix, +1,
                                _other_pushoffs(ob, j, k))

    b = _start_builder(ob, "VII", [v_a])
    b.merge_boundaries(j, k)
    n1 = b.fresh_pid()
    n2 = b.fresh_pid()
    b.fixed_points[j] = (n1, n2)

    # strand switch with the crossed piece on the minus side
    target = pieces[cross]
    if isinstance(target, FixArc):
        ti = next(i for i, a in enumerate(b.minus_arcs)
                  if {p for _, p in a.ends} == {p for _, p in target.ends})
        t = b.minus_arcs.pop(ti)
        e1, e2 = t.ends
        b.minus_arcs.append(FixArc(ends=(e1, (j, n1)),
                                   pair_curves=_set_coord(t.pair_curves, b.a_idx, 1),
                                   pair_arcs=dict(t.pair_arcs)))
        b.minus_arcs.append(b.strand((e2, (j, n2))))
    else:
        ci = next(i for i, c in enumerate(b.minus_circles)
                  if c.h1_class[:old_rank] == target.h1_class)
        circ = b.minus_circles.pop(ci)
        row = tuple(b.form.transpose().apply(circ.h1_class))
        b.minus_arcs.append(FixArc(ends=((j, n1), (j, n2)),
                                   pair_curves=_set_coord(row, b.a_idx, row[b.a_idx] + 1),
                                   pair_arcs={}))

    # plus side gains the transversal handle strand
    b.plus_arcs.append(b.strand(((j, n1), (j, n2))))
    return _finish(ob, b, "VII", site)


def _stab_VIII(ob: OpenBook, site: tuple) -> OpenBook:
    j, k = site
    old_rank = ob.page.h1_rank
    c_old = ob.real_structure.matrix
    pj = ob.page.circle(j).pclass
    pk = ob.page.circle(k).pclass
    v_a, w, x_coef, mutual = _solve_viii_data(old_rank, pj, pk, c_old, ob.page.form,
                                              _other_pushoffs(ob, j, k))
    v_ca = tuple(vec_scale(-1, c_old.transpose().apply(v_a)))

    b = _start_builder(ob, "VIII", [v_a, v_ca], mutual)
    new_j = vec_add(
        vec_scale(x_coef, vec_add(b.unit(b.a_idx), b.unit(b.a_idx + 1))), _extend_vec(w, 2))
    b.circles[j] = new_j
    b.circles[k] = vec_scale(-1, _naive_extension(c_old, STAB_TYPES["VIII"]).apply(new_j))
    return _finish(ob, b, "VIII", site)


def _stab_IX(ob: OpenBook, site: tuple) -> OpenBook:
    j, k = site
    b = _start_builder(ob, "IX")
    a, ca = b.unit(b.a_idx), b.unit(b.a_idx + 1)
    pj, pk = b.circles[j], b.circles[k]
    j2 = b.fresh_cid()
    k2 = j2 + 1
    b.circles[j] = a
    b.circles[j2] = vec_add(pj, vec_scale(-1, a))
    b.circles[k] = vec_scale(-1, ca)
    b.circles[k2] = vec_add(pk, ca)
    b.perm.update({j: k, k: j, j2: k2, k2: j2})
    b.split_boundary(j, j2)
    b.split_boundary(k, k2)
    b.mark_disjoint()
    return _finish(ob, b, "IX", site)


# ---------------------------------------------------------------------------
# site enumeration (used by the randomized suites)


def enumerate_sites(ob: OpenBook) -> list[tuple[str, dict]]:
    """All (type, site) combinations whose preconditions hold on this book."""
    inv = ob.real_structure
    out: list[tuple[str, dict]] = []
    refl = [c.cid for c in ob.page.circles if inv.boundary_perm.get(c.cid) == c.cid]
    swaps = sorted({tuple(sorted((c, inv.boundary_perm[c])))
                    for c in inv.boundary_perm if inv.boundary_perm[c] != c})
    for j in refl:
        if _minus_arc_between(ob, j, j) is not None:
            out.append(("I", {"boundary": j}))
        for shadow in inv.fixed_points[j]:
            has_minus = any((j, shadow) in a.ends for a in inv.fixed_set.arcs)
            has_plus = ob.fix_plus is not None and any(
                (j, shadow) in a.ends for a in ob.fix_plus.arcs)
            if has_minus and has_plus:
                out.append(("II", {"boundary": j, "shadow": shadow}))
                out.append(("IV", {"boundary": j, "shadow": shadow}))
        out.append(("III", {"boundary": j}))
    for i1 in range(len(refl)):
        for i2 in range(i1 + 1, len(refl)):
            j, k = refl[i1], refl[i2]
            if _minus_arc_between(ob, j, k) is not None:
                out.append(("V", {"boundaries": (j, k)}))
            out.append(("VI", {"boundaries": (j, k)}))
    for j, k in swaps:
        pieces = len(inv.fixed_set.arcs) + len(inv.fixed_set.circles)
        for idx in range(pieces):
            out.append(("VII", {"boundaries": (j, k), "cross": idx}))
        out.append(("VIII", {"boundaries": (j, k)}))
        out.append(("IX", {"boundaries": (j, k)}))
    return out


def enumerate_valid_sites(ob: OpenBook) -> list[tuple[str, dict]]:
    """Sites that actually produce a consistent stabilized book."""
    good = []
    for tag, site in enumerate_sites(ob):
        try:
            stabilize(ob, tag, site)
        except StabilizationError:
            continue
        good.append((tag, site))
    return good
