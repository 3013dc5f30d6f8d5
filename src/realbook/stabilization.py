"""The nine positive real stabilizations of a real open book, and the
handle bookkeeping they share.

Stabilization bookkeeping follows local handle models.  The new real
structure is (extension of c) composed with the stabilizing twist(s);
its matrix is C~ @ Sigma, its fixed set is the old one pushed through a
strand-switch analysis near the twisting annuli.  stabilize takes only
a book that is not NotReal and passes validate (its door,
OpenBook._door), so it turns a valid real open book into a valid one.
Each output is certified here from its parent by the checks of the new
block (_block_holds, with the lemma they rest on), and those checks open
its door (_finish, with the door lemma); incompatible sites raise
instead of producing inconsistent data.

The book, the reality check and H1 are in realbook.openbook, which
re-exports stabilize, enumerate_sites and _stab_{T} lazily; of the
command line's subcommands only stabilize and catalog load this module.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain, islice, product
from types import SimpleNamespace
from typing import Callable, Iterator, Mapping, Sequence

from .errors import StabilizationError
from .intalg import factor
from .mcg import TwistWord, concat, times_word, word
from .openbook import (
    STAB_TYPES,
    OpenBook,
    StabRecord,
    StabType,
    _mirror_functional,
)
from .records import replace
from .surface import (
    FixArc,
    FixedSet,
    Involution,
    Rows,
    Sparse,
    SurfaceModel,
    arc_endpoints_check,
    crossing_residuals,
    dense,
    entries,
    failures,
    image_holds,
    set_coord,
    sparse,
    sparse_add,
    sparse_column,
    sparse_combine,
    sparse_dot,
    sparse_scale,
    sparse_tail,
    sparse_transpose,
    structural_checks,
    validate_involution,
    validate_page,
    vec_dot,
)


def _max_pid(inv: Involution) -> int:
    pids = [p for pts in inv.fixed_points.values() for p in pts]
    return max(pids, default=0)


def _extend_form(j: Rows, new_cols: list[Sparse], mutual: int) -> Rows:
    """Extend J by one or two classes with sparse pairing functionals new_cols.

    Entry u of new_cols[i] is <u, new_i> for old basis u; <new_0, new_1>
    = mutual.  An old row gains the new columns' entries at its end, as
    their indices follow every old one, and a row that pairs with no new
    class is the parent's own object.
    """
    n = len(j)
    rows = list(j)
    for t, col in enumerate(new_cols):
        for u, x in entries(col):
            rows[u] += (n + t, x)
    for t, col in enumerate(new_cols):
        row = sparse_scale(-1, col)
        if len(new_cols) == 2 and mutual:
            row += (n + 1 - t, mutual if t == 0 else -mutual)
        rows.append(row)
    return tuple(rows)


def _naive_extension(c: Rows, st: StabType) -> Rows:
    """C~ = C (+) L: the extension acts as C on the old classes, whose
    rows are C's own objects, and as the core block L on the new ones,
    which maps each new curve to core_sign times its mirror (a <-> ca
    for a handle pair, a to itself for a single handle)."""
    n, k = len(c), st.handle_count
    return tuple(c) + tuple((n + k - 1 - t, st.core_sign) for t in range(k))


def _block_holds(parent: OpenBook, st: StabType, model: SurfaceModel, inv: Involution) -> bool:
    """Whether the involution, anti_symplectic, curve_image and
    boundary_classes checks of validate_involution, and the disjoint
    check of validate_page, hold on (model, inv), which _finish builds
    from the parent's valid book and the k new classes of a type-st
    handle, from checks of the block alone.

    With n the old rank, the builder guarantees, and this does not
    check:
      * the old book is valid: stabilize refuses any other at the door;
      * the new basis is the old one followed by the classes
        e_n, ..., e_{n+k-1} of the k new curves, whose names the old page
        lacks (_start_builder picks them so), and every old curve keeps
        its class (widened by zeros, which leaves a sparse vector as it
        is);
      * the first n rows of the new form start with the old form J, and
        no row has an index past the new rank;
      * the new matrix is C~ Sigma, with C~ = C (+) L the naive
        extension (_naive_extension): L is antidiagonal with entries
        st.core_sign, one of +-1, and k = st.handle_count is 1 or 2, so
        L^2 = I; Sigma is the positive twist along each new curve, the
        mirror e_{n+1} before e_n for a pair;
      * a curve image equal to the old one names a curve Sigma fixes;
      * the root pairs are the parent's, and the new curves are born at
        one step of the type made.

    Write the new form as J' = [[J, X], [Y, M]].  Checked here, as the
    rest of what the lemma needs: Y = -X^T and M is antisymmetric (each
    new row of J' is minus its column), and the cross block
    C^T X L = -X: k sparse products.  L^T M L = -M needs no check: its
    entry (t, u) is M[k-1-t][k-1-u], which is -M[t][u] for an
    antisymmetric M of size 1 or 2.

    Lemma.  The valid old pair gives C^2 = I and C^T J C = -J, so C~
    is an involution with C~^T J' C~ = -J' (the off-diagonal blocks
    are the cross block and its transpose).  For such a C~ and a
    curve a, C~ T_a C~ = T_{C~ a}^-1: C~ T_a C~ x = x + <C~ x, a> C~ a
    and <C~ x, a> = -<x, C~ a> (Farb & Margalit, A Primer on Mapping
    Class Groups, ch. 3).  As C~ reverses the new curves up to sign
    and T_{-b} = T_b, C~ Sigma C~ = Sigma^-1, so (C~ Sigma)^2 = I.  A
    twist along a new curve e preserves J', because row and column e
    of J' are antisymmetric (Y = -X^T, M) and <e, e> = 0, so
    Sigma^T J' Sigma = J' and (C~ Sigma)^T J' (C~ Sigma) = -J'.  An
    image equal to the old one names a curve Sigma fixes, whose class
    and image's class are the old ones widened by zeros, so C~ Sigma
    maps it as C did; only new or changed images are checked.  A
    circle whose class is its old class q (widened by zeros: the same
    sparse vector) has J' (q, 0) = (J q, Y q) with J q = 0 by the old
    radical check, so it needs X^T q = 0 only, which X = 0 gives
    without forming the product; a new or changed
    circle is checked fresh, with J' d = -sum_i d_i row_i(J') as J'
    is antisymmetric (J by the premise in surface's docstring,
    Y = -X^T and M by the checks above), and the sum of all classes
    is the old sum, zero, moved by the new and changed classes less
    the old classes of changed and removed circles.  The parent's
    disjoint pairs keep <a, b> = 0 in the block J; the step's type adds
    each older curve u with each new one when disjoint_old, at
    <u, e_{n+t}> = u . x_t, which X = 0 makes zero, and its two curves
    when disjoint_mutual, at <a, ca> = M[0][1] (SurfaceModel.births).
    """
    old = parent.page
    n, rank = old.h1_rank, model.h1_rank
    k = rank - n
    rows = model.form
    if k != st.handle_count or len(rows) != rank:
        return False
    # cols[t]: column n + t of J', read off the ends of the rows, where
    # the new indices sit; each new row is minus its column exactly when
    # Y = -X^T and M is antisymmetric; xs[t]: its part above row n (X)
    cols: list[list[int]] = [[] for _ in range(k)]
    for u, r in enumerate(rows):
        if r and r[-2] >= n:
            for at in range(len(r) - 2, -1, -2):
                if r[at] < n:
                    break
                cols[r[at] - n] += (u, r[at + 1])
    if any(rows[n + t] != sparse_scale(-1, tuple(col)) for t, col in enumerate(cols)):
        return False
    xs = [tuple(chain.from_iterable((u, x) for u, x in entries(col) if u < n))
          for col in cols]
    born = model.births.get(model.basis[n])
    # <a, ca> = M[0][1], the entry of row n at index n + 1
    if (born is None or born[1].disjoint_old and any(xs)
            or born[1].disjoint_mutual and k == 2 and dict(entries(rows[n])).get(n + 1)):
        return False
    c_old = parent.real_structure.matrix
    for t in range(k):
        # column t of C^T X L is core_sign C^T x_{k-1-t}, over the nonzeros of x_{k-1-t}
        if (sparse_scale(st.core_sign, sparse_combine(xs[k - 1 - t], c_old))
                != sparse_scale(-1, xs[t])):
            return False

    old_images = parent.real_structure.curve_image
    changed = [(name, img, s) for name, (img, s) in inv.curve_image.items()
               if old_images.get(name) != (img, s)]
    if changed:
        column = partial(sparse_column, inv.matrix)
        if not all(image_holds(model, column, *image) for image in changed):
            return False

    # per circle, d is its class less its old class q (all of it for a
    # new circle), and J' p = (J q, Y q) + J' d, where J q = 0,
    # Y q = -X^T q and J' d = -sum_i d_i row_i(J'); the sum of the d,
    # less the old classes of removed circles, is the sum of all classes
    old_circles = dict(old.circles)
    x_at = [dict(entries(x)) for x in xs] if any(xs) else []
    total: dict[int, int] = {}
    for cid, p in model.circles.items():
        q = old_circles.pop(cid, None)
        if q is None:
            d, jq = p, ()
        else:
            yq = [-sum([x.get(i, 0) * y for i, y in entries(q)]) for x in x_at]
            if p == q:
                if any(yq):
                    return False
                continue
            d = sparse_add(p, q, -1)
            jq = tuple(chain.from_iterable((n + t, y) for t, y in enumerate(yq) if y))
        for i, x in entries(d):
            total[i] = total.get(i, 0) + x
        if sparse_combine(d, rows) != jq:
            return False
    for q in old_circles.values():
        for i, x in entries(q):
            total[i] = total.get(i, 0) - x
    return not any(total.values())


class _Builder(SimpleNamespace):
    """Mutable scratch state while assembling the stabilized book,
    made with every field below given by keyword.

    The new curves are the last len(names) basis classes: the handle
    core a and, for a handle pair, its mirror ca.  The dicts and lists
    are the builder's own, but the vectors and fixed arcs in them are
    the parent's objects until a step changes them: a step replaces an
    entry, and never mutates a vector, a fixed arc or its pair_arcs.
    """

    names: list[str]
    basis: list[str]
    form: Rows
    classes: dict[str, Sparse]
    circles: dict[int, Sparse]                   # cid -> pclass
    perm: dict[int, int]
    fixed_points: dict[int, tuple[int, int]]
    arcs_rows: dict[int, Sparse]                 # cid -> ref-arc pairing row
    minus_arcs: list[FixArc]
    minus_circles: list[Sparse]
    plus_arcs: list[FixArc]
    plus_circles: list[Sparse]
    images: dict[str, tuple[str, int]]
    next_pid: int

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def a_idx(self) -> int:
        return self.rank - len(self.names)

    def new_class(self, t: int = 0) -> Sparse:
        """The class of new curve t: e_a for the core, e_{a+1} for its
        mirror."""
        return (self.a_idx + t, 1)

    def map_arcs(self, f: Callable[[FixArc], FixArc]) -> None:
        """Replace every fixed arc of either side by f(arc); f returns
        the arc itself when it has nothing to change."""
        self.minus_arcs = [f(a) for a in self.minus_arcs]
        self.plus_arcs = [f(a) for a in self.plus_arcs]

    def fresh_pid(self) -> int:
        self.next_pid += 1
        return self.next_pid

    def fresh_cid(self) -> int:
        return max(self.circles) + 1

    def move_ends(self, to: Callable[[int, int], int]) -> None:
        """Move every fixed-arc end (cid, pid) onto circle to(cid, pid)."""
        def moved(a: FixArc) -> FixArc:
            ends = tuple((to(c, p), p) for c, p in a.ends)
            return a if ends == a.ends else replace(a, ends=ends)

        self.map_arcs(moved)

    def merge_boundaries(self, j: int, k: int) -> None:
        """Circle k joins circle j through the handle into one reflection
        circle j: k's reference arc and the crossings with it disappear,
        and fixed-arc ends on k move to j."""
        self.circles[j] = sparse_add(self.circles[j], self.circles.pop(k))
        del self.perm[k]
        self.perm[j] = j
        self.fixed_points.pop(k, None)
        self.arcs_rows.pop(k, None)

        def dropped(a: FixArc) -> FixArc:
            if k not in a.pair_arcs:
                return a
            return replace(a, pair_arcs={l: x for l, x in a.pair_arcs.items() if l != k})

        self.map_arcs(dropped)
        self.move_ends(lambda c, p: j if c == k else c)

    def split_boundary(self, j: int, new: int) -> None:
        """Circle new splits off circle j: its reference arc runs beside
        j's, so it inherits j's row and every fixed piece's crossing with
        j's arc."""
        self.arcs_rows[new] = self.arcs_rows.get(j, ())

        def split(a: FixArc) -> FixArc:
            if j not in a.pair_arcs:
                return a
            return replace(a, pair_arcs={**a.pair_arcs, new: a.pair_arcs[j]})

        self.map_arcs(split)

    def strand(self, ends: tuple[tuple[int, int], tuple[int, int]]) -> FixArc:
        """A fixed arc across the handle: it crosses the core once and
        nothing else."""
        return FixArc(ends=ends, pair_curves=self.new_class(), pair_arcs={})


def _start_builder(ob: OpenBook, tag: str, cols: list[Sparse] | None = None,
                   mutual: int = 0) -> _Builder:
    """Scratch copy of the book with the new curves of a type-tag handle
    installed: the parent's vectors and fixed arcs as they are (a sparse
    vector needs no padding for the new coordinates) in the builder's
    own dicts and lists, the form extended by the new curves' sparse
    pairing columns cols (none by default) and mutual = <a, ca>, sharing
    every row of the parent's form that pairs with no new curve.  The new
    curves are named s{n} and s{n}c for the least n > len(provenance) for
    which the page has neither name."""
    count = STAB_TYPES[tag].handle_count
    model = ob.page
    inv = ob.real_structure
    plus = ob.fix_plus or FixedSet()
    n = len(ob.provenance) + 1
    while f"s{n}" in model.alphabet or f"s{n}c" in model.alphabet:
        n += 1
    names = [f"s{n}", f"s{n}c"][:count]
    return _Builder(
        names=names,
        basis=list(model.basis) + names,
        form=_extend_form(model.form, cols or [()] * count, mutual),
        classes=model.alphabet | {n: (model.h1_rank + i, 1) for i, n in enumerate(names)},
        circles=dict(model.circles),
        perm=dict(inv.boundary_perm),
        fixed_points=dict(inv.fixed_points),
        arcs_rows=dict(model.ref_arcs),
        minus_arcs=list(inv.fixed_set.arcs),
        minus_circles=list(inv.fixed_set.circles),
        plus_arcs=list(plus.arcs),
        plus_circles=list(plus.circles),
        images=dict(inv.curve_image),
        next_pid=_max_pid(inv),
    )


def _shifted(v: Sparse, by: int) -> Sparse:
    """v with every index moved by `by`."""
    if not v:
        return v
    out = list(v)
    out[::2] = [i + by for i in v[::2]]
    return tuple(out)


def _add_at(v: Sparse, idx: Sequence[int], deltas: Sequence[int]) -> Sparse:
    """v plus deltas[t] at coordinate idx[t], for each t."""
    return sparse_add(v, tuple(chain.from_iterable(zip(idx, deltas))))


def _ref_residuals(b: _Builder, old: SurfaceModel) -> Iterator[tuple[int, list[int]]]:
    """The residuals of surface.crossing_residuals over every circle, for
    each arc that can have a nonzero one, in increasing l; every arc
    left out has all residuals zero.

    Lemma.  The parent's residuals are all zero: the book reader
    refuses any other row, and every row a stabilization makes is
    pinned by _fix_ref_rows.  When the basepoint is kept, the pattern
    entry of arc l at circle cid depends only on (l, cid), so an arc
    whose row r is the parent's object (a new arc has none) has, at a
    circle whose class moved from q to p, the residual
    0 - r . (p - q), and -r . p at a new circle, whose fresh id is
    neither l nor the basepoint; at every other circle it keeps its
    zero.  So such an arc is read only at the circles whose class
    changed or is new, and only when its row meets the coordinates
    below the parent's rank where they changed (the parent's rows lie
    below it); an arc whose row changed gets its full residual.
    A moved basepoint changes the pattern everywhere, so every arc gets
    its full residual then.
    """
    circles, rows = b.circles, b.arcs_rows
    cids = sorted(circles)
    if cids[0] != old.basepoint:
        yield from crossing_residuals(circles, rows)
        return
    old_circles, old_rows, n = old.circles, old.ref_arcs, old.h1_rank
    changed = {l: r for l, r in rows.items() if r is not old_rows.get(l)}
    residuals = dict(crossing_residuals(circles, changed)) if changed else {}
    # per old coordinate, the circles whose class moved there, with the
    # move; a parent's row has no entry at the new coordinates
    by_coord: dict[int, list[tuple[int, int]]] = {}
    for k, cid in enumerate(cids):
        p, q = circles[cid], old_circles.get(cid, ())
        if p is not q:
            for i, x in entries(sparse_add(p, q, -1)):
                if i < n:
                    by_coord.setdefault(i, []).append((k, x))
    if by_coord:
        for l, row in rows.items():
            if l in changed or by_coord.keys().isdisjoint(row[::2]):
                continue
            residual = [0] * len(cids)
            for i, a in entries(row):
                for k, x in by_coord.get(i, ()):
                    residual[k] -= a * x
            if any(residual):
                residuals[l] = residual
    for l in sorted(residuals):
        yield l, residuals[l]


def _fix_ref_rows(b: _Builder, new_idx: list[int], old: SurfaceModel) -> None:
    """Pin each reference-arc row to the boundary crossing pattern
    (surface.crossing_residuals), which fixes the crossings with the
    fresh curves that the per-type bookkeeping leaves free.  A zero
    residual needs a zero correction, which the solve would return, so
    only arcs with a nonzero residual back-substitute, and only the
    arcs and circles the handle changed are read (_ref_residuals, on
    the parent page old).  The crossing matrix (the circles' classes at
    new_idx, the last indices) is the same for every arc, so its Smith
    form is factored once, for the first such arc.
    """
    snf = None
    at = b.a_idx
    for l, rhs in _ref_residuals(b, old):
        if not any(rhs):
            continue
        if snf is None:
            snf = factor([_shifted(sparse_tail(b.circles[cid], at), -at)
                          for cid in sorted(b.circles)], len(new_idx))
        sol = snf.solve(rhs)
        if sol is None:
            raise StabilizationError(
                f"reference arc to boundary {l} has no consistent crossing data")
        b.arcs_rows[l] = _add_at(b.arcs_rows[l], new_idx, sol)


def _fix_strand_law(arcs: list[FixArc], page: SurfaceModel, c_new: Rows,
                    new_idx: list[int], w: TwistWord = ()) -> list[FixArc]:
    """Pin fixed-arc crossing data to the invariance law M^T pc = -pc,
    for M = W c_new with W the matrix of the word w (none: M = c_new).

    An invariant arc meets a curve and its involution image in opposite
    signed counts, which ties the crossings with the fresh curves to the
    old ones; the per-type local rules leave exactly that freedom.  The
    law reads M only through pc^T M for each arc and the rows new_idx of
    M, so just those sparse probe rows, the arcs' pc and the unit rows
    of new_idx, are pushed through W (times_word) and then c_new (a
    sparse combination of its rows); M itself is never formed.  The
    system matrix is the same for every arc, so its Smith form is
    factored once, on the first arc that needs it.  An arc that already
    keeps the law is returned as it is.
    """
    if not arcs:
        return arcs
    rank = page.h1_rank
    probes = [arc.pair_curves for arc in arcs] + [(t, 1) for t in new_idx]
    if w:
        probes = times_word(probes, page, w)
    pushed = [sparse_combine(p, c_new) for p in probes]
    snf = None
    out = []
    for arc, pc_m in zip(arcs, pushed):
        residual = sparse_add(pc_m, arc.pair_curves)
        if not residual:
            out.append(arc)
            continue
        if snf is None:
            # column t of the system is the pushed unit row of new_idx[t]
            # plus that unit, transposed as a square matrix padded with
            # zero rows
            cols = [sparse_add(p, (t, 1)) for p, t in zip(pushed[len(arcs):], new_idx)]
            snf = factor(sparse_transpose(cols + [()] * (rank - len(cols))), len(cols))
        delta = snf.solve([-r for r in dense(residual, rank)])
        if delta is None:
            raise StabilizationError(
                "fixed-arc crossing data cannot satisfy the invariance law here")
        out.append(replace(arc, pair_curves=_add_at(arc.pair_curves, new_idx, delta)))
    return out


def _finish(ob: OpenBook, b: _Builder, tag: str, site: tuple) -> OpenBook:
    """Twist along the new curves and validate what the handle changed.

    sigma is the positive twist along each new curve (ca before a for a
    handle pair), and the new real structure is C~ Sigma, with C~ the
    naive extension of the type's core sign, on sparse rows: C~ keeps
    every row of the parent's C, and Sigma rewrites only the rows its
    twists move (times_word).  The strand law of each side pushes only
    its probe rows through the new structure (the plus side first
    through the new word), so F C is never formed.

    The step pays for its handle.  The reference-arc rows are pinned
    from the residuals of the arcs and circles the handle changed
    (_ref_residuals), by the lemma that the parent's residuals are all
    zero: an arc whose row is the parent's keeps a zero residual at
    every circle whose class is the parent's, unless the basepoint
    moved.  The new page inherits the parent's curve vectors for every
    curve whose class it keeps (SurfaceModel.inherit_curve_vectors),
    so the plus side's word costs only its new letters' vectors, and a
    curve image is tested against sigma only when the curve's class
    meets the support of a sigma pairing.

    The parent passed stabilize's door, so the checks of the handle's
    block (_block_holds) stand for validate_involution's algebraic
    checks and validate_page, by the lemma there; the structural checks
    and the plus arcs' ends run in full.  Only a book that fails one is
    validated in full, for the refusal's message.  A book that passes
    has its door memo (OpenBook._door) set open, so a chain of k moves
    decides its reality once, at the first book's door.

    Lemma (the door).  The child passes every check of validate_book,
    or it would have been refused here.  The parent is not NotReal, so
    c f c = f^-1 at the level that decided it, and so c~ f~ c~ = f~^-1
    for the extensions to the new page (on H1 a new class moves by the
    transport defect of its arc, which the parent's boundary-transport
    identity pairs with c).  The block check proves C~ Sigma C~ =
    Sigma^-1 (the lemma of _block_holds, which rests on
    c T_a c = T_{c(a)}^-1), so (c~ sigma)(f~ sigma)(c~ sigma) =
    (c~ sigma c~)(c~ f~ c~)(c~ sigma c~) sigma = (f~ sigma)^-1: the
    child is not NotReal either.  The identity is one of mapping
    classes, so it holds whatever letters the parent's word spells,
    reduced or not.  The child's reality memo stays unset, so
    check_reality on it still decides the verdict and witness in full.
    """
    st = STAB_TYPES[tag]
    rank = b.rank
    new_idx = list(range(b.a_idx, rank))
    _fix_ref_rows(b, new_idx, ob.page)

    # the new curves are born one step after the parent's last; the
    # root's pairs are shared, and the rule of st gives the new ones
    births = ob.page.births
    birth = (max((step for step, _st in births.values()), default=-1) + 1, st)
    page = SurfaceModel(
        circles={cid: b.circles[cid] for cid in sorted(b.circles)},
        basis=tuple(b.basis),
        form=b.form,
        alphabet=b.classes,
        ref_arcs=b.arcs_rows,
        disjoint=ob.page.disjoint,
        births=births | dict.fromkeys(b.names, birth),
    )
    page.inherit_curve_vectors(ob.page)

    sigma_names = b.names[::-1]
    images = {n: (m, st.core_sign) for n, m in zip(b.names, sigma_names)}
    sigma: TwistWord = word([(n, 1) for n in sigma_names])
    new_word = concat(sigma, ob.monodromy)
    c_new = times_word(_naive_extension(ob.real_structure.matrix, st), page, sigma)

    b.minus_arcs = _fix_strand_law(b.minus_arcs, page, c_new, new_idx)
    if ob.fix_plus is not None:
        b.plus_arcs = _fix_strand_law(b.plus_arcs, page, c_new, new_idx, new_word)

    # drop curve images that the twist invalidates (sigma moves the curve);
    # the recorded c~ images survive only for curves sigma fixes
    sigma_pairings = [dict(entries(page.curve_vectors(s).ja)) for s in sigma_names]
    support = set().union(*sigma_pairings)

    def moved(name: str) -> bool:
        cls = b.classes[name]
        if support.isdisjoint(cls[::2]):
            return False
        return any(sum([x * js.get(i, 0) for i, x in entries(cls)]) for js in sigma_pairings)

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
    plus = [] if fix_plus is None else [arc_endpoints_check(inv.fixed_points, fix_plus.arcs)]
    if not (_block_holds(ob, st, page, inv)
            and all(r.ok for r in structural_checks(page, inv) + plus)):
        raise StabilizationError(f"type {tag} at {site}: inconsistent data: "
                                 + failures(validate_involution(page, inv)
                                            + validate_page(page) + plus))
    vars(out)["_door"] = None
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
    boundary, or on one reflection circle twice for V or VI, raises
    StabilizationError.
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
        if j == k:
            raise StabilizationError(f"type {st.tag} needs two distinct boundaries")
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


Pattern = list[tuple[Sparse, int]]


def _attachment_pattern(ob: OpenBook, j: int, k: int) -> Pattern:
    """The boundary pattern of a handle joining circles j and k, as
    (P, P . v) pairs over the old basis, P the page's sparse pushoff
    class and v the pairing functional of the new curve: P_j . v = -1,
    P_k . v = +1 and P_o . v = 0 for every other circle o, in circle
    order."""
    circles = ob.page.circles
    return ([(circles[j], -1), (circles[k], 1)]
            + [(p, 0) for cid, p in circles.items() if cid not in (j, k)])


def _solve_pushoff_column(pattern: Pattern, c_old: Rows, symmetry: int) -> Sparse:
    """Pairing functional v of the new curve, sparse: the attachment
    pattern and C^T v = symmetry * v, over the old basis.  Row i of
    C^T - symmetry I is column i of C less symmetry e_i."""
    n = len(c_old)
    rows = [p for p, _ in pattern] + [sparse_add(col, (i, symmetry), -1)
                                     for i, col in enumerate(sparse_transpose(c_old))]
    sol = factor(rows, n).solve([want for _, want in pattern] + [0] * n)
    if sol is None:
        raise StabilizationError("no consistent pairing data for the attachment site")
    return sparse(sol)


def _unit_minus(i: int, r: Sparse, s: int = 1, by: int = 0) -> Sparse:
    """s (e_i - r), its indices moved up by `by`, in one pass over r."""
    out: list[int] = []
    put = True
    for j, x in entries(r):
        if put and j >= i:
            put = False
            if j == i:
                if x != 1:
                    out += (i + by, s * (1 - x))
                continue
            out += (i + by, s)
        out += (j + by, -s * x)
    if put:
        out += (i + by, s)
    return tuple(out)


def _solve_viii_data(pattern: Pattern, c_old: Rows, form: Rows) -> tuple[Sparse, Sparse, int, int]:
    """Attachment data (v, w, x, m) for type VIII.

    v is the pairing functional of the new curve, the re-formed boundary
    classes are x (e_a + e_ca) + w, and m = <a, c~(a)> (the handle
    chords may be forced to cross once, depending on the host).  Linear
    part: the attachment pattern on v, (1 - C) w = P_j + P_k and
    x (v - C^T v) + J w = 0; the radical conditions for the boundary
    class, v . w = x m = (C^T v) . w, are bilinear.  The second equality
    holds on the whole solution lattice: x (v - C^T v) = -J w gives
    (v - C^T v) . w = -w^T J w / x = 0, as J is antisymmetric (x = +-1).
    So only v . w = x m is tested.  (m, x) runs over m in (0, 1, -1),
    x in (1, -1); the linear system depends on x only and is factored
    and solved at most once per x.  For each (m, x) the lattice
    candidates are walked in a fixed order (the particular solution,
    then combinations of up to four kernel generators with coefficients
    -2..2) up to the first with v . w = x m.

    The particular point is tried first: when q(base) = x m, base is the
    first candidate of the walk, and it is returned with no kernel
    generator read and no score formed.  Otherwise candidates are scored
    through their coefficients, not built.  With q(z) = v . w for
    z = (v, w) and its polar form B(y, z) = y_v . z_w + z_v . y_w,
      q(base + sum c_i g_i) = q(base) + sum c_i B(base, g_i)
                              + sum c_i^2 q(g_i) + sum_{i<j} c_i c_j B(g_i, g_j),
    so the scores of a lattice need at most 15 values of q and B, once
    per x (_lattice_scores), and only the first hit is built as a point.
    The rows are sparse over (v, w), the w half shifted by n, as factor
    takes them; each row of 1 - C and of x (1 - C^T) is built in one
    pass.
    """
    n = len(c_old)
    (pj, _), (pk, _) = pattern[:2]
    # the pattern on v, then (1 - C) w = P_j + P_k
    rows = [p for p, _ in pattern] + [_unit_minus(i, r, by=n) for i, r in enumerate(c_old)]
    rhs = [want for _, want in pattern] + dense(sparse_add(pj, pk), n) + [0] * n
    ct = sparse_transpose(c_old)

    def polar(y: Sequence[int], z: Sequence[int]) -> int:
        return vec_dot(y[:n], z[n:]) + vec_dot(z[:n], y[n:])

    @cache
    def lattice(x_coef: int):
        # row i is x (e_i - C^T e_i) followed by row i of J
        snf = factor(rows + [_unit_minus(i, cti, x_coef) + _shifted(form[i], n)
                             for i, cti in enumerate(ct)], 2 * n)
        base = snf.solve(rhs)
        return None if base is None else (snf, base, vec_dot(base[:n], base[n:]))

    @cache
    def walk(x_coef: int):
        snf, base, q0 = lattice(x_coef)
        gens = list(islice(snf.kernel(), 4))
        return gens, _lattice_scores(
            q0,
            [polar(base, g) for g in gens],
            [vec_dot(g[:n], g[n:]) for g in gens],
            [[polar(g, h) if l > i else 0 for l, h in enumerate(gens)]
             for i, g in enumerate(gens)])

    for m, x_coef in product((0, 1, -1), (1, -1)):
        found = lattice(x_coef)
        if found is None:
            continue
        _snf, base, q0 = found
        target = x_coef * m
        if q0 == target:
            xx = base
        else:
            gens, scores = walk(x_coef)
            if target not in scores:
                continue
            xx = _lattice_point(base, gens, scores.index(target))
        return sparse(xx[:n]), sparse(xx[n:]), x_coef, m
    raise StabilizationError("type VIII: no consistent boundary class at this site")


_COEFS = range(-2, 3)


def _lattice_scores(q0: int, lin: Sequence[int], quad: Sequence[int],
                    cross: Sequence[Sequence[int]]) -> list[int]:
    """The scores of the candidates in walk order: q(base), then
    q(base + sum c_i g_i) for every (c_1, c_2, ...) in product(-2..2),
    lexicographic.  lin, quad and cross hold B(base, g_i), q(g_i) and
    B(g_i, g_j).  The list grows one coefficient at a time; pend[l]
    holds, per prefix, the coefficient of c_l that the prefix leaves:
    B(base, g_l) + sum of c_i B(g_i, g_l) over the prefix."""
    k = len(lin)
    scores = [q0]
    pend: list[list[int] | None] = [[x] for x in lin]
    for i in range(k):
        scores = [s + c * (a + c * quad[i]) for s, a in zip(scores, pend[i]) for c in _COEFS]
        pend = [[x + c * cross[i][l] for x in pend[l] for c in _COEFS] if l > i else None
                for l in range(k)]
    return [q0] + scores


def _lattice_point(base: tuple[int, ...], gens: Sequence[tuple[int, ...]],
                   index: int) -> tuple[int, ...]:
    """The candidate at position index of the walk: base at 0, then
    base + sum c_i g_i with (c_1, c_2, ...) read as base-5 digits of
    index - 1, most significant first, each digit d giving c = d - 2."""
    if index == 0:
        return base
    digits = []
    index -= 1
    for _ in gens:
        index, d = divmod(index, len(_COEFS))
        digits.append(_COEFS[d])
    xx = list(base)
    for c, g in zip(reversed(digits), gens):
        if c:
            xx = [a + c * b for a, b in zip(xx, g)]
    return tuple(xx)


def _plus_join(b: _Builder, j_end: tuple[int, int], k_end: tuple[int, int]) -> None:
    """Join the plus-side arcs ending at two retired fixed points through
    the handle core (the naive extension fixes the core pointwise)."""
    hits = [i for i, a in enumerate(b.plus_arcs) if j_end in a.ends or k_end in a.ends]
    if not hits:
        raise StabilizationError("fix_plus data missing arcs at the attachment points")
    if len(hits) == 1 or hits[0] == hits[-1]:
        arc = b.plus_arcs.pop(hits[0])
        # closed up: core + arc; class is the new curve class corrected so
        # the crossing functional matches the arc data; J^T e_a is row a
        # of J, and the rows of J^T are the columns of J
        need = sparse_add(set_coord(arc.pair_curves, b.a_idx, 0), b.form[b.a_idx], -1)
        w = factor(sparse_transpose(b.form), b.rank).solve(dense(need, b.rank))
        if w is None:
            raise StabilizationError("joined fixed circle has no consistent class")
        b.plus_circles.append(sparse_add(sparse(w), b.new_class()))
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
                   pair_curves=sparse_add(a1.pair_curves, a2.pair_curves),
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
    for cid, row in list(b.arcs_rows.items()):
        if x.pair_arcs.get(cid, 0):
            b.arcs_rows[cid] = set_coord(row, b.a_idx, -x.pair_arcs[cid])


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
    ValueError, so the CLI exits 2.  Incompatible sites, NotReal input
    and a book that fails a check of validate (openbook.validate_book)
    raise StabilizationError (CLI exit 1), the last naming each failing
    check.  The door is the book's memo (OpenBook._door), which the
    block check opens on every book stabilize makes (_finish), so a
    chain of moves decides its root's reality and validity once.
    """
    st = STAB_TYPES.get(tag)
    if st is None:
        raise StabilizationError(f"unknown stabilization type {tag!r}")
    refusal = ob._door
    if refusal is not None:
        raise StabilizationError(refusal)
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
    n = ob.page.h1_rank
    form = ob.page.form
    arcs = sorted(ob.page.ref_arcs.items())
    # row i of C^T J + J: column i of C combined over the rows of J,
    # plus row i of J
    sym = [sparse_add(sparse_combine(col, form), r)
           for col, r in zip(sparse_transpose(ob.real_structure.matrix), form)]
    z = factor(list(form) + [row for _l, row in arcs] + sym, n).solve(
        [-pc for pc in dense(x.pair_curves, n)]
        + [-x.pair_arcs.get(l, 0) for l, _row in arcs] + [0] * n)
    if z is None:
        raise StabilizationError("type I: closing arc has no consistent closed class")

    jz = sparse(sum([y * z[i] for i, y in entries(r)]) for r in form)
    b = _start_builder(ob, "I", [jz])
    pj = b.circles[j]
    j2 = b.fresh_cid()
    b.circles[j] = sparse_add(b.new_class(), sparse(z), -1)
    b.circles[j2] = sparse_add(pj, b.circles[j], -1)
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
    a = b.new_class()
    pj = b.circles[j]
    j2 = b.fresh_cid()
    n1 = b.fresh_pid()
    n2 = b.fresh_pid()
    b.circles[j] = a
    b.circles[j2] = sparse_add(pj, a, -1)
    b.perm[j2] = j2
    b.fixed_points[j] = (keep, n1)
    b.fixed_points[j2] = (shadow, n2)

    # strand switch on the minus side at the shadowed point
    y = b.minus_arcs.pop(_arc_at(b.minus_arcs, (j, shadow), "fixed arc"))
    far = y.ends[0] if y.ends[1] == (j, shadow) else y.ends[1]
    arc1 = FixArc(ends=(far, (j2, n2)),
                  pair_curves=set_coord(y.pair_curves, b.a_idx, 1),
                  pair_arcs=y.pair_arcs)
    b.minus_arcs.extend([arc1, b.strand(((j2, shadow), (j, n1)))])

    # plus side: the chord crosses the strand at the shadowed point, which
    # now lives on the new circle; a new transversal strand crosses the core
    zi = _arc_at(b.plus_arcs, (j, shadow), "plus-side fixed arc")
    z = b.plus_arcs[zi]
    ends = tuple((j2, p) if (c == j and p == shadow) else (c, p) for c, p in z.ends)
    b.plus_arcs[zi] = FixArc(ends=ends,
                             pair_curves=set_coord(z.pair_curves, b.a_idx, 1),
                             pair_arcs=z.pair_arcs)
    b.plus_arcs.append(b.strand(((j, n1), (j2, n2))))

    b.split_boundary(j, j2)
    # the far strand (arc1, as split_boundary left it) is the one the new
    # reference arc crosses
    i = _arc_at(b.minus_arcs, (j2, n2), "fixed arc")
    arc1 = b.minus_arcs[i]
    b.minus_arcs[i] = replace(arc1, pair_arcs={**arc1.pair_arcs,
                                               j2: arc1.pair_arcs.get(j2, 0) + 1})
    return _finish(ob, b, "II", site)


def _stab_III(ob: OpenBook, site: tuple) -> OpenBook:
    (j,) = site
    b = _start_builder(ob, "III")
    x_cid = b.fresh_cid()
    y_cid = x_cid + 1
    b.circles[x_cid] = b.new_class(0)
    b.circles[y_cid] = sparse_scale(-1, b.new_class(1))
    b.circles[j] = sparse_add(sparse_add(b.circles[j], b.circles[x_cid], -1),
                              b.circles[y_cid], -1)
    b.perm[x_cid] = y_cid
    b.perm[y_cid] = x_cid
    b.split_boundary(j, x_cid)
    b.split_boundary(j, y_cid)
    return _finish(ob, b, "III", site)


def _stab_IV(ob: OpenBook, site: tuple) -> OpenBook:
    j, shadow = site
    b = _start_builder(ob, "IV", mutual=1)
    # both chords shadow the same real point: its strands pick up one
    # crossing with each new curve as a seed; the invariance-law pass in
    # _finish settles the exact values
    seed = sparse_add(b.new_class(0), b.new_class(1))
    for arcs, what in ((b.minus_arcs, "fixed arc"), (b.plus_arcs, "plus-side fixed arc")):
        i = _arc_at(arcs, (j, shadow), what)
        arcs[i] = replace(arcs[i], pair_curves=sparse_add(arcs[i].pair_curves, seed))
    return _finish(ob, b, "IV", site)


def _stab_V(ob: OpenBook, site: tuple) -> OpenBook:
    j, k = site
    x = _minus_arc_between(ob, j, k)
    if x is None:
        raise StabilizationError(
            f"type V needs a fixed arc joining boundaries {j} and {k}")
    # the twist curve is core + consumed arc, so its pairing column is
    # forced by the arc's declared crossings up to orientation; the
    # attachment is valid only if one orientation has the
    # boundary-crossing pattern
    v_a = sparse_scale(-1, x.pair_curves)
    pattern = _attachment_pattern(ob, j, k)
    for candidate in (v_a, sparse_scale(-1, v_a)):
        if all(sparse_dot(p, candidate) == want for p, want in pattern):
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
    c_old = ob.real_structure.matrix
    # anti-invariant functional keeps the re-formed boundary classes radical
    v_a = _solve_pushoff_column(_attachment_pattern(ob, j, k), c_old, -1)
    v_ca = _mirror_functional(c_old, v_a)

    b = _start_builder(ob, "VI", [v_a, v_ca])
    # circles re-form: first points gather on j, second points on k
    pj_pts = ob.real_structure.fixed_points[j]
    pk_pts = ob.real_structure.fixed_points[k]
    diag = sparse_add(b.new_class(0), b.new_class(1), -1)
    b.circles[j] = sparse_add(sparse_add(b.circles[j], b.circles[k]), diag)
    b.circles[k] = sparse_scale(-1, diag)
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
    v_a = _solve_pushoff_column(_attachment_pattern(ob, j, k), ob.real_structure.matrix, +1)

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
                                   pair_curves=set_coord(t.pair_curves, b.a_idx, 1),
                                   pair_arcs=t.pair_arcs))
        b.minus_arcs.append(b.strand((e2, (j, n2))))
    else:
        ci = next(i for i, c in enumerate(b.minus_circles) if c == target)
        # J^T of the circle's class, combined from the rows of J
        row = sparse_combine(b.minus_circles.pop(ci), b.form)
        b.minus_arcs.append(FixArc(ends=((j, n1), (j, n2)),
                                   pair_curves=sparse_add(row, b.new_class()),
                                   pair_arcs={}))

    # plus side gains the transversal handle strand
    b.plus_arcs.append(b.strand(((j, n1), (j, n2))))
    return _finish(ob, b, "VII", site)


def _stab_VIII(ob: OpenBook, site: tuple) -> OpenBook:
    j, k = site
    c_old = ob.real_structure.matrix
    v_a, w, x_coef, mutual = _solve_viii_data(_attachment_pattern(ob, j, k), c_old,
                                              ob.page.form)
    v_ca = _mirror_functional(c_old, v_a)

    b = _start_builder(ob, "VIII", [v_a, v_ca], mutual)
    new_j = sparse_add(w, (b.a_idx, x_coef, b.a_idx + 1, x_coef))
    b.circles[j] = new_j
    # -C~ new_j, each row of C~ dotted through one index of new_j
    at = dict(entries(new_j))
    b.circles[k] = sparse([-sum([x * at.get(i, 0) for i, x in entries(r)])
                           for r in _naive_extension(c_old, STAB_TYPES["VIII"])])
    return _finish(ob, b, "VIII", site)


def _stab_IX(ob: OpenBook, site: tuple) -> OpenBook:
    j, k = site
    b = _start_builder(ob, "IX")
    a, ca = b.new_class(0), b.new_class(1)
    pj, pk = b.circles[j], b.circles[k]
    j2 = b.fresh_cid()
    k2 = j2 + 1
    b.circles[j] = a
    b.circles[j2] = sparse_add(pj, a, -1)
    b.circles[k] = sparse_scale(-1, ca)
    b.circles[k2] = sparse_add(pk, ca)
    b.perm.update({j: k, k: j, j2: k2, k2: j2})
    b.split_boundary(j, j2)
    b.split_boundary(k, k2)
    return _finish(ob, b, "IX", site)


# ---------------------------------------------------------------------------
# site enumeration (used by the randomized suites)


def enumerate_sites(ob: OpenBook) -> list[tuple[str, dict]]:
    """All (type, site) combinations whose preconditions hold on this book."""
    inv = ob.real_structure
    out: list[tuple[str, dict]] = []
    refl = [cid for cid in ob.page.circles if inv.boundary_perm.get(cid) == cid]
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
