"""The nine positive real stabilizations of a real open book, and the
handle bookkeeping they share.

Stabilization bookkeeping follows local handle models.  The new real
structure is (extension of c) composed with the stabilizing twist(s);
its matrix is C~ @ Sigma, its fixed set is the old one pushed through a
strand-switch analysis near the twisting annuli.  Every output is
validated (involution axioms, Lefschetz arc count), from the checks of
the new block when the parent is valid; incompatible sites raise
instead of producing inconsistent data.

The book, the reality check and H1 are in realbook.openbook, which
re-exports stabilize, enumerate_sites and _stab_{T} lazily; of the
command line's subcommands only stabilize and catalog load this module.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from types import SimpleNamespace
from typing import Callable, Mapping, Sequence

from .errors import StabilizationError
from .intalg import (
    IntMatrix,
    smith_normal_form,
    snf_solve,
    solve_integer,
    solve_integer_affine,
)
from .mcg import TwistWord, concat, times_word, word
from .openbook import (
    STAB_TYPES,
    OpenBook,
    Reality,
    StabRecord,
    StabType,
    _mirror_functional,
    _seed_chain_blocks,
    check_reality,
)
from .records import replace
from .surface import (
    FixArc,
    FixedSet,
    HandleExtension,
    Involution,
    SurfaceModel,
    crossing_residuals,
    unit,
    validate_involution,
    vec_add,
    vec_dot,
    vec_scale,
)


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
    return IntMatrix._trusted(rows, n + k)


def _core_block(st: StabType) -> tuple[tuple[int, ...], ...]:
    """The block of C~ on the new classes: each new curve goes to
    core_sign times its mirror (a <-> ca for a handle pair, a to itself
    for a single handle)."""
    k = st.handle_count
    return tuple(tuple(st.core_sign if t + u == k - 1 else 0 for u in range(k))
                 for t in range(k))


def _naive_extension(c: IntMatrix, st: StabType) -> IntMatrix:
    """C~ = C (+) _core_block(st): the extension acts as C on the old
    classes and as the core block on the new ones."""
    n, k = c.nrows, st.handle_count
    rows = [r + (0,) * k for r in c.rows]
    rows.extend((0,) * n + r for r in _core_block(st))
    return IntMatrix._trusted(rows, n + k)


class _Builder(SimpleNamespace):
    """Mutable scratch state while assembling the stabilized book,
    made with every field below given by keyword.

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
    minus_circles: list[tuple[int, ...]]
    plus_arcs: list[FixArc]
    plus_circles: list[tuple[int, ...]]
    images: dict[str, tuple[str, int]]
    next_pid: int

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def a_idx(self) -> int:
        return self.rank - len(self.names)

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

    def strand(self, ends: tuple[tuple[int, int], tuple[int, int]]) -> FixArc:
        """A fixed arc across the handle: it crosses the core once and
        nothing else."""
        return FixArc(ends=ends, pair_curves=unit(self.rank, self.a_idx), pair_arcs={})


def _start_builder(ob: OpenBook, tag: str, cols: list[tuple[int, ...]] | None = None,
                   mutual: int = 0) -> _Builder:
    """Scratch copy of the book with the new curves of a type-tag handle
    installed: every old vector widened by zero coordinates, the form
    extended by the new curves' pairing columns cols (zero by default)
    and mutual = <a, ca>.  The new curves are named s{n} and s{n}c for
    the least n > len(provenance) for which the page has neither name."""
    count = STAB_TYPES[tag].handle_count
    model = ob.page
    inv = ob.real_structure
    n = len(ob.provenance) + 1
    while f"s{n}" in model.alphabet or f"s{n}c" in model.alphabet:
        n += 1
    names = [f"s{n}", f"s{n}c"][:count]
    rank = model.h1_rank + count
    ext = lambda v: _extend_vec(v, count)
    return _Builder(
        names=names,
        basis=list(model.basis) + names,
        form=_extend_form(model.form, cols or [(0,) * model.h1_rank] * count, mutual),
        classes={n: ext(c) for n, c in model.alphabet.items()}
        | {n: unit(rank, rank - count + i) for i, n in enumerate(names)},
        circles={cid: ext(p) for cid, p in model.circles.items()},
        perm=dict(inv.boundary_perm),
        fixed_points=dict(inv.fixed_points),
        arcs_rows={cid: ext(row) for cid, row in model.ref_arcs.items()},
        minus_arcs=[replace(a, pair_curves=ext(a.pair_curves), pair_arcs=dict(a.pair_arcs))
                    for a in inv.fixed_set.arcs],
        minus_circles=[ext(c) for c in inv.fixed_set.circles],
        plus_arcs=[replace(a, pair_curves=ext(a.pair_curves), pair_arcs=dict(a.pair_arcs))
                   for a in (ob.fix_plus.arcs if ob.fix_plus else ())],
        plus_circles=[ext(c) for c in (ob.fix_plus.circles if ob.fix_plus else ())],
        images=dict(inv.curve_image),
        next_pid=_max_pid(inv),
    )


def _fix_ref_rows(b: _Builder, new_idx: list[int]) -> None:
    """Pin each reference-arc row to the boundary crossing pattern
    (surface.crossing_residuals), which fixes the crossings with the
    fresh curves that the per-type bookkeeping leaves free.  A zero
    residual needs a zero correction, which snf_solve would return, so
    only arcs with a nonzero residual back-substitute.  The crossing
    matrix is the same for every arc, so its Smith form is factored
    once, for the first such arc.
    """
    snf = None
    for l, rhs in crossing_residuals(b.circles, b.arcs_rows):
        if not any(rhs):
            continue
        if snf is None:
            snf = smith_normal_form(IntMatrix._trusted(
                [[b.circles[cid][t] for t in new_idx] for cid in sorted(b.circles)],
                len(new_idx)))
        sol = snf_solve(snf, rhs)
        if sol is None:
            raise StabilizationError(
                f"reference arc to boundary {l} has no consistent crossing data")
        row = b.arcs_rows[l]
        for t, d in zip(new_idx, sol):
            row = _set_coord(row, t, row[t] + d)
        b.arcs_rows[l] = row


def _fix_strand_law(arcs: list[FixArc], page: SurfaceModel, c_new: IntMatrix,
                    new_idx: list[int], w: TwistWord = ()) -> list[FixArc]:
    """Pin fixed-arc crossing data to the invariance law M^T pc = -pc,
    for M = W c_new with W the matrix of the word w (none: M = c_new).

    An invariant arc meets a curve and its involution image in opposite
    signed counts, which ties the crossings with the fresh curves to the
    old ones; the per-type local rules leave exactly that freedom.  The
    law reads M only through pc^T M for each arc and the rows new_idx of
    M, so just those probe rows, the arcs' pc and the unit rows of
    new_idx, are pushed through W (times_word) and then c_new (the
    scatter product); M itself is never formed.  The system matrix is
    the same for every arc, so its Smith form is factored once, on the
    first arc that needs it.
    """
    if not arcs:
        return arcs
    rank = page.h1_rank
    probes = IntMatrix([arc.pair_curves for arc in arcs] + [unit(rank, t) for t in new_idx],
                       ncols=rank)
    if w:
        probes = times_word(probes, page, w)
    pushed = (probes @ c_new).rows
    new_rows = pushed[len(arcs):]
    snf = None
    out = []
    for arc, pc_m in zip(arcs, pushed):
        pc = arc.pair_curves
        residual = vec_add(pc_m, pc)
        if not any(residual):
            out.append(arc)
            continue
        if snf is None:
            snf = smith_normal_form(IntMatrix(
                [[row[i] + (1 if i == t else 0) for row, t in zip(new_rows, new_idx)]
                 for i in range(rank)],
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
    """Twist along the new curves and validate what the handle changed.

    sigma is the positive twist along each new curve (ca before a for a
    handle pair), and the new real structure is C~ Sigma, with C~ the
    naive extension of the type's core sign.  The strand law of each
    side pushes only its probe rows through the new structure (the plus
    side first through the new word), so F C is never formed.

    The output goes through validate_involution as a handle extension
    of the parent (HandleExtension) when the parent's validity memo
    holds: the block's checks stand for the algebraic ones, by the lemma
    of surface._handle_block_holds, and the structural checks run in
    full.  A failing block check, or a parent whose memo is false, gets
    the full report, so a refusal names the same checks and details as
    a full validation.  An accepted book is valid, so its memo is seeded
    True.  Its chain memo is seeded from the parent's plus a check of
    the new block alone (_seed_chain_blocks), so a chain of k moves
    does not re-peel k blocks per move.
    """
    st = STAB_TYPES[tag]
    rank = b.rank
    new_idx = list(range(b.a_idx, rank))
    _fix_ref_rows(b, new_idx)

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
    sigma_pairings = [page.curve_tables(s)[0] for s in sigma_names]

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
    extends = (HandleExtension(ob.page, ob.real_structure, _core_block(st))
               if ob._involution_valid else None)
    report = validate_involution(page, inv, extends)
    bad = [r for r in report if not r.ok]
    if bad:
        raise StabilizationError(f"type {tag} at {site}: inconsistent data: "
                                 + "; ".join(f"{r.name}: {r.detail}" for r in bad))
    vars(out)["_involution_valid"] = True
    _seed_chain_blocks(ob, out)
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


Pattern = list[tuple[Sequence[int], int]]


def _attachment_pattern(ob: OpenBook, j: int, k: int) -> Pattern:
    """The boundary pattern of a handle joining circles j and k, as
    (P, P . v) pairs over the old basis, P a pushoff class and v the
    pairing functional of the new curve: P_j . v = -1, P_k . v = +1 and
    P_o . v = 0 for every other circle o, in circle order."""
    page = ob.page
    return ([(page.circles[j], -1), (page.circles[k], 1)]
            + [(p, 0) for cid, p in page.circles.items() if cid not in (j, k)])


def _solve_pushoff_column(pattern: Pattern, c_old: IntMatrix,
                          symmetry: int | None) -> tuple[int, ...]:
    """Pairing functional v of the new curve: the attachment pattern,
    and optionally C^T v = symmetry * v.  Everything over the old
    basis."""
    n = c_old.nrows
    rows: list[list[int]] = [list(p) for p, _ in pattern]
    rhs = [want for _, want in pattern]
    if symmetry is not None:
        ct = c_old.transpose()
        for i in range(n):
            row = [ct[i, u] - (symmetry if i == u else 0) for u in range(n)]
            rows.append(row)
            rhs.append(0)
    sol = solve_integer(IntMatrix(rows, ncols=n), rhs)
    if sol is None:
        raise StabilizationError("no consistent pairing data for the attachment site")
    return tuple(sol)


def _solve_viii_data(
    pattern: Pattern, c_old: IntMatrix, form: IntMatrix,
) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
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
    x in (1, -1); the linear system depends on x only and is solved at
    most once per x.  For each (m, x) the lattice candidates are walked
    in a fixed order (the particular solution, then combinations of up
    to four kernel generators with coefficients -2..2) up to the first
    with v . w = x m.

    Candidates are scored through their coefficients, not built.  With
    q(z) = v . w for z = (v, w) and its polar form
    B(y, z) = y_v . z_w + z_v . y_w,
      q(base + sum c_i g_i) = q(base) + sum c_i B(base, g_i)
                              + sum c_i^2 q(g_i) + sum_{i<j} c_i c_j B(g_i, g_j),
    so the scores of a lattice need at most 15 values of q and B, once
    per x (_lattice_scores), and only the first hit is built as a point.
    """
    n = c_old.nrows
    ct = c_old.transpose()
    one_minus_c = IntMatrix.identity(n) - c_old
    rows: list[list[int]] = [list(p) + [0] * n for p, _ in pattern]
    rhs: list[int] = [want for _, want in pattern]
    (pj, _), (pk, _) = pattern[:2]
    for i in range(n):
        rows.append([0] * n + list(one_minus_c.rows[i]))
        rhs.append(pj[i] + pk[i])
    rhs.extend([0] * n)

    def polar(y: Sequence[int], z: Sequence[int]) -> int:
        return vec_dot(y[:n], z[n:]) + vec_dot(z[:n], y[n:])

    @cache
    def lattice(x_coef: int):
        # row i is x (e_i - C^T e_i) followed by row i of J
        x_rows = []
        for i, cti in enumerate(ct.rows):
            row = [-x_coef * c for c in cti]
            row[i] += x_coef
            x_rows.append(row + list(form.rows[i]))
        sol = solve_integer_affine(IntMatrix._trusted(rows + x_rows, 2 * n), rhs)
        if sol is None:
            return None
        base, kernel = sol
        gens = kernel[:4]
        scores = _lattice_scores(
            vec_dot(base[:n], base[n:]),
            [polar(base, g) for g in gens],
            [vec_dot(g[:n], g[n:]) for g in gens],
            [[polar(g, h) if l > i else 0 for l, h in enumerate(gens)]
             for i, g in enumerate(gens)])
        return base, gens, scores

    for m, x_coef in product((0, 1, -1), (1, -1)):
        found = lattice(x_coef)
        if found is None:
            continue
        base, gens, scores = found
        target = x_coef * m
        if target in scores:
            xx = _lattice_point(base, gens, scores.index(target))
            return xx[:n], xx[n:], x_coef, m
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
        base = unit(b.rank, b.a_idx)
        need = vec_add(target, vec_scale(-1, b.form.transpose().apply(base)))
        w = solve_integer(b.form.transpose(), need)
        if w is None:
            raise StabilizationError("joined fixed circle has no consistent class")
        b.plus_circles.append(vec_add(base, w))
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
    for l, row in sorted(ob.page.ref_arcs.items()):
        z_rows.append(list(row))
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
    b.circles[j] = vec_add(unit(b.rank, b.a_idx), vec_scale(-1, _extend_vec(z, 1)))
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
    a = unit(b.rank, b.a_idx)
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
    return _finish(ob, b, "II", site)


def _stab_III(ob: OpenBook, site: tuple) -> OpenBook:
    (j,) = site
    b = _start_builder(ob, "III")
    x_cid = b.fresh_cid()
    y_cid = x_cid + 1
    b.circles[x_cid] = unit(b.rank, b.a_idx)
    b.circles[y_cid] = vec_scale(-1, unit(b.rank, b.a_idx + 1))
    pj = b.circles[j]
    b.circles[j] = vec_add(pj, vec_add(vec_scale(-1, b.circles[x_cid]),
                                       vec_scale(-1, b.circles[y_cid])))
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
    seed = vec_add(unit(b.rank, b.a_idx), unit(b.rank, b.a_idx + 1))
    for arcs, what in ((b.minus_arcs, "fixed arc"), (b.plus_arcs, "plus-side fixed arc")):
        i = _arc_at(arcs, (j, shadow), what)
        arcs[i] = replace(arcs[i], pair_curves=vec_add(arcs[i].pair_curves, seed))
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
    v_a = tuple(-pc for pc in x.pair_curves[:ob.page.h1_rank])
    pattern = _attachment_pattern(ob, j, k)
    for candidate in (v_a, tuple(-v for v in v_a)):
        if all(vec_dot(p, candidate) == want for p, want in pattern):
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
    diag = vec_add(unit(b.rank, b.a_idx), vec_scale(-1, unit(b.rank, b.a_idx + 1)))
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
                                   pair_curves=_set_coord(t.pair_curves, b.a_idx, 1),
                                   pair_arcs=dict(t.pair_arcs)))
        b.minus_arcs.append(b.strand((e2, (j, n2))))
    else:
        ci = next(i for i, c in enumerate(b.minus_circles) if c[:old_rank] == target)
        row = tuple(b.form.transpose().apply(b.minus_circles.pop(ci)))
        b.minus_arcs.append(FixArc(ends=((j, n1), (j, n2)),
                                   pair_curves=_set_coord(row, b.a_idx, row[b.a_idx] + 1),
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
    new_j = vec_add(
        vec_scale(x_coef, vec_add(unit(b.rank, b.a_idx), unit(b.rank, b.a_idx + 1))), _extend_vec(w, 2))
    b.circles[j] = new_j
    b.circles[k] = vec_scale(-1, _naive_extension(c_old, STAB_TYPES["VIII"]).apply(new_j))
    return _finish(ob, b, "VIII", site)


def _stab_IX(ob: OpenBook, site: tuple) -> OpenBook:
    j, k = site
    b = _start_builder(ob, "IX")
    a, ca = unit(b.rank, b.a_idx), unit(b.rank, b.a_idx + 1)
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
