"""Real Heegaard data derived from a real open book.

The two invariant pages glue to the splitting surface; the involution on
it is carried as block data: c acts on one page and f o c on the other,
on first homology C and F C.  The real part of the ambient manifold is
the union of the two fixed sets, assembled into circles across the shared
binding fixed points; a component separates the splitting surface
exactly when its mod-2 class vanishes, which the declared crossing data
detects against an explicit basis.
"""

from __future__ import annotations

from .errors import BookNotReal, RealPartUnavailable
from .openbook import OpenBook, Reality, check_reality
from .records import record
from .surface import (
    Rows,
    anti_symplectic_check,
    entries,
    involution_check,
    lefschetz_check,
    sparse_combine,
    sparse_dot,
)


@record
class HeegaardData:
    plus_matrix: Rows                      # f o c on H1 of the page, F C, as sparse rows

    @property
    def genus(self) -> int:
        """The genus of the splitting surface, two pages glued along the
        binding: the rank of H1 of the page, the size of F C."""
        return len(self.plus_matrix)


@record
class RealComponent:
    pieces: int
    h1_class: tuple[int, ...]              # mod-2 class in the closed-surface basis

    @property
    def separating(self) -> bool:
        return all(v == 0 for v in self.h1_class)


@record
class RealPartData:
    components: tuple[RealComponent, ...]

    @property
    def count(self) -> int:
        return len(self.components)

    def separating_flags(self) -> tuple[bool, ...]:
        return tuple(c.separating for c in self.components)


def heegaard_data(ob: OpenBook) -> HeegaardData:
    """The derived real splitting: the gluing block data F C, the
    action of f o c on first homology of the page, whose size is the
    splitting's genus (the other block, C, is the book's own
    real_structure.matrix).  Row i of F C combines the sparse rows of C
    at the nonzeros of row i of F."""
    status = check_reality(ob)
    if status.kind is Reality.NOT_REAL:
        raise BookNotReal("book is not real; no real Heegaard decomposition")
    c = ob.real_structure.matrix
    return HeegaardData(tuple(sparse_combine(row, c) for row in ob.monodromy_matrix))


def validate_heegaard(hd: HeegaardData, ob: OpenBook) -> list[tuple[str, bool]]:
    """Closed-surface checks on the block data.

    hd is heegaard_data(ob), so its plus block is F C.  The involution,
    antisymplectic and Lefschetz checks share their code with
    validate_involution: minus_involution, minus_antisymplectic and
    minus_lefschetz are its involution_check, anti_symplectic_check and
    lefschetz_check on C, and plus_involution and plus_lefschetz are the
    same checks on F C with the tracked plus-side fixed set.

    Lemma: F C is antisymplectic exactly when C is, so
    minus_antisymplectic stands for both blocks and no plus-side entry
    restates it.  F is a product of twists, and a twist acts by the
    transvection T x = x + e <x, a> a, <x, a> = x^T J a.
    For antisymmetric J, <a, a> = 0 and T^T J T = J, so F^T J F = J and
    (FC)^T J (FC) = C^T F^T J F C = C^T J C.  The lemma needs J
    antisymmetric, which the book reader checks on $.page.form.
    plus_involution, (FC)^2 = I, is computed: it is the one check here
    that reads F, so it sees a monodromy that is not real at the
    homology level whatever the reality certificate said.  The genus is
    not checked here: heegaard_data sets it to rank H1 of the page.  The
    checks read sparse rows, C's and F C's as stored.
    """
    page = ob.page
    rank = page.h1_rank
    c = ob.real_structure.matrix
    fc = hd.plus_matrix
    minus = involution_check(c, rank).ok
    out = [("minus_involution", minus), ("plus_involution", involution_check(fc, rank).ok)]
    if rank:
        out.append(("minus_antisymplectic", anti_symplectic_check(c, page.form, rank, minus).ok))
    out.append(("minus_lefschetz",
                lefschetz_check(len(ob.real_structure.fixed_set.arcs), c, rank).ok))
    if ob.fix_plus is not None:
        out.append(("plus_lefschetz", lefschetz_check(len(ob.fix_plus.arcs), fc, rank).ok))
    return out


# ---------------------------------------------------------------------------
# real-part assembly


def _odd_bits(v) -> int:
    """A sparse vector mod 2, as a bitset: bit i is set when x_i is odd."""
    return sum(1 << i for i, x in entries(v) if x % 2)


def _interior_basis_indices(ob: OpenBook) -> list[int]:
    """Basis indices independent of the boundary-class span mod 2.

    A binding circle is isotopic to its boundary-parallel pushoff on
    either page, so page classes in the boundary span are already
    represented by the binding block; keeping them twice would make the
    closed-surface basis redundant.  Index i is kept, in increasing
    order, when e_i lies outside the boundary span S plus the indices
    kept before it, that is outside S + <e_j : j < i>, which holds
    exactly when no vector of S has its highest set bit at i.  So the
    pushoff classes mod 2, as bitsets (bit i is entry i), go into an
    echelon keyed by each row's highest set bit, and the kept indices
    are those that lead no row.
    """
    page = ob.page
    lead: dict[int, int] = {}           # highest set bit -> row
    for p in page.circles.values():
        vec = _odd_bits(p)
        while vec:
            top = vec.bit_length() - 1
            row = lead.get(top)
            if row is None:
                lead[top] = vec
                break
            vec ^= row
    return [i for i in range(page.h1_rank) if i not in lead]


def _closed_surface_basis(ob: OpenBook):
    """Basis of H1 of the doubled page, mod 2, with its pairing matrix.

    Blocks: interior page classes seen on each invariant page, the
    binding circles (all but the largest id), and the doubled reference
    arcs.  Binding circles pair with nothing in the page interior, so
    their rows carry only the reference-arc incidences: the basepoint's
    circle crosses every reference arc, any other circle only the arc
    to it.  Every row is read off nonzeros: J's rows and the arcs'
    pairing rows at their odd entries, the binding incidences arc by
    arc.  Row r of the pairing matrix q is a bitset: bit c is entry
    (r, c).  pos gives the position of each interior page class in its
    block, and d_pos and m_pos the row of each binding circle and
    reference arc, keyed by boundary id in increasing order.
    """
    page = ob.page
    interior = _interior_basis_indices(ob)
    n_int = len(interior)
    d_ids = sorted(page.circles)[:-1]
    m_ids = sorted(page.ref_arcs)
    bp = page.basepoint
    d_pos = {cid: 2 * n_int + i for i, cid in enumerate(d_ids)}
    m_pos = {cid: 2 * n_int + len(d_ids) + i for i, cid in enumerate(m_ids)}
    dim = 2 * n_int + len(d_ids) + len(m_ids)

    q = [0] * dim
    pos = {ib: b for b, ib in enumerate(interior)}
    for a, ia in enumerate(interior):
        row = sum(1 << pos[ib] for ib, x in entries(page.form[ia]) if x % 2 and ib in pos)
        q[a] = row
        q[n_int + a] = row << n_int
    for l, ml in m_pos.items():
        for ia, x in entries(page.ref_arcs[l]):
            if x % 2 and ia in pos:
                a = pos[ia]
                q[a] ^= 1 << ml
                q[n_int + a] ^= 1 << ml
                q[ml] ^= (1 << a) | (1 << (n_int + a))
    for d, dp in d_pos.items():
        # circle d meets arc l when (d == l) != (d == bp); no arc ends at bp
        for l in (m_ids if d == bp else (d,) if d in m_pos else ()):
            q[dp] ^= 1 << m_pos[l]
            q[m_pos[l]] ^= 1 << dp
    return dim, pos, d_pos, m_pos, q


class _GF2Solver:
    """Solves q x = b over GF(2) for many right-hand sides b.

    q is n x n, row r a bitset of its columns.  It is brought once to a
    row echelon form keyed by each row's lowest set bit: each row of q,
    the sparsest first, is reduced by the echelon row at its lowest bit
    until that bit leads no row, and joins the echelon there.  Each
    echelon row carries, as a bitset over the rows of q, the
    combination of q's rows it is, so its equation reads
    (row . x) = parity(combination & b).  A row that reduces to 0 is a
    dependency: solve returns None when its combination has odd parity
    against b.  Otherwise it back-substitutes over the pivots in
    decreasing column order, each pivot's x from the parity
    (int.bit_count) of its combination against b and of the rest of its
    row against the x found so far; free variables are 0.

    Lemma: the solution is the one Gauss-Jordan gives.  The leading
    columns of any row echelon form, columns in increasing order, are
    the pivot columns of the reduced form: the columns of q outside the
    span of the columns before them.  Those columns are linearly
    independent, so at most one solution is 0 off them, and both
    eliminations return it, whatever order the rows go in.  pivot_cols
    lists them in increasing order.
    """

    def __init__(self, q: list[int], n: int):
        self.n = n
        pivots: dict[int, tuple[int, int]] = {}     # pivot bit -> (row, combination)
        self.dependent: list[int] = []              # combinations of the rows reduced to 0
        # fewest bits first: the basepoint's binding row, which meets
        # every arc, goes in last instead of filling the arcs' rows
        for r in sorted(range(len(q)), key=[row.bit_count() for row in q].__getitem__):
            row, comb = q[r], 1 << r
            while row:
                low = row & -row
                hit = pivots.get(low)
                if hit is None:
                    pivots[low] = (row, comb)
                    break
                row ^= hit[0]
                comb ^= hit[1]
            else:
                self.dependent.append(comb)
        self.pivot_cols = sorted(low.bit_length() - 1 for low in pivots)
        # (pivot bit, the row less it, combination), in decreasing column order
        self._back = [(low, row ^ low, comb)
                      for low, (row, comb) in sorted(pivots.items(), reverse=True)]

    def solve(self, b: int) -> tuple[int, ...] | None:
        """x with q x = b, or None when the system is inconsistent."""
        if any((comb & b).bit_count() & 1 for comb in self.dependent):
            return None
        x = 0
        for bit, rest, comb in self._back:
            if ((comb & b).bit_count() + (rest & x).bit_count()) & 1:
                x |= bit
        # the n bits of x, lowest first: bin gives '0b1' and then them
        return tuple(map(int, bin(x | 1 << self.n)[:2:-1]))


def real_part(ob: OpenBook) -> RealPartData:
    """Assemble the fixed sets of the two invariant pages into circles.

    Arcs of the two pages share their boundary fixed points, so the
    union is a disjoint set of circles; fixed circles of either page
    pass through unchanged.  Per component the mod-2 class on the
    splitting surface is recovered from its declared crossing data:
    the pairing matrix of the closed surface is brought to a row
    echelon form once per book, on bitsets, and every component's
    crossing vector is solved against it by back-substitution
    (_GF2Solver, whose lemma makes the class the one Gauss-Jordan
    gives).  A crossing vector is read off the nonzeros of an arc's
    pair_curves and pair_arcs, so an arc costs what it crosses.
    """
    status = check_reality(ob)
    if status.kind is Reality.NOT_REAL:
        raise BookNotReal("book is not real; no real part data")
    if ob.fix_plus is None:
        raise RealPartUnavailable(
            "opposite-page fixed set is not tracked for this book")
    page = ob.page
    minus = ob.real_structure.fixed_set
    plus = ob.fix_plus

    dim, pos, d_pos, m_pos, q = _closed_surface_basis(ob)
    n_int = len(pos)

    # graph on the binding fixed points: one arc of each page per point
    edges: list[tuple[tuple[int, int], tuple[int, int], int, object]] = []
    for side, fset in ((0, minus), (1, plus)):
        for arc in fset.arcs:
            edges.append((arc.ends[0], arc.ends[1], side, arc))
    adj: dict[tuple[int, int], list[int]] = {}
    for idx, (e1, e2, _side, _arc) in enumerate(edges):
        adj.setdefault(e1, []).append(idx)
        adj.setdefault(e2, []).append(idx)
    for pt, inc in adj.items():
        if len(inc) != 2:
            raise RealPartUnavailable(
                f"fixed point {pt} has {len(inc)} incident arcs; data incomplete")

    solver = _GF2Solver(q, dim)
    seen = [False] * len(edges)
    components: list[RealComponent] = []

    def solve(vec: int) -> tuple[int, ...]:
        cls = solver.solve(vec)
        if cls is None:
            raise RealPartUnavailable("crossing data is not consistent on the closed surface")
        return cls

    def crossing_vector(side: int, pair_curves, arc_crossings) -> int:
        # pair_curves: the crossings with the page basis, sparse;
        # arc_crossings: (boundary id, crossing) with the reference arcs
        shift = side * n_int
        vec = 0
        for i, x in entries(pair_curves):
            if x % 2 and i in pos:
                vec ^= 1 << (pos[i] + shift)
        for l, cross in arc_crossings:
            if cross % 2 and l in m_pos:
                vec ^= 1 << m_pos[l]
        return vec

    for start in range(len(edges)):
        if seen[start]:
            continue
        vec = 0
        count = 0
        stack = [start]
        pts: set[tuple[int, int]] = set()
        while stack:
            idx = stack.pop()
            if seen[idx]:
                continue
            seen[idx] = True
            count += 1
            e1, e2, side, arc = edges[idx]
            pts.update((e1, e2))
            vec ^= crossing_vector(side, arc.pair_curves, arc.pair_arcs.items())
            for pt in (e1, e2):
                for nxt in adj[pt]:
                    if not seen[nxt]:
                        stack.append(nxt)
        # each binding fixed point on the component is one transversal
        # crossing of that binding circle
        for cid, _pid in pts:
            if cid in d_pos:
                vec ^= 1 << d_pos[cid]
        components.append(RealComponent(pieces=count, h1_class=solve(vec)))

    for side, fset in ((0, minus), (1, plus)):
        for circ in fset.circles:
            # J^T circ, summed over the nonzeros of circ and of J's rows
            vec = crossing_vector(
                side, sparse_combine(circ, page.form),
                ((l, -sparse_dot(page.ref_arcs[l], circ)) for l in m_pos))
            components.append(RealComponent(pieces=1, h1_class=solve(vec)))

    rp = RealPartData(components=tuple(components))
    genus = ob.page.h1_rank
    if rp.count > genus + 1:
        raise RealPartUnavailable(
            f"assembled {rp.count} components on a genus-{genus} surface: "
            "violates the Harnack bound, data inconsistent")
    return rp


def is_maximal(hd: HeegaardData, rp: RealPartData) -> bool:
    """Maximal means the real part meets the Harnack bound exactly."""
    return rp.count == hd.genus + 1
