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


def _bits(entries) -> int:
    """The GF(2) vector with entries 0/1, as a bitset: bit i is entry i."""
    return sum(1 << i for i, x in enumerate(entries) if x)


def _odd_bits(v) -> int:
    """A sparse vector mod 2, as a bitset: bit i is set when x_i is odd."""
    return sum(1 << i for i, x in entries(v) if x % 2)


def _interior_basis_indices(ob: OpenBook) -> list[int]:
    """Basis indices independent of the boundary-class span mod 2.

    A binding circle is isotopic to its boundary-parallel pushoff on
    either page, so page classes in the boundary span are already
    represented by the binding block; keeping them twice would make the
    closed-surface basis redundant.  Vectors mod 2 are bitsets (bit i is
    entry i).
    """
    page = ob.page
    span: list[int] = []

    def reduce(vec: int) -> int:
        for row in span:
            if vec & row & -row:        # the lowest set bit of row leads it
                vec ^= row
        return vec

    for p in page.circles.values():
        v = reduce(_odd_bits(p))
        if v:
            span.append(v)
    chosen = []
    for idx in range(page.h1_rank):
        v = reduce(1 << idx)
        if v:
            span.append(v)
            chosen.append(idx)
    return chosen


def _closed_surface_basis(ob: OpenBook):
    """Basis of H1 of the doubled page, mod 2, with its pairing matrix.

    Blocks: interior page classes seen on each invariant page, the
    binding circles (all but the largest id), and the doubled reference
    arcs.  Binding circles pair with nothing in the page interior, so
    their rows carry only the reference-arc incidences.  Row r of the
    pairing matrix q is a bitset: bit c is entry (r, c).  d_pos and
    m_pos give the row of each binding circle and reference arc, keyed
    by boundary id in increasing order.
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
    # the position of each interior class, to read the sparse rows of J
    pos = {ib: b for b, ib in enumerate(interior)}
    for a, ia in enumerate(interior):
        row = sum(1 << pos[ib] for ib, x in entries(page.form[ia]) if x % 2 and ib in pos)
        q[a] = row
        q[n_int + a] = row << n_int
    for l, ml in m_pos.items():
        row = _odd_bits(page.ref_arcs[l])
        for a, ia in enumerate(interior):
            if row >> ia & 1:
                q[a] ^= 1 << ml
                q[n_int + a] ^= 1 << ml
                q[ml] ^= (1 << a) | (1 << (n_int + a))
    for d, dp in d_pos.items():
        for l, ml in m_pos.items():
            if (d == l) != (d == bp):
                q[dp] ^= 1 << ml
                q[ml] ^= 1 << dp
    return dim, interior, d_pos, m_pos, q


class _GF2Solver:
    """Solves q x = b over GF(2) for many right-hand sides b.

    q is n x n, row r a bitset of its columns.  It is row-reduced once,
    Gauss-Jordan with the first nonzero row at or below the pivot row
    as pivot, and the swaps and row additions are recorded; solve
    replays them on b (a bitset over the rows of q).  Free variables
    are 0.
    """

    def __init__(self, q: list[int], n: int):
        a = list(q)
        self.n = n
        self.ops: list[tuple[int, int, int]] = []     # (pivot row, swapped row, rows added to)
        self.pivot_cols: list[int] = []
        r = 0
        for c in range(n):
            bit = 1 << c
            p = next((i for i in range(r, n) if a[i] & bit), None)
            if p is None:
                continue
            a[r], a[p] = a[p], a[r]
            pivot = a[r]
            added = 0
            for i in range(n):
                if i != r and a[i] & bit:
                    a[i] ^= pivot
                    added |= 1 << i
            self.ops.append((r, p, added))
            self.pivot_cols.append(c)
            r += 1

    def solve(self, b: int) -> tuple[int, ...] | None:
        """x with q x = b, or None when the system is inconsistent."""
        for r, p, added in self.ops:
            if (b >> r ^ b >> p) & 1:
                b ^= (1 << r) | (1 << p)
            if b >> r & 1:
                b ^= added
        rank = len(self.pivot_cols)
        if b >> rank:
            return None
        x = [0] * self.n
        for i, c in enumerate(self.pivot_cols):
            x[c] = b >> i & 1
        return tuple(x)


def real_part(ob: OpenBook) -> RealPartData:
    """Assemble the fixed sets of the two invariant pages into circles.

    Arcs of the two pages share their boundary fixed points, so the
    union is a disjoint set of circles; fixed circles of either page
    pass through unchanged.  Per component the mod-2 class on the
    splitting surface is recovered from its declared crossing data:
    the pairing matrix of the closed surface is row-reduced once per
    book, on bitsets, and every component's crossing vector is solved
    against that one elimination.
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

    dim, interior, d_pos, m_pos, q = _closed_surface_basis(ob)
    n_int = len(interior)

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

    def crossing_vector(side: int, odd: int, arc_crossings) -> int:
        # odd: the crossings with the page basis mod 2, as a bitset
        vec = _bits(odd >> ia & 1 for ia in interior) << (side * n_int)
        for ml, cross in zip(m_pos.values(), arc_crossings):
            vec ^= (cross % 2) << ml
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
            vec ^= crossing_vector(side, _odd_bits(arc.pair_curves),
                                   [arc.pair_arcs.get(l, 0) for l in m_pos])
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
            jt_circ = sparse_combine(circ, page.form)
            vec = crossing_vector(
                side, _odd_bits(jt_circ),
                [-sparse_dot(page.ref_arcs[l], circ) for l in m_pos])
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
