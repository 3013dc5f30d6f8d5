"""Dehn twist words: homology action, arc transport, conjugation.

Word convention: letters act leftmost first, so a word [l1, l2, ...]
is the map  T_ln o ... o T_l1  and word matrices multiply accordingly.
Word equality is equality modulo free reduction and commutation of
letters whose curves the page holds disjoint (the root's declared pairs,
and the pairs a stabilization's rule gives its new curves), decided
completely for these relations: words_equal compares the words' piles
in the graph group of the curves, one pass over each word, with the
commutation graph derived from the page's births
(SurfaceModel.meeting_lists).  It knows no other relation of the
mapping class group: no braid or lantern relations.

A twist acts on H1 as the rank-one transvection x -> x + e <x, a> a,
so words act on matrices by rank-one updates of sparse rows, never by
dense products: word_matrix builds the word's matrix F from the
identity rows and rewrites per letter only the rows at the nonzeros of
a, and times_word takes and returns sparse rows (the real structure,
the strand-law probes) and rewrites only the rows a letter moves,
finding them through the index of a that the curve's vectors keep
(CurveVectors.at), so a letter builds nothing for a row it misses.
Reference arcs, as the page's sparse pairing rows, go through a word
together, in one pass (transport_arcs), each expanded into a working
buffer of its own: per letter, the arcs' crossings with the curve are
summed over the nonzeros of its class for all arcs at once, and an arc
that misses the curve costs nothing more.
The sparse a, J a and J^T a of each curve come from the page's cache
(SurfaceModel.curve_vectors), so a page computes them once however many
words act on it.  The tests check the updates against dense products
of one-twist matrices (tests/oracles.py).

conjugate writes c o w o c letterwise from a map of curve images,
c o tau_a o c = tau_{c(a)}^-1; the reality check reads it with the
involution's images and the provenance certificate with each
stabilization's recorded ones.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .surface import Rows, Sparse, SurfaceModel, Vec, dense, entries, sparse_add, sparse_combine

Letter = tuple[str, int]
TwistWord = tuple[Letter, ...]


def word(letters: Iterable[tuple[str, int]]) -> TwistWord:
    """Build a freely reduced twist word."""
    return free_reduce(tuple((str(n), int(e)) for n, e in letters))


def free_reduce(w: Sequence[Letter]) -> TwistWord:
    out: list[Letter] = []
    for name, exp in w:
        if exp == 0:
            continue
        if out and out[-1][0] == name:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((name, merged))
        else:
            out.append((name, exp))
    return tuple(out)


def invert(w: Sequence[Letter]) -> TwistWord:
    return free_reduce(tuple((name, -exp) for name, exp in reversed(tuple(w))))


def concat(*words: Sequence[Letter]) -> TwistWord:
    letters: list[Letter] = []
    for w in words:
        letters.extend(w)
    return free_reduce(tuple(letters))


def word_matrix(model: SurfaceModel, w: Sequence[Letter]) -> Rows:
    """Matrix of the word on H1 of the page, as sparse rows.

    Each letter (a, e) takes W to (I + e a (Ja)^T) W: the row (Ja)^T W
    combines the rows of W at the nonzeros of J a, and row i gains
    e a_i times it at each nonzero a_i, so a letter rewrites only the
    rows at the nonzeros of a.  A letter with J a = 0 (a boundary twist)
    acts as the identity and costs nothing.
    """
    rows = [(i, 1) for i in range(model.h1_rank)]
    for name, e in w:
        vecs = model.curve_vectors(name)
        if vecs.ja:
            r = sparse_combine(vecs.ja, rows)
            for i, x in entries(vecs.a):
                rows[i] = sparse_add(rows[i], r, e * x)
    return tuple(rows)


def times_word(rows: Sequence[Sparse], model: SurfaceModel, w: Sequence[Letter]) -> Rows:
    """m @ word_matrix(model, w) for the matrix m with the given sparse
    rows, as sparse rows.

    m W applies the letters last first, and a twist T_a^e sends a row r
    to r + e (r . a) (J a)^T, so only the rows with r . a != 0 change: a
    row that does not is returned as the caller's own object.  A row
    whose indices all lie below or all above those of a misses it
    without a dot product; any other is dotted through the index of a
    kept with the curve's vectors (CurveVectors.at), built once per
    curve and page, not once per letter and call.  The strand law of
    the plus side pushes its probes through the whole word at every
    stabilization, so the index is read once per letter of that word.
    """
    out = list(rows)
    for name, e in reversed(tuple(w)):
        vecs = model.curve_vectors(name)
        a, ja, at = vecs.a, vecs.ja, vecs.at
        if not ja:
            continue
        for i, r in enumerate(out):
            if r and r[0] <= a[-2] and r[-2] >= a[0]:
                k = sum([x * at.get(j, 0) for j, x in entries(r)])
                if k:
                    out[i] = sparse_add(r, ja, e * k)
    return tuple(out)


def conjugate(images: Mapping[str, tuple[str, int]], w: Sequence[Letter]) -> TwistWord | None:
    """The word for c o w o c, with images the curve map name -> (image,
    sign) of c, or None when some letter has no image.

    Uses c o tau_a o c = tau_{c(a)}^{-1} letterwise (Farb & Margalit, A
    Primer on Mapping Class Groups, ch. 3): images keep their position,
    exponents negate, and the sign is dropped, as tau_{-a} = tau_a.  A
    letter whose curve is moved by c only up to unknown isotopy is
    honestly unavailable.
    """
    letters: list[Letter] = []
    for name, exp in w:
        img = images.get(name)
        if img is None:
            return None
        letters.append((img[0], -exp))
    return free_reduce(tuple(letters))


def words_equal(model: SurfaceModel, w1: Sequence[Letter], w2: Sequence[Letter]) -> bool:
    """Equality modulo free reduction and commutation of disjoint curves.

    Complete for these relations and sound: the words are compared as
    elements of the graph group (right-angled Artin group) whose
    commuting generators are the curves the page holds disjoint, by
    their piles (Crisp, Godelle & Wiest, The conjugacy problem in
    subgroups of right-angled Artin groups, J. Topology 2009), one pass
    over each word.  Equal words can still compare unequal through
    relations the check does not know: no braid or lantern relations.
    The commutation graph on the words' curves comes from the page's
    rule (SurfaceModel.meeting_lists).
    """
    meets = model.meeting_lists(name for w in (w1, w2) for name, _exp in w)
    return _piles(w1, meets) == _piles(w2, meets)


def _piles(w: Sequence[Letter], meets: Mapping[str, Sequence[str]]) -> dict[str, list[int]]:
    """The piles of a word: one stack per curve, of exponents and 0
    blockers.  A letter merges with its curve's top exponent when there
    is one; otherwise it pushes its exponent, and a blocker on the stack
    of every curve it meets.  A merge that cancels to 0 pops the letter
    and one blocker from each of those stacks: no letter of a curve it
    meets came after it, so what lies above its blockers there are
    blockers too, and any one of them may go.  Two words are equal in
    the graph group exactly when their piles are."""
    piles: dict[str, list[int]] = {name: [] for name in meets}
    for name, exp in w:
        pile = piles[name]
        if pile and pile[-1]:
            exp += pile.pop()
            if exp:
                pile.append(exp)
            else:
                for other in meets[name]:
                    piles[other].pop()
        elif exp:
            pile.append(exp)
            for other in meets[name]:
                piles[other].append(0)
    return piles


def transport_arcs(model: SurfaceModel, w: Sequence[Letter],
                   rows: Sequence[Sparse]) -> list[tuple[Vec, Vec]]:
    """Push reference arcs, given by their sparse pairing rows, through
    a twist word, all in one pass; (class, row) for each arc, dense.

    Every arc's transport defect class starts at zero.  Per letter
    (a, e) and arc gamma with crossing k = <gamma, a>: the class gains
    e k [a] and the pairing row updates by
    <tau_a^e(gamma), x> = <gamma, x> + e k <a, x>.  Each row is
    expanded once into a buffer of its own; the crossings of all arcs
    with a letter's curve are summed together, one pass over the arcs per
    nonzero of a, and an arc that misses the curve (k = 0) is left as it
    is.  A row with an entry at or past the rank raises ValueError.
    """
    rank = model.h1_rank
    for i, row in enumerate(rows):
        if row and row[-2] >= rank:
            raise ValueError(f"reference-arc pairing row {i} has entry {row[-2]}, "
                             f"past the rank {rank}")
    classes = [[0] * rank for _ in rows]
    rows = [dense(row, rank) for row in rows]
    for name, e in w:
        vecs = model.curve_vectors(name)
        a = list(entries(vecs.a))
        # every arc's crossing with the curve at once, nonzero by nonzero of a
        crosses = [0] * len(rows)
        for i, x in a:
            crosses = [c + row[i] * x for c, row in zip(crosses, rows)]
        for cross, cls, row in zip(crosses, classes, rows):
            if cross:
                k = e * cross
                for i, x in a:
                    cls[i] += k * x
                for i, x in entries(vecs.jta):
                    row[i] += k * x
    return [(tuple(cls), tuple(row)) for cls, row in zip(classes, rows)]


def transport_arc(model: SurfaceModel, w: Sequence[Letter],
                  row: Sparse) -> tuple[Vec, Vec]:
    """Push one reference arc through a twist word (see transport_arcs)."""
    return transport_arcs(model, w, [row])[0]
