"""Dehn twist words: homology action, arc transport, conjugation.

Word convention: letters act leftmost first, so a word [l1, l2, ...]
is the map  T_ln o ... o T_l1  and word matrices multiply accordingly.
Word equality is free-reduced literal equality, extended only by
commutation of letters whose curves the page holds disjoint
(SurfaceModel.curves_disjoint: the root's declared pairs, and the pairs
a stabilization's rule gives its new curves).

A twist acts on H1 as the rank-one transvection x -> x + e <x, a> a,
so words act on matrices by rank-one updates, O(n^2) per letter, never
by dense products.  Reference arcs, as their pairing rows, go through
a word together, in one pass (transport_arcs): per letter, each arc's
crossing with the curve is a sparse dot, and an arc that misses the
curve costs nothing more.
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

from .intalg import IntMatrix
from .surface import SurfaceModel, Vec, combine, entries

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


def word_matrix(model: SurfaceModel, w: Sequence[Letter]) -> IntMatrix:
    """Matrix of the word on H1 of the page."""
    return word_times(model, w, IntMatrix.identity(model.h1_rank))


def word_times(model: SurfaceModel, w: Sequence[Letter], m: IntMatrix) -> IntMatrix:
    """word_matrix(model, w) @ m, by rank-one updates of the rows of m."""
    if m.nrows != model.h1_rank:
        raise ValueError(f"dimension mismatch: word on rank {model.h1_rank} @ {m.shape}")
    rows = [list(r) for r in m.rows]
    transvect(model, w, rows, transposed=False)
    return IntMatrix._trusted(rows, m.ncols)


def times_word(m: IntMatrix, model: SurfaceModel, w: Sequence[Letter]) -> IntMatrix:
    """m @ word_matrix(model, w), as the transpose of W^T @ m^T."""
    if m.ncols != model.h1_rank:
        raise ValueError(f"dimension mismatch: {m.shape} @ word on rank {model.h1_rank}")
    cols = [list(c) for c in m.transpose().rows]
    transvect(model, tuple(w)[::-1], cols, transposed=True)
    return IntMatrix._trusted(cols, m.nrows).transpose()


def transvect(model: SurfaceModel, w: Sequence[Letter], rows: list[list[int]],
              transposed: bool) -> None:
    """rows <- (I + e u v^T) rows for each letter (a, e) of w in turn, in
    place, with u v^T = a (Ja)^T, the twist, or (Ja) a^T, its transpose.
    With transposed=True and w reversed, rows that are the columns of m
    become the columns of m @ word_matrix(model, w)."""
    for name, e in w:
        vecs = model.curve_vectors(name)
        u, v = (vecs.ja, vecs.a) if transposed else (vecs.a, vecs.ja)
        if not u or not v:
            continue
        r = combine(entries(v), rows, len(rows[0]))
        if not any(r):
            continue
        for i, x in entries(u):
            c = e * x
            rows[i] = [s + c * y for s, y in zip(rows[i], r)]


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

    Sound but incomplete: no braid or lantern relations.  Normal form is
    the lexicographically sorted interleaving reachable by swapping
    adjacent letters on disjoint curves, re-reducing after every pass.
    """
    return _normal_form(model, w1) == _normal_form(model, w2)


def _normal_form(model: SurfaceModel, w: Sequence[Letter]) -> TwistWord:
    cur = list(free_reduce(tuple(w)))
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(cur):
            (n1, e1), (n2, e2) = cur[i], cur[i + 1]
            if n1 > n2 and model.curves_disjoint(n1, n2):
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                changed = True
            i += 1
        reduced = list(free_reduce(tuple(cur)))
        if reduced != cur:
            cur = reduced
            changed = True
    return tuple(cur)


def transport_arcs(model: SurfaceModel, w: Sequence[Letter],
                   rows: Sequence[Sequence[int]]) -> list[tuple[Vec, Vec]]:
    """Push reference arcs, given by their pairing rows, through a twist
    word, all in one pass; (class, row) for each arc.

    Every arc's transport defect class starts at zero.  Per letter
    (a, e) and arc gamma with crossing k = <gamma, a>: the class gains
    e k [a] and the pairing row updates by
    <tau_a^e(gamma), x> = <gamma, x> + e k <a, x>.  The crossing is a
    sparse dot with a, and an arc that misses the curve (k = 0) is
    left as it is.
    """
    rank = model.h1_rank
    for i, row in enumerate(rows):
        if len(row) != rank:
            raise ValueError(f"reference-arc pairing row {i} has length {len(row)}, "
                             f"not the rank {rank}")
    classes = [[0] * rank for _ in rows]
    rows = [list(row) for row in rows]
    for name, e in w:
        vecs = model.curve_vectors(name)
        a = list(entries(vecs.a))
        for cls, row in zip(classes, rows):
            cross = sum([row[i] * x for i, x in a])
            if cross:
                k = e * cross
                for i, x in a:
                    cls[i] += k * x
                for i, x in entries(vecs.jta):
                    row[i] += k * x
    return [(tuple(cls), tuple(row)) for cls, row in zip(classes, rows)]


def transport_arc(model: SurfaceModel, w: Sequence[Letter],
                  row: Sequence[int]) -> tuple[Vec, Vec]:
    """Push one reference arc through a twist word (see transport_arcs)."""
    return transport_arcs(model, w, [row])[0]
