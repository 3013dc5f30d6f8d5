"""Dehn twist words: homology action, arc transport, conjugation.

Word convention: letters act leftmost first, so a word [l1, l2, ...]
is the map  T_ln o ... o T_l1  and word matrices multiply accordingly.
Word equality is free-reduced literal equality, extended only by
commutation of letters whose curves the surface declares disjoint.

A twist acts on H1 as the rank-one transvection x -> x + e <x, a> a,
so words act on matrices and arcs by rank-one updates, O(n^2) per
letter, never by dense products.  twist_matrix builds one twist densely;
it is kept as the test oracle for the updates.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .intalg import IntMatrix
from .surface import Involution, RefArc, SurfaceModel, vec_add, vec_dot, vec_scale

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


def twist_matrix(model: SurfaceModel, curve: str, exponent: int) -> IntMatrix:
    """Homology action x -> x + e <x, a> a of the e-th power of a twist."""
    a = model.curve(curve).h1_class
    rank = model.h1_rank
    ja = model.form.apply(a)  # <x, a> = x . (J a)
    rows = [
        [(1 if i == j else 0) + exponent * a[i] * ja[j] for j in range(rank)]
        for i in range(rank)
    ]
    return IntMatrix(rows, ncols=rank)


def word_matrix(model: SurfaceModel, w: Sequence[Letter]) -> IntMatrix:
    """Matrix of the word on H1 of the page."""
    return word_times(model, w, IntMatrix.identity(model.h1_rank))


def word_times(model: SurfaceModel, w: Sequence[Letter], m: IntMatrix) -> IntMatrix:
    """word_matrix(model, w) @ m, by rank-one updates of the rows of m."""
    if m.nrows != model.h1_rank:
        raise ValueError(f"dimension mismatch: word on rank {model.h1_rank} @ {m.shape}")
    rows = [list(r) for r in m.rows]
    _transvect(model, w, rows, transposed=False)
    return IntMatrix(rows, ncols=m.ncols)


def times_word(m: IntMatrix, model: SurfaceModel, w: Sequence[Letter]) -> IntMatrix:
    """m @ word_matrix(model, w), as the transpose of W^T @ m^T."""
    if m.ncols != model.h1_rank:
        raise ValueError(f"dimension mismatch: {m.shape} @ word on rank {model.h1_rank}")
    cols = [list(c) for c in m.transpose().rows]
    _transvect(model, tuple(w)[::-1], cols, transposed=True)
    return IntMatrix(cols, ncols=m.nrows).transpose()


_Sparse = list[tuple[int, int]]


def _sparse(v: Sequence[int]) -> _Sparse:
    return [(i, x) for i, x in enumerate(v) if x]


def _curve_class(model: SurfaceModel, name: str) -> tuple[int, ...]:
    a = model.curve(name).h1_class
    if len(a) != model.h1_rank:
        raise ValueError(f"class of curve {name!r} has length {len(a)}, not {model.h1_rank}")
    return a


def _transvect(model: SurfaceModel, w: Sequence[Letter], rows: list[list[int]],
               transposed: bool) -> None:
    """rows <- (I + e u v^T) rows for each letter (a, e) of w in turn, in
    place, with u v^T = a (Ja)^T, the twist, or (Ja) a^T, its transpose.
    J a is computed once per distinct curve."""
    form = model.form.rows
    vecs: dict[str, tuple[_Sparse, _Sparse]] = {}
    for name, e in w:
        if name not in vecs:
            a = _sparse(_curve_class(model, name))
            ja = _sparse([sum(row[k] * x for k, x in a) for row in form])
            vecs[name] = (ja, a) if transposed else (a, ja)
        u, v = vecs[name]
        if not u or not v:
            continue
        r = None
        for j, x in v:
            rj = rows[j]
            r = [x * y for y in rj] if r is None else [s + x * y for s, y in zip(r, rj)]
        if not any(r):
            continue
        for i, x in u:
            c = e * x
            rows[i] = [s + c * y for s, y in zip(rows[i], r)]


def conjugate_by_involution(
    model: SurfaceModel, inv: Involution, w: Sequence[Letter]
) -> TwistWord | None:
    """The word for c o w o c, or None when some letter has no c-image.

    Uses c o tau_a o c = tau_{c(a)}^{-1} letterwise: images keep their
    position, exponents negate.  A letter whose curve is moved by the
    involution only up to unknown isotopy is honestly unavailable.
    """
    letters: list[Letter] = []
    for name, exp in w:
        img = inv.curve_image.get(name)
        if img is None:
            return None
        letters.append((img[0], -exp))
    return free_reduce(tuple(letters))


def words_equal(model: SurfaceModel, w1: Sequence[Letter], w2: Sequence[Letter]) -> bool:
    """Equality modulo free reduction and declared-disjoint commutation.

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


def transport_arc(model: SurfaceModel, w: Sequence[Letter], arc: RefArc) -> RefArc:
    """Push a reference arc through a twist word, letter by letter.

    Per letter (a, e): the class gains e <gamma, a> [a] and the pairing
    row updates by <tau_a^e(gamma), x> = <gamma, x> + e <gamma, a> <a, x>.
    """
    form = model.form.rows
    a_rows: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    cls = arc.current_class
    row = arc.pairings
    for name, exp in w:
        if name not in a_rows:
            a = _curve_class(model, name)
            # <a, x> per basis class x: the row (J^T a), a sum of rows of J
            a_row = [0] * model.h1_rank
            for k, x in _sparse(a):
                a_row = [s + x * y for s, y in zip(a_row, form[k])]
            a_rows[name] = (a, tuple(a_row))
        a, a_row = a_rows[name]
        cross = vec_dot(row, a)
        cls = vec_add(cls, vec_scale(exp * cross, a))
        row = vec_add(row, vec_scale(exp * cross, a_row))
    return RefArc(target_boundary=arc.target_boundary, current_class=cls, pairings=row)
