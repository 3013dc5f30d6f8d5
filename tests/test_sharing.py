"""A page stores its vectors sparse, and a stabilized page shares what its
handle left alone.

Every vector a page or a fixed set holds (curve classes, pushoff
classes, reference-arc rows, fixed arcs' pair_curves, fixed circles'
classes) and every row of the form J and of the involution's matrix C
is canonical sparse: flat (i, x_i, ...) pairs of ints, indices
increasing, no zero value.  A stabilization adds coordinates, so an old
vector keeps its stored form, and the builder keeps the parent's own
object for every class, circle, row and fixed arc the step did not
change; what it changes it copies first, so the parent's text is the
same before and after.  A row of J changes only when it pairs with a
new class, and no old row of C changes: C~ keeps C's rows and the
stabilizing twists move none of them.
"""

import random

import pytest

from realbook.catalog import build
from realbook.jsonio import dumps, loads
from realbook.openbook import STAB_TYPES, StabilizationError, enumerate_sites, stabilize

BASES = [("disk",), ("hopf", "conjugation"), ("hopf", "swap"), ("fig4", "2"), ("fig5", "2"),
         ("fig6", "2"), ("lens-annulus", "3"), ("lens-3punctured", "2", "2", "1")]


def stored_vectors(ob):
    """(where, vector) for every vector the book's page and fixed sets
    hold, and every row of J and C."""
    page = ob.page
    yield from ((f"form[{i}]", v) for i, v in enumerate(page.form))
    yield from ((f"matrix[{i}]", v) for i, v in enumerate(ob.real_structure.matrix))
    yield from ((f"alphabet[{n}]", v) for n, v in page.alphabet.items())
    yield from ((f"circles[{c}]", v) for c, v in page.circles.items())
    yield from ((f"ref_arcs[{c}]", v) for c, v in page.ref_arcs.items())
    sides = [("minus", ob.real_structure.fixed_set)]
    if ob.fix_plus is not None:
        sides.append(("plus", ob.fix_plus))
    for side, fset in sides:
        yield from ((f"{side}.arcs[{i}]", a.pair_curves) for i, a in enumerate(fset.arcs))
        yield from ((f"{side}.circles[{i}]", v) for i, v in enumerate(fset.circles))


def canonical(v, rank):
    """Whether v is a tuple of flat (index, value) int pairs, indices
    increasing below rank, values nonzero."""
    if type(v) is not tuple or len(v) % 2 or any(type(x) is not int for x in v):
        return False
    idx, values = v[::2], v[1::2]
    return (all(values) and all(a < b for a, b in zip(idx, idx[1:]))
            and all(0 <= i < rank for i in idx))


def assert_canonical(ob, label):
    rank = ob.page.h1_rank
    assert len(ob.page.form) == len(ob.real_structure.matrix) == rank, label
    for where, v in stored_vectors(ob):
        assert canonical(v, rank), (label, where, v)


def assert_shares(parent, child):
    """Every class, pushoff class, reference row, fixed circle, fixed
    arc and row of J of the child that equals the parent's is the
    parent's object; an old curve's class and an old row of C always
    are.  Returns how many were shared."""
    shared = 0
    old, new = parent.page, child.page
    for name, cls in old.alphabet.items():
        assert new.alphabet[name] is cls, name
        shared += 1
    for u, row in enumerate(old.form):
        assert (new.form[u] is row) == (new.form[u] == row), ("form", u)
        shared += new.form[u] is row
    for u, row in enumerate(parent.real_structure.matrix):
        assert child.real_structure.matrix[u] is row, ("matrix", u)
        shared += 1
    for kind in ("circles", "ref_arcs"):
        mine, theirs = getattr(old, kind), getattr(new, kind)
        for cid, v in theirs.items():
            if mine.get(cid) == v:
                assert v is mine[cid], (kind, cid)
                shared += 1
    sides = [(parent.real_structure.fixed_set, child.real_structure.fixed_set)]
    if parent.fix_plus is not None:
        sides.append((parent.fix_plus, child.fix_plus))
    for mine, theirs in sides:
        for kind in ("arcs", "circles"):
            for item in getattr(theirs, kind):
                if item in getattr(mine, kind):
                    assert any(item is x for x in getattr(mine, kind)), (kind, item)
                    shared += 1
    return shared


def stabilized(parent, tag, site):
    """stabilize, checked: the child's vectors are canonical, it shares
    what the step left alone, and the parent's text did not move."""
    before = dumps(parent)
    child = stabilize(parent, tag, site)
    assert dumps(parent) == before, (tag, site)
    assert_canonical(child, (tag, site))
    assert_shares(parent, child)
    return child


def first_site(tag):
    """The first base book and site of BASES at which type tag applies,
    skipping a page of rank 0 (the disk), which has no old row of J or C
    for the child to share."""
    for params in BASES:
        ob = build(*params)
        if not ob.page.h1_rank:
            continue
        for t, site in enumerate_sites(ob):
            if t == tag:
                try:
                    stabilize(ob, t, site)
                except StabilizationError:
                    continue
                return ob, site
    raise AssertionError(f"no base book takes type {tag}")


@pytest.mark.parametrize("tag", list(STAB_TYPES))
def test_each_type_shares_what_its_handle_left_alone(tag):
    parent, site = first_site(tag)
    child = stabilized(parent, tag, site)
    assert assert_shares(parent, child) >= len(parent.page.alphabet) > 0


def test_golden_books_store_canonical_vectors_and_read_back():
    from test_golden import golden_books

    count = 0
    for label, ob in golden_books():
        assert_canonical(ob, label)
        back = loads(dumps(ob))
        assert back == ob, label
        assert back.page.form == ob.page.form, label
        assert back.real_structure.matrix == ob.real_structure.matrix, label
        assert_canonical(back, label)
        count += 1
    assert count == 283



def test_the_ladders_share_most_rows_of_the_form(monkeypatch):
    """Along the fig4, fig5 and fig6 ladders to k = 16 each step shares
    what its handle left alone (assert_shares): every old row of C, and
    each old row of J that pairs with no new class, which is most of
    them."""
    import realbook.stabilization as stabilization_module

    real = stabilization_module.stabilize
    steps = []

    def recording(ob, tag, site=None):
        steps.append((ob, real(ob, tag, site)))
        return steps[-1][1]

    monkeypatch.setattr(stabilization_module, "stabilize", recording)
    for family in ("fig4", "fig5", "fig6"):
        build(family, "16")
    old_rows = shared = 0
    for parent, child in steps:
        assert_shares(parent, child)
        old_rows += parent.page.h1_rank
        shared += sum(new is old for new, old in zip(child.page.form, parent.page.form))
    assert len(steps) == 49 and shared >= 0.8 * old_rows > 0, (shared, old_rows)


def test_no_book_keeps_a_dense_form_or_structure():
    """After every query a book answers, J, C and the monodromy matrix F
    are still sparse rows: no field or memo of a page, an involution, a
    book or its HeegaardData holds an IntMatrix.  The NotReal book
    reaches the homology-level check C F C = F^-1."""
    from test_openbook import not_real_example

    from realbook.heegaard import heegaard_data, real_part, validate_heegaard
    from realbook.intalg import IntMatrix
    from realbook.openbook import Reality, check_reality, h1_of_manifold
    from realbook.surface import validate_involution, validate_page

    for ob in (build("fig4", "3"), build("fig5", "3"), build("fig6", "2"), not_real_example()):
        h1_of_manifold(ob)
        validate_involution(ob.page, ob.real_structure), validate_page(ob.page)
        holders = [ob, ob.page, ob.real_structure]
        if check_reality(ob).kind is not Reality.NOT_REAL:
            hd = heegaard_data(ob)
            real_part(ob), validate_heegaard(hd, ob)
            holders.append(hd)
        assert "monodromy_matrix" in vars(ob)
        for holder in holders:
            for name, value in vars(holder).items():
                assert not isinstance(value, IntMatrix), name
