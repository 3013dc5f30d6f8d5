"""A page stores its vectors sparse, and a stabilized page shares what its
handle left alone.

Every vector a page or a fixed set holds (curve classes, pushoff
classes, reference-arc rows, fixed arcs' pair_curves, fixed circles'
classes) is canonical sparse: flat (i, x_i, ...) pairs of ints, indices
increasing, no zero value.  A stabilization adds coordinates, so an old
vector keeps its stored form, and the builder keeps the parent's own
object for every class, circle, row and fixed arc the step did not
change; what it changes it copies first, so the parent's text is the
same before and after.
"""

import random

import pytest

from realbook.catalog import build
from realbook.jsonio import dumps, loads
from realbook.openbook import STAB_TYPES, StabilizationError, enumerate_sites, stabilize

BASES = [("disk",), ("hopf", "conjugation"), ("hopf", "swap"), ("fig4", "2"), ("fig5", "2"),
         ("fig6", "2"), ("lens-annulus", "3"), ("lens-3punctured", "2", "2", "1")]


def stored_vectors(ob):
    """(where, vector) for every vector the book's page and fixed sets hold."""
    page = ob.page
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
    for where, v in stored_vectors(ob):
        assert canonical(v, rank), (label, where, v)


def assert_shares(parent, child):
    """Every class, pushoff class, reference row, fixed circle and fixed
    arc of the child that equals the parent's is the parent's object;
    an old curve's class always is.  Returns how many were shared."""
    shared = 0
    old, new = parent.page, child.page
    for name, cls in old.alphabet.items():
        assert new.alphabet[name] is cls, name
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
    """The first base book and site of BASES at which type tag applies."""
    for params in BASES:
        ob = build(*params)
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
        assert_canonical(back, label)
        count += 1
    assert count == 283

