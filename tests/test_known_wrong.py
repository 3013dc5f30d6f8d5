"""Known-wrong results, pinned as strict xfails.

Each test states what the paper's calculus says should hold and fails
today, for a cause that ROADMAP.md names in the item its reason gives.
They are strict: the change that mends one makes it pass, which fails
the suite until that change turns it into a plain test.
"""

import pytest

from realbook.catalog import catalog_fig4, catalog_lens_3punctured
from realbook.heegaard import real_part
from realbook.intalg import AbelianGroup
from realbook.openbook import Reality, StabilizationError, check_reality, h1_of_manifold

from test_walks import walk_steps


@pytest.mark.xfail(strict=True, raises=StabilizationError,
                   reason="ROADMAP item 2: type VIII refuses a site its lattice walk misses")
@pytest.mark.parametrize("k", [22, 24])
def test_fig4_ladder_builds_past_21(k):
    """fig4(k) is the 3-sphere at every k: H1 = 0, splitting genus
    2k - 1, CertifiedReal."""
    ob = catalog_fig4(k)
    assert h1_of_manifold(ob) == AbelianGroup(0)
    assert ob.page.h1_rank == 2 * k - 1
    assert check_reality(ob).kind is Reality.CERTIFIED_REAL


def smith_floyd_bound(h1):
    """1 + dim H1(M; F2), which bounds the circles of the fixed set of an
    involution of a closed 3-manifold M (Floyd, 1952): H1(M; F2) is
    H1(M) (x) F2, one F2 per free generator and per even torsion
    coefficient."""
    return 1 + h1.free_rank + sum(1 for t in h1.torsion if t % 2 == 0)


_ITEM_4 = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 4: real_part counts 3 circles, above the "
                        "Smith-Floyd bound, on lens-3punctured with an odd exponent")


@pytest.mark.parametrize("pqr", [
    pytest.param((1, 1, 1), marks=_ITEM_4),
    pytest.param((2, 2, 1), marks=_ITEM_4),
    pytest.param((1, 2, 3), marks=_ITEM_4),
    pytest.param((3, 3, 3), marks=_ITEM_4),
    (2, 2, 2),
    (2, 4, 6),
], ids=lambda pqr: "-".join(map(str, pqr)))
def test_lens_3punctured_real_part_within_the_smith_floyd_bound(pqr):
    ob = catalog_lens_3punctured(*pqr)
    assert real_part(ob).count <= smith_floyd_bound(h1_of_manifold(ob))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the base word is conjugated with the child's "
                          "curve images, which lack the boundary curves V, VI and VIII join")
def test_every_walk_book_is_certified_real():
    """A positive real stabilization of a real open book is real, and
    stabilize certifies each block it adds, so every book of the walks
    should be CertifiedReal."""
    for where, _start, ob in walk_steps():
        assert check_reality(ob).kind is Reality.CERTIFIED_REAL, where
