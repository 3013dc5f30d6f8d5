"""The paper's correspondence along seeded walks of stabilizations.

Real contact structures up to equivariant isotopy correspond to real
open books up to positive real stabilization, so a stabilization keeps
the real 3-manifold (M, c): its first homology, the number of
components of its real part, and a verdict that is not NotReal.  Walks
of one to four steps from ten catalog roots prefer each of the nine
types in turn, and every step that stabilize accepts is checked
against the root; the door stabilize seeds open on it is the one a
memo-free copy decides fresh.  The book each step makes writes the
same bytes twice and reads back from them as itself.

The separating flags are not compared along a walk: a component's
flag is its mod-2 class on the splitting surface, which a stabilization
changes.  catalog fig5 and fig6 are both the 3-sphere with its standard
real structure, one with a separating real part and one without, and
one type I step on the disk turns its one separating component into a
nonseparating one.  The flags must survive the JSON round trip.
"""

import random

from realbook.catalog import build
from realbook.heegaard import real_part
from realbook.jsonio import dumps, loads
from realbook.openbook import (
    STAB_TYPES,
    Reality,
    StabilizationError,
    check_reality,
    enumerate_sites,
    h1_of_manifold,
    stabilize,
)
from realbook.records import replace

ROOTS = [("disk",), ("hopf", "conjugation"), ("hopf", "swap"), ("fig4", "1"), ("fig4", "2"),
         ("fig5", "1"), ("fig5", "2"), ("fig6", "1"), ("lens-annulus", "3"),
         ("lens-3punctured", "2", "2", "1")]
TYPES = list(STAB_TYPES)


def step(ob, rng, prefer):
    """One accepted stabilization at a shuffled enumerated site, of type
    prefer when the book takes it; None when no site is accepted."""
    sites = enumerate_sites(ob)
    rng.shuffle(sites)
    sites.sort(key=lambda site: site[0] != prefer)
    for tag, site in sites:
        try:
            return tag, stabilize(ob, tag, site)
        except StabilizationError:
            continue
    return None


def walk_steps():
    """Every accepted step of the walks, in order: ((root, walk, step,
    type), root book, book made)."""
    for walk in range(150):
        rng = random.Random(f"walk/{walk}")
        root = ROOTS[walk % len(ROOTS)]
        start = ob = build(*root)
        for i in range(rng.randint(1, 4)):
            taken = step(ob, rng, TYPES[(walk + i) % len(TYPES)])
            if taken is None:
                break
            tag, ob = taken
            yield (root, walk, i, tag), start, ob


def test_walks_keep_h1_and_the_real_part():
    accepted = set()
    for where, start, ob in walk_steps():
        accepted.add(where[-1])
        assert vars(ob)["_door"] is None and replace(ob)._door is None, where
        assert check_reality(ob).kind is not Reality.NOT_REAL, where
        assert h1_of_manifold(ob) == h1_of_manifold(start), where
        rp = real_part(ob)
        assert rp.count == real_part(start).count, where
        text = dumps(ob)
        assert dumps(ob) == text, where
        back = loads(text)
        assert back == ob, where
        assert real_part(back).separating_flags() == rp.separating_flags(), where
    assert accepted == set(TYPES)


def test_a_stabilization_may_change_the_separating_flags():
    """The flags belong to the splitting, not to (M, c): the disk's real
    circle separates, and after type I it does not, in the same S^3."""
    disk = build("disk")
    once = stabilize(disk, "I", {"boundary": 1})
    assert h1_of_manifold(once) == h1_of_manifold(disk)
    assert real_part(disk).separating_flags() == (True,)
    assert real_part(once).separating_flags() == (False,)
    fig5, fig6 = build("fig5", "2"), build("fig6", "2")
    assert h1_of_manifold(fig5) == h1_of_manifold(fig6)
    assert real_part(fig5).separating_flags() != real_part(fig6).separating_flags()
