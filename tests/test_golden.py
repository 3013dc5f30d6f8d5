"""Golden digest of the exact outputs.

One SHA-256 over the JSON, H1 and reality verdict of every catalog
entry, of the fig4/5/6 ladders up to k = 10 and of seeded stabilization
walks, including the message of every refused site the walks try.  A
refactor or speed-up of the exact algebra must leave it unchanged; a
deliberate change of output must update GOLDEN together with a note of
why the outputs moved.
"""

import hashlib
import random

from realbook.catalog import ENTRIES, catalog_fig4, catalog_fig5, catalog_fig6
from realbook.jsonio import dumps
from realbook.openbook import (
    StabilizationError,
    check_reality,
    enumerate_sites,
    h1_of_manifold,
    stabilize,
)

GOLDEN = "b13d294277f54bb7c68b88410f9c99cb54551fb96718edc3fc568a5a8901cdcf"

LADDER_TOP = 10


def _record(h, label, ob):
    status = check_reality(ob)
    h.update(f"{label}\n".encode())
    h.update(dumps(ob).encode())
    h.update(f"\nH1 {h1_of_manifold(ob)!r}\n".encode())
    h.update(f"reality {status.kind.value} {status.witness!r}\n".encode())


def _swap_pair(ob):
    perm = ob.real_structure.boundary_perm
    return next((c, perm[c]) for c in sorted(perm) if perm[c] != c)


def _ladders():
    ob = catalog_fig4(1)
    yield "fig4-1", ob
    for k in range(2, LADDER_TOP + 1):
        ob = stabilize(ob, "VIII", {"boundaries": _swap_pair(ob)})
        yield f"fig4-{k}", ob
    ob = catalog_fig5(1)
    yield "fig5-1", ob
    for k in range(2, LADDER_TOP + 1):
        ob = stabilize(ob, "III", {"boundary": 1})
        yield f"fig5-{k}", ob
    ob = catalog_fig6(1)
    yield "fig6-1", ob
    for k in range(2, LADDER_TOP + 1):
        ob = stabilize(ob, "III", {"boundary": 1})
        yield f"fig6-{k}", ob


def _walks(h, seed, count, steps):
    rng = random.Random(seed)
    for n in range(count):
        ob = ENTRIES[rng.randrange(len(ENTRIES))].build()
        for step in range(steps):
            sites = enumerate_sites(ob)
            rng.shuffle(sites)
            for tag, site in sites:
                try:
                    nxt = stabilize(ob, tag, site)
                except StabilizationError as e:
                    h.update(f"refused {tag} {sorted(site.items())!r}: {e}\n".encode())
                    continue
                ob = nxt
                _record(h, f"walk {seed}/{n}/{step} {tag} {sorted(site.items())!r}", ob)
                break
            else:
                break


def golden_digest():
    h = hashlib.sha256()
    for e in ENTRIES:
        _record(h, e.name, e.build())
    for label, ob in _ladders():
        _record(h, label, ob)
    _walks(h, seed=2024, count=40, steps=6)
    return h.hexdigest()


def test_golden_digest():
    assert golden_digest() == GOLDEN


if __name__ == "__main__":
    print(golden_digest())
