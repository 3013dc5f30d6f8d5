"""Golden digests of the exact outputs.

GOLDEN is one SHA-256 over the JSON, H1 and reality verdict of every
catalog entry, of the fig4/5/6 ladders up to k = 10 and of seeded
stabilization walks, including the message of every refused site the
walks try.  GOLDEN_REAL is a second SHA-256 over the same books: their
H1, the Heegaard checks and the real part (pieces and mod-2 class of
every component, or the refusal).  A refactor or speed-up of the exact
algebra must leave both unchanged; a deliberate change of output must
update them together with a note of why the outputs moved.
"""

import hashlib
import random

import pytest

from realbook.catalog import ENTRIES, catalog_fig4, catalog_fig5, catalog_fig6
from realbook.heegaard import RealPartUnavailable, heegaard_data, real_part, validate_heegaard
from realbook.jsonio import dumps
from realbook.openbook import (
    StabilizationError,
    check_reality,
    enumerate_sites,
    h1_of_manifold,
    stabilize,
)

GOLDEN = "b13d294277f54bb7c68b88410f9c99cb54551fb96718edc3fc568a5a8901cdcf"
GOLDEN_REAL = "1e98707ef1960f4f366cb0e1f89c26ce4d91446c2c992e78032f5583182b3c9f"

LADDER_TOP = 10


def _record(hashes, label, ob):
    h, hr = hashes
    status = check_reality(ob)
    h1 = h1_of_manifold(ob)
    h.update(f"{label}\n".encode())
    h.update(dumps(ob).encode())
    h.update(f"\nH1 {h1!r}\n".encode())
    h.update(f"reality {status.kind.value} {status.witness!r}\n".encode())

    hr.update(f"{label}\nH1 {h1!r}\n".encode())
    try:
        checks = validate_heegaard(heegaard_data(ob), ob)
    except ValueError as e:
        checks = f"refused {e}"
    hr.update(f"heegaard {checks!r}\n".encode())
    try:
        rp = [(c.pieces, c.h1_class) for c in real_part(ob).components]
    except (RealPartUnavailable, ValueError) as e:
        rp = f"refused {type(e).__name__} {e}"
    hr.update(f"real part {rp!r}\n".encode())


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


def _walks(hashes, seed, count, steps):
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
                    hashes[0].update(f"refused {tag} {sorted(site.items())!r}: {e}\n".encode())
                    continue
                ob = nxt
                _record(hashes, f"walk {seed}/{n}/{step} {tag} {sorted(site.items())!r}", ob)
                break
            else:
                break


def golden_digests():
    """(GOLDEN, GOLDEN_REAL) of the current code, from one pass over the books."""
    hashes = (hashlib.sha256(), hashlib.sha256())
    for e in ENTRIES:
        _record(hashes, e.name, e.build())
    for label, ob in _ladders():
        _record(hashes, label, ob)
    _walks(hashes, seed=2024, count=40, steps=6)
    return tuple(h.hexdigest() for h in hashes)


@pytest.fixture(scope="module")
def digests():
    return golden_digests()


def test_golden_digest(digests):
    assert digests[0] == GOLDEN


def test_golden_real_part_digest(digests):
    assert digests[1] == GOLDEN_REAL


if __name__ == "__main__":
    print(*golden_digests(), sep="\n")
