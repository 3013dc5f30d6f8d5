"""Golden digests of the exact outputs.

GOLDEN_SCHEMA3 is one SHA-256 over the JSON text that `dumps` writes
(schema 3, one compact top-level field per line), H1 and reality
verdict of every catalog entry, of the fig4/5/6 ladders up to k = 10
and of seeded stabilization walks, including the message of every
refused site the walks try.  It hashes bytes, so it moves with the
layout of the text as well as with its JSON value.  GOLDEN is the same
digest with each book's text rendered as schema 2 by tests/schema1.py
(the zero current_class rows and the pairs the provenance gives put
back, one field per line), and GOLDEN_SCHEMA1 with that rendered again
as schema 1 (indent 2).  Both are computed without realbook's writer
from the schema-3 text, so they pin that the schema-3 text loses
nothing against the schema-2 and schema-1 writers, whose digests they
are.  Every book must also load back to itself from all three texts.
GOLDEN_REAL is a fourth SHA-256 over the same books: their H1, the
Heegaard checks and the real part (pieces and mod-2 class of every
component, or the refusal).  A refactor or speed-up of the exact
algebra must leave all four unchanged; a deliberate change of output
must update them together with a note of why the outputs moved.

The ledger (golden_ledger.tsv, written by `python tests/test_golden.py
--ledger`) says which book moved: one tab-separated line per golden
book, in digest order, with its label, the SHA-256 of its schema-3
text, its H1, its verdict, the kind of its witness and its real part
(as GOLDEN_REAL hashes it), and one line per refused site, with the
walk step that tried it.  tests/ledger_diff.py OLD NEW counts the books
whose bytes or invariants moved between two ledgers and the walks that
diverged.
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

from realbook.catalog import ENTRIES, catalog_fig4, catalog_fig5, catalog_fig6
from realbook.heegaard import RealPartUnavailable, heegaard_data, real_part, validate_heegaard
from realbook.jsonio import dumps, loads
from realbook.openbook import (
    StabilizationError,
    check_reality,
    enumerate_sites,
    h1_of_manifold,
    stabilize,
)
from ledger_diff import first_difference, parse
from schema1 import as_schema1, as_schema2

GOLDEN = "bcf96ce5e656d2dd0cb5800199e252706b5d7105bca9cb5e18a3d0b97a70e1b8"
GOLDEN_SCHEMA1 = "b13d294277f54bb7c68b88410f9c99cb54551fb96718edc3fc568a5a8901cdcf"
GOLDEN_SCHEMA3 = "08ce40bf0ac76ab313f3da1c53a18d8718455609e91f20de12a6d32166ea63b4"
GOLDEN_REAL = "ae930a1f014d23b03ddd0309fc80ec749d7b54aad3118661189f48883edfd62e"

LADDER_TOP = 10

LEDGER = Path(__file__).with_name("golden_ledger.tsv")


class _Digests:
    """The running digests, the ledger's lines, and the labels of books
    that do not load back from each of their schema-3, schema-2 and
    schema-1 texts."""

    def __init__(self):
        self.json3, self.json2, self.json1, self.real = (hashlib.sha256() for _ in range(4))
        self.ledger = []
        self.unequal = []

    def update(self, line):
        """Add a line that the three JSON digests share."""
        for h in (self.json3, self.json2, self.json1):
            h.update(line.encode())

    def refused(self, where, line):
        """Add the line of a refused site, tried at the walk step where."""
        self.update(line)
        self.ledger.append(_ledger_line(where, *line.rstrip("\n").split(" ", 1)))


def _ledger_line(*fields):
    assert not any("\t" in f or "\n" in f for f in fields), fields
    return "\t".join(fields)


def _witness_kind(witness):
    """None, a word, the stabilization chain, or the keys of a NotReal
    witness."""
    if witness is None:
        return "none"
    if isinstance(witness, str):
        return witness
    if isinstance(witness, tuple):
        return "word"
    return "+".join(sorted(witness))


def _record(d, label, ob):
    status = check_reality(ob)
    h1 = h1_of_manifold(ob)
    text = dumps(ob)
    text2 = as_schema2(text)
    text1 = as_schema1(text2)
    if not loads(text1) == loads(text2) == loads(text) == ob:
        d.unequal.append(label)
    d.update(f"{label}\n")
    d.json3.update(text.encode())
    d.json2.update(text2.encode())
    d.json1.update(text1.encode())
    d.update(f"\nH1 {h1!r}\n")
    d.update(f"reality {status.kind.value} {status.witness!r}\n")

    hr = d.real
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
    d.ledger.append(_ledger_line(label, hashlib.sha256(text.encode()).hexdigest(), repr(h1),
                                 status.kind.value, _witness_kind(status.witness), repr(rp)))


def _swap_pair(ob):
    perm = ob.real_structure.boundary_perm
    return next((c, perm[c]) for c in sorted(perm) if perm[c] != c)


def ladders():
    """The fig4/5/6 ladders from k = 1 to LADDER_TOP, as (label, book)."""
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


def _walks(refused, seed, count, steps):
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
                    refused(f"walk {seed}/{n}/{step}",
                            f"refused {tag} {sorted(site.items())!r}: {e}\n")
                    continue
                ob = nxt
                yield f"walk {seed}/{n}/{step} {tag} {sorted(site.items())!r}", ob
                break
            else:
                break


def golden_books(refused=lambda where, line: None):
    """Every golden book as (label, book), in digest order: the catalog,
    the ladders and the seeded walks.  refused(where, line) is called
    with the walk step and the line of each site a walk tries and is
    refused, before the next book."""
    for e in ENTRIES:
        yield e.name, e.build()
    yield from ladders()
    yield from _walks(refused, seed=2024, count=40, steps=6)


def golden_digests():
    """The digests of the current code, from one pass over the books."""
    d = _Digests()
    for label, ob in golden_books(d.refused):
        _record(d, label, ob)
    return d


@pytest.fixture(scope="module")
def digests():
    return golden_digests()


def test_golden_digest(digests):
    assert digests.json2.hexdigest() == GOLDEN


def test_golden_schema1_digest(digests):
    assert digests.json1.hexdigest() == GOLDEN_SCHEMA1


def test_golden_schema3_digest(digests):
    assert digests.json3.hexdigest() == GOLDEN_SCHEMA3


def test_golden_books_load_from_every_schema(digests):
    assert digests.unequal == []


def test_golden_real_part_digest(digests):
    assert digests.real.hexdigest() == GOLDEN_REAL


def test_golden_ledger_matches_the_file(digests):
    """A moved book is named, with the fields of it that moved."""
    moved = first_difference(parse(LEDGER.read_text().splitlines()), parse(digests.ledger))
    assert moved is None, f"the golden ledger moved: {moved}"


if __name__ == "__main__":
    d = golden_digests()
    if sys.argv[1:] == ["--ledger"]:
        LEDGER.write_text("".join(line + "\n" for line in d.ledger))
        print(f"wrote {len(d.ledger)} lines to {LEDGER}")
    print(f"GOLDEN {d.json2.hexdigest()}\nGOLDEN_SCHEMA1 {d.json1.hexdigest()}\n"
          f"GOLDEN_SCHEMA3 {d.json3.hexdigest()}\nGOLDEN_REAL {d.real.hexdigest()}\n"
          f"not loaded back: {d.unequal}")
