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
label, in digest order, with its label, the SHA-256 of its schema-3
text, its H1, its verdict, the kind of its witness and its real part
(as GOLDEN_REAL hashes it), and one line per refused site, with the
walk step that tried it.  A label the catalog and the ladders share
(fig4-1 to fig6-2) is one book, hashed at both places of the digests'
sequence and written once.  tests/ledger_diff.py OLD NEW counts the
books whose bytes or invariants moved between two ledgers, keyed by
label, and the walks that diverged.
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
    """Check a book, append its ledger line, and return what it adds to
    the digests, as a function that adds it."""
    status = check_reality(ob)
    h1 = h1_of_manifold(ob)
    text = dumps(ob)
    text2 = as_schema2(text)
    text1 = as_schema1(text2)
    if not loads(text1) == loads(text2) == loads(text) == ob:
        d.unequal.append(label)
    try:
        checks = validate_heegaard(heegaard_data(ob), ob)
    except ValueError as e:
        checks = f"refused {e}"
    try:
        rp = [(c.pieces, c.h1_class) for c in real_part(ob).components]
    except (RealPartUnavailable, ValueError) as e:
        rp = f"refused {type(e).__name__} {e}"
    d.ledger.append(_ledger_line(label, hashlib.sha256(text.encode()).hexdigest(), repr(h1),
                                 status.kind.value, _witness_kind(status.witness), repr(rp)))

    def add():
        d.update(f"{label}\n")
        d.json3.update(text.encode())
        d.json2.update(text2.encode())
        d.json1.update(text1.encode())
        d.update(f"\nH1 {h1!r}\n")
        d.update(f"reality {status.kind.value} {status.witness!r}\n")
        d.real.update(f"{label}\nH1 {h1!r}\nheegaard {checks!r}\nreal part {rp!r}\n".encode())
    return add


def _swap_pair(ob):
    perm = ob.real_structure.boundary_perm
    return next((c, perm[c]) for c in sorted(perm) if perm[c] != c)


# each ladder: its name, its root at k = 1, and its step from k to k + 1
LADDERS = (("fig4", catalog_fig4, lambda ob: stabilize(ob, "VIII", {"boundaries": _swap_pair(ob)})),
           ("fig5", catalog_fig5, lambda ob: stabilize(ob, "III", {"boundary": 1})),
           ("fig6", catalog_fig6, lambda ob: stabilize(ob, "III", {"boundary": 1})))


def ladders(built=None):
    """The fig4/5/6 ladders from k = 1 to LADDER_TOP, as (label, book).
    built maps a label to its book where one is already built (the
    catalog's fig4-1 to fig6-2), which the ladder then takes as it is
    and climbs from."""
    built = built or {}
    for fig, root, climb in LADDERS:
        for k in range(1, LADDER_TOP + 1):
            label = f"{fig}-{k}"
            if label in built:
                ob = built[label]
            else:
                ob = climb(ob) if k > 1 else root(1)
            yield label, ob


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
    the ladders and the seeded walks.  The ladders take the seven books
    they share with the catalog (fig4-1 to fig6-2) as the catalog built
    them, so each label is one book, built once.  refused(where, line)
    is called with the walk step and the line of each site a walk tries
    and is refused, before the next book."""
    built = {}
    for e in ENTRIES:
        built[e.name] = e.build()
        yield e.name, built[e.name]
    yield from ladders(built)
    yield from _walks(refused, seed=2024, count=40, steps=6)


def golden_digests():
    """The digests of the current code, from one pass over the books.  A
    label the ladders share with the catalog is hashed at both places of
    the sequence, and recorded once: one ledger line per label."""
    d = _Digests()
    recorded = {}
    for label, ob in golden_books(d.refused):
        if label not in recorded:
            recorded[label] = _record(d, label, ob)
        recorded[label]()
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
