"""A stabilized page's disjoint pairs follow from its provenance.

Each handle of a positive real stabilization is attached in a collar of
the binding, so the new curves of types II, III, IV and IX miss every
older curve, and those of II, III and IX also miss each other; types I,
V, VI, VII and VIII add no pair.  The oracle here is the loop the
builder used to run after each such step, replayed from a written
book's provenance; the written list must be the root's pairs plus the
oracle's, and the reader must refuse any other list.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from realbook.catalog import ENTRIES, catalog_fig4, catalog_fig5
from realbook.cli import main
from realbook.jsonio import dumps, loads
from realbook.openbook import STAB_TYPES, StabilizationError, enumerate_sites, stabilize
from realbook.records import replace

# the types whose new curves miss the older ones; IV's two chords cross
PAIRING_TYPES = ("II", "III", "IV", "IX")
BOOK_COMMANDS = [
    ["new"], ["invariants"], ["heegaard"], ["validate"], ["reality"],
    ["stabilize", "--type", "III", "--site", '{"boundary": 1}'],
]


def oracle_pairs(names, provenance):
    """The pairs the builder's old mark_disjoint loop made, replayed over
    the provenance records of a written book: at each step of a pairing
    type, each new curve (the record's sigma names) with every curve the
    page then had, and the new curves with each other unless the type
    is IV.  The root curves are the names no record makes."""
    made = {name for rec in provenance for name, _ in rec["sigma"]}
    classes = [name for name in names if name not in made]
    pairs = set()
    for rec in provenance:
        new = [name for name, _ in rec["sigma"]]
        classes += new
        if rec["type"] in PAIRING_TYPES:
            for u in classes:
                for n in new:
                    if u != n and not (rec["type"] == "IV" and u in new):
                        pairs.add(frozenset((u, n)))
    return pairs


def split_pairs(obj):
    """The written list of a book object as (root pairs, pairs naming a
    provenance curve); no pair is written twice."""
    written = [frozenset(pair) for pair in obj["disjoint"]]
    assert len(set(written)) == len(written)
    made = {name for rec in obj["provenance"] for name, _ in rec["sigma"]}
    return {p for p in written if not p & made}, {p for p in written if p & made}


def root_pairs_by_alphabet():
    """The written pairs of each catalog book without provenance, keyed
    by its curve names."""
    out = {}
    for e in ENTRIES:
        obj = json.loads(dumps(e.build()))
        if not obj["provenance"]:
            out[frozenset(c["name"] for c in obj["alphabet"])] = split_pairs(obj)[0]
    return out


def run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def test_written_pairs_are_the_roots_and_the_rules():
    """On every golden book and on walks through all nine types: the
    written pairs that name a provenance curve are the oracle's, the
    others are the root catalog book's, and curves_disjoint answers
    each pair of curves as the written list does."""
    from test_golden import golden_books
    from test_openbook import typed_walks

    roots = root_pairs_by_alphabet()
    books, tags = 0, set()
    for label, ob in list(golden_books()) + list(typed_walks(seed=3, steps=4)):
        obj = json.loads(dumps(ob))
        root, derived = split_pairs(obj)
        names = [c["name"] for c in obj["alphabet"]]
        assert derived == oracle_pairs(names, obj["provenance"]), label
        made = {name for rec in obj["provenance"] for name, _ in rec["sigma"]}
        assert root == roots[frozenset(names) - made], label
        assert ob.page.disjoint == root, label
        pairs = root | derived
        assert all(ob.page.curves_disjoint(a, b) == (frozenset((a, b)) in pairs)
                   for a in names for b in names), label
        tags.update(rec["type"] for rec in obj["provenance"])
        books += 1
    assert books > 283 and tags == set(STAB_TYPES)


def test_stabilize_shares_the_roots_pairs():
    tags = set()
    for e in ENTRIES:
        ob = e.build()
        for tag, site in enumerate_sites(ob):
            try:
                out = stabilize(ob, tag, site)
            except StabilizationError:
                continue
            assert out.page.disjoint is ob.page.disjoint, (e.name, tag)
            tags.add(tag)
    assert tags == set(STAB_TYPES)


def test_a_root_that_uses_an_s_name_keeps_its_pairs():
    """Without its provenance, fig4(2)'s curves s1, s2 and s2c are root
    curves, and a type-IX step names its curves s3 and s3c.  The written
    list is the root's pairs plus the step's, it reads back to the same
    bytes, and the book read back answers every pair as the built one."""
    root = replace(catalog_fig4(2), provenance=())
    after = stabilize(root, "IX", {"boundaries": [1, 2]})
    assert set(after.page.alphabet) - set(root.page.alphabet) == {"s3", "s3c"}
    text = dumps(after)
    obj = json.loads(text)
    names = [c["name"] for c in obj["alphabet"]]
    kept, derived = split_pairs(obj)
    assert kept == split_pairs(json.loads(dumps(root)))[0]
    assert derived == oracle_pairs(names, obj["provenance"]) and derived
    back = loads(text)
    assert dumps(back) == text
    assert all(back.page.curves_disjoint(a, b) == after.page.curves_disjoint(a, b)
               for a in names for b in names)


def _refused(text, path):
    for argv in BOOK_COMMANDS:
        code, _out, err = run(argv, text)
        assert code == 2, argv
        assert err.startswith(f"error: {path}"), (argv, err)


def test_a_declared_pair_the_rule_does_not_give_is_exit_2():
    # types I and VIII add no pair, so fig4(2) declares none
    obj = json.loads(dumps(catalog_fig4(2)))
    assert obj["disjoint"] == []
    obj["disjoint"].append(["s1", "s2"])
    _refused(json.dumps(obj), "$.disjoint[0] is [\"s1\", \"s2\"]")


def test_a_missing_rule_pair_is_exit_2():
    obj = json.loads(dumps(catalog_fig5(2)))
    gone = obj["disjoint"].pop()
    assert "s2c" in gone
    _refused(json.dumps(obj), f"$.disjoint lacks {json.dumps(gone)}")


def test_an_unknown_provenance_type_is_exit_2():
    obj = json.loads(dumps(catalog_fig5(2)))
    obj["provenance"][0]["type"] = "X"
    _refused(json.dumps(obj), "$.provenance[0].type is 'X'")


def test_a_curve_made_twice_is_exit_2():
    obj = json.loads(dumps(catalog_fig5(2)))
    obj["provenance"][1]["sigma"] = obj["provenance"][0]["sigma"]
    obj["provenance"][1]["images"] = obj["provenance"][0]["images"]
    _refused(json.dumps(obj), "$.provenance[1].sigma makes curve")


def test_a_curve_paired_with_itself_is_exit_2():
    # such a pair was read as a one-name set, and written as ["d1"], a
    # book the reader refused
    obj = json.loads(dumps(ENTRIES[1].build()))
    assert obj["disjoint"] == [["d1", "d2"]]
    obj["disjoint"].append(["d1", "d1"])
    _refused(json.dumps(obj), "$.disjoint[1] must be a pair of two distinct curve names")


def test_a_root_pair_naming_a_missing_curve_gains_nothing_from_a_birth():
    """A root pair may name a curve the page lacks (validate reports it).
    When a stabilization then makes a curve of that name, the pair
    still names no root curve: the new curve's pairs are its type's
    alone, and the book is written as one the reader takes back."""
    obj = json.loads(dumps(ENTRIES[0].build()))
    obj["disjoint"].append(["d1", "s1"])
    after = stabilize(loads(json.dumps(obj)), "I", {"boundary": 1})
    assert "s1" in after.page.alphabet and not after.page.curves_disjoint("d1", "s1")
    text = dumps(after)
    assert json.loads(text)["disjoint"] == [] and dumps(loads(text)) == text
