"""A stabilized page's disjoint pairs follow from its provenance.

Each handle of a positive real stabilization is attached in a collar of
the binding, so the new curves of types II, III, IV and IX miss every
older curve, and those of II, III and IX also miss each other; types I,
V, VI, VII and VIII add no pair.  The oracle here (tests/schema1.py
oracle_pairs) is the loop the builder used to run after each such step,
replayed from a written book's provenance.  Schema 3 writes only the
root's pairs, a book read back must answer every pair as the root's
pairs plus the oracle's, and the reader must refuse a declared pair
that names a provenance curve and is not the oracle's.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from realbook.catalog import ENTRIES, build, catalog_fig4, catalog_fig5, catalog_fig6
from realbook.cli import main
from realbook.jsonio import dumps, loads
from realbook.openbook import (
    STAB_TYPES,
    StabilizationError,
    check_reality,
    enumerate_sites,
    stabilize,
)
from realbook.records import replace
from schema1 import as_schema2, oracle_pairs

BOOK_COMMANDS = [
    ["new"], ["invariants"], ["heegaard"], ["validate"], ["reality"],
    ["stabilize", "--type", "III", "--site", '{"boundary": 1}'],
]


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


def test_meeting_lists_agree_with_curves_disjoint():
    """The lists that word equality reads, derived from births step by
    step, name for each curve exactly the others that curves_disjoint
    does not hold disjoint: on every pair of curves of every golden page
    and of walks through all nine types, with a name the page lacks."""
    from test_golden import golden_books
    from test_openbook import typed_walks

    pages, tags = 0, set()
    for label, ob in list(golden_books()) + list(typed_walks(seed=3, steps=4)):
        page = ob.page
        names = list(page.alphabet) + ["not-a-curve"]
        meets = page.meeting_lists(names)
        assert list(meets) == names, label
        for a in names:
            want = sorted(b for b in names if b != a and not page.curves_disjoint(a, b))
            assert sorted(meets[a]) == want, (label, a)
        tags.update(st.tag for _step, st in page.births.values())
        pages += 1
    assert pages > 283 and tags == set(STAB_TYPES)


def test_written_pairs_are_the_roots_and_the_rules():
    """On every golden book and on walks through all nine types: the
    written list names no provenance curve and is the root catalog
    book's, and curves_disjoint answers each pair of curves as the
    written list plus the oracle's pairs do."""
    from test_golden import golden_books
    from test_openbook import typed_walks

    roots = root_pairs_by_alphabet()
    books, tags = 0, set()
    for label, ob in list(golden_books()) + list(typed_walks(seed=3, steps=4)):
        obj = json.loads(dumps(ob))
        root, derived = split_pairs(obj)
        assert derived == set(), label
        names = [c["name"] for c in obj["alphabet"]]
        made = {name for rec in obj["provenance"] for name, _ in rec["sigma"]}
        assert root == roots[frozenset(names) - made], label
        assert ob.page.disjoint == root, label
        pairs = root | oracle_pairs(names, obj["provenance"])
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
    list is the root's pairs, it reads back to the same bytes, and the
    book read back answers every pair as the built one and as the
    root's pairs plus the step's."""
    root = replace(catalog_fig4(2), provenance=())
    after = stabilize(root, "IX", {"boundaries": [1, 2]})
    assert set(after.page.alphabet) - set(root.page.alphabet) == {"s3", "s3c"}
    text = dumps(after)
    obj = json.loads(text)
    names = [c["name"] for c in obj["alphabet"]]
    kept, derived = split_pairs(obj)
    assert kept == split_pairs(json.loads(dumps(root)))[0] and derived == set()
    pairs = kept | oracle_pairs(names, obj["provenance"])
    assert pairs != kept
    back = loads(text)
    assert dumps(back) == text
    assert all(back.page.curves_disjoint(a, b) == after.page.curves_disjoint(a, b)
               == (frozenset((a, b)) in pairs) for a in names for b in names)


@pytest.mark.parametrize("family, k", [(catalog_fig5, 2), (catalog_fig5, 3),
                                       (catalog_fig6, 2), (catalog_fig6, 3)])
def test_a_book_without_its_provenance_keeps_its_born_pairs(family, k):
    """A book whose provenance is dropped holds the births it records,
    none: the page's births are folded into root pairs, so the writer
    writes them with the root's, and the book equals its read-back,
    gets the same verdict and answers every pair alike."""
    built = family(k)
    assert any(st.disjoint_old for _, st in built.page.births.values())
    ob = replace(built, provenance=())
    assert not ob.page.births and ob.page.disjoint != built.page.disjoint
    back = loads(dumps(ob))
    assert back == ob and dumps(back) == dumps(ob)
    assert check_reality(back).kind == check_reality(ob).kind == check_reality(built).kind
    names = list(ob.page.alphabet)
    assert all(back.page.curves_disjoint(a, b) == ob.page.curves_disjoint(a, b)
               for a in names for b in names)


def test_a_provenance_kept_only_for_its_last_steps_keeps_every_pair():
    """The reader takes a curve no written record makes for a root
    curve, older than every record's.  With the first of two records
    dropped, that holds: the III curves are written with their pairs and
    the book read back answers every pair alike.  With the last one
    dropped, the I curve s2 would read back as older than the III
    curves, whose rule would then pair it with them, so the writer
    refuses that book."""
    ob = stabilize(stabilize(ENTRIES[0].build(), "III", {"boundary": 1}), "I", {"boundary": 1})
    assert ob.page.births.keys() == {"s1", "s1c", "s2"}
    assert not ob.page.curves_disjoint("s1", "s2")
    with pytest.raises(ValueError, match="last stabilizations"):
        dumps(replace(ob, provenance=ob.provenance[:1]))
    cut = replace(ob, provenance=ob.provenance[1:])
    text = dumps(cut)
    back = loads(text)
    assert back.page.births.keys() == {"s2"} and dumps(back) == text and back == cut
    names = list(ob.page.alphabet)
    assert all(back.page.curves_disjoint(a, b) == ob.page.curves_disjoint(a, b)
               for a in names for b in names)


def test_every_provenance_suffix_equals_its_read_back():
    """Every suffix of the provenance of every ladder book (fig4, fig5
    and fig6 to k = 8) and every walk book: the births no kept record
    makes are folded into root pairs and the rest numbered by record,
    as the reader derives them, so the book equals its read-back and
    answers every pair as the whole book does.  A book whose page
    already holds the births its provenance records keeps its page
    object, as every book stabilize makes does."""
    from test_walks import walk_steps

    books = [build(family, k) for family in ("fig4", "fig5", "fig6") for k in range(1, 9)]
    books += [ob for _where, _start, ob in walk_steps()]
    trimmed = 0
    for ob in books:
        assert replace(ob, provenance=ob.provenance).page is ob.page
        names = list(ob.page.alphabet)
        for start in range(1, len(ob.provenance) + 1):
            cut = replace(ob, provenance=ob.provenance[start:])
            assert len(cut.page.births) == sum(len(r.sigma) for r in cut.provenance)
            back = loads(dumps(cut))
            assert back == cut and dumps(back) == dumps(cut), (ob.provenance, start)
            assert replace(cut).page is cut.page
            assert all(cut.page.curves_disjoint(a, b) == ob.page.curves_disjoint(a, b)
                       for a in names for b in names)
            trimmed += 1
    assert trimmed > len(books)


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


def test_a_list_lacking_a_rule_pair_loads_to_the_same_book():
    """The pairs the provenance gives are optional: a schema-2 list with
    one of them dropped loads to the book, and new writes its bytes."""
    ob = catalog_fig5(2)
    obj = json.loads(as_schema2(dumps(ob)))
    gone = obj["disjoint"].pop()
    assert "s2c" in gone
    text = json.dumps(obj)
    assert loads(text) == ob
    assert run(["new"], text) == (0, dumps(ob) + "\n", "")


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
    """A root pair may name a curve the page lacks (validate reports it,
    and stabilize refuses the book at its door).  When a page that
    keeps the pair has a curve of that name made, the pair still names
    no root curve: the new curve's pairs are its type's alone, and the
    book is written as one the reader takes back."""
    obj = json.loads(dumps(ENTRIES[0].build()))
    obj["disjoint"].append(["d1", "s1"])
    root = loads(json.dumps(obj))
    with pytest.raises(StabilizationError, match=r"disjoint pair \(d1, s1\) names an unknown"):
        stabilize(root, "I", {"boundary": 1})
    made = stabilize(ENTRIES[0].build(), "I", {"boundary": 1})
    after = replace(made, page=replace(made.page, disjoint=root.page.disjoint))
    assert "s1" in after.page.alphabet and not after.page.curves_disjoint("d1", "s1")
    text = dumps(after)
    assert json.loads(text)["disjoint"] == [] and dumps(loads(text)) == text
