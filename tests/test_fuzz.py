"""Fuzz of the book reader and every subcommand that reads a book.

Each example takes a catalog book, written as schema 3 or rendered as
schema 2 or schema 1, changes one field of it (replaces the value,
deletes the key or entry, moves an integer by one, or grows or shrinks
a list) or changes its real structure within the schema (drops or
renames a fixed point, moves a boundary_perm entry or a fixed-arc end,
bumps one entry of involution.matrix or one antisymmetric pair of
page.form), and runs the result through each book-reading subcommand in
process.  Every run must end in exit code 0, 1 or 2 without an
exception escaping, and every exit 2 must print an `error:` line; the
query subcommands must exit 1 on every book validate rejects.  The
examples are seeded, so a run is repeatable.  A second fuzz adds or
drops one `disjoint` pair: a list with a pair that names a provenance
curve and that the book's provenance does not give (the oracle of
tests/schema1.py) must exit 2 with its `$.disjoint` path in every
subcommand, and any other list must load, as the pairs the provenance
gives are optional.  A third walks seeded stabilizations of every type
from the catalog books and checks each step's storage
(tests/test_sharing.py): canonical sparse vectors, the parent's objects
shared where the step left them alone, and the parent's text unmoved.
A fourth runs stabilize on the mutated books: it must refuse, with exit
1, every book validate rejects.
"""

import json
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from realbook.catalog import build  # noqa: E402
from realbook.jsonio import dumps  # noqa: E402
from realbook.openbook import STAB_TYPES, StabilizationError, enumerate_sites  # noqa: E402
from schema1 import as_schema1, as_schema2, oracle_pairs  # noqa: E402
from test_disjoint import run  # noqa: E402
from test_sharing import BASES, stabilized  # noqa: E402

BOOKS = [("disk",), ("hopf", "conjugation"), ("hopf", "swap"), ("fig4", "2"), ("fig5", "2"),
         ("fig6", "1"), ("lens-annulus", "3"), ("lens-3punctured", "2", "2", "1")]
TEXTS = [text for book in BOOKS for text in [dumps(build(*book))] for text in
         (text, as_schema2(text), as_schema1(as_schema2(text)))]

COMMANDS = [
    ["new"], ["invariants"], ["heegaard"], ["validate"], ["reality"],
    ["stabilize", "--type", "I", "--site", '{"boundary": 1}'],
    ["stabilize", "--type", "III", "--site", '{"boundary": 1}'],
    ["stabilize", "--type", "VIII", "--site", '{"boundaries": [1, 2]}'],
]

QUERIES = [["new"], ["invariants"], ["heegaard"], ["reality"]]
STABILIZE = [argv for argv in COMMANDS if argv[0] == "stabilize"]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=6,
)


def field_paths(obj, prefix=()):
    """The key path of every value below the top level of a JSON object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


def in_schema_mutations(obj):
    """The changes to the real structure of a book object that keep it
    inside the schema, each a function of draw, for those the book
    has data for; most of them give a book the reader takes and
    validate's involution section rejects."""
    inv = obj["involution"]
    circles = [c["id"] for c in obj["page"]["boundary"]]
    points = sorted({p for pts in inv["fixed_points"].values() for p in pts}) or [1]
    arcs = [arc for fset in (inv["fixed_set"], obj.get("fix_plus")) if fset
            for arc in fset["arcs"]]
    rank = len(obj["page"]["basis"])

    def fixed_point(draw):
        pts = inv["fixed_points"][draw(st.sampled_from(sorted(inv["fixed_points"])))]
        i = draw(st.integers(0, len(pts) - 1))
        if draw(st.booleans()):
            del pts[i]
        else:
            pts[i] = draw(st.sampled_from(points + [max(points) + 1]))

    def boundary_perm(draw):
        inv["boundary_perm"][draw(st.sampled_from(sorted(inv["boundary_perm"])))] = \
            draw(st.sampled_from(circles))

    def arc_end(draw):
        ends = draw(st.sampled_from(arcs))["ends"]
        ends[draw(st.integers(0, 1))] = [draw(st.sampled_from(circles)),
                                         draw(st.sampled_from(points))]

    def matrix_entry(draw):
        row = inv["matrix"][draw(st.integers(0, rank - 1))]
        row[draw(st.integers(0, rank - 1))] += draw(st.sampled_from([-1, 1]))

    def form_pair(draw):
        i, k = draw(st.permutations(range(rank)))[:2]
        d = draw(st.sampled_from([-1, 1]))
        obj["page"]["form"][i][k] += d
        obj["page"]["form"][k][i] -= d

    have = [(fixed_point, inv["fixed_points"]), (boundary_perm, inv["boundary_perm"]),
            (arc_end, arcs), (matrix_entry, rank), (form_pair, rank > 1)]
    return [mutation for mutation, data in have if data]


@st.composite
def mutated_books(draw):
    obj = json.loads(draw(st.sampled_from(TEXTS)))
    mutations = in_schema_mutations(obj)
    if mutations and draw(st.booleans()):
        draw(st.sampled_from(mutations))(draw)
        return json.dumps(obj)
    path = draw(st.sampled_from(list(field_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    kinds = ["replace", "delete"]
    if isinstance(old, int) and not isinstance(old, bool):
        kinds.append("step")
    if isinstance(old, list):
        kinds += ["grow", "shrink"]
    kind = draw(st.sampled_from(kinds))
    if kind == "replace":
        parent[key] = draw(JSON_VALUES)
    elif kind == "delete":
        del parent[key]
    elif kind == "step":
        parent[key] = old + draw(st.sampled_from([-1, 1]))
    elif kind == "grow":
        old.append(old[-1] if old else draw(JSON_VALUES))
    elif old:
        old.pop()
    return json.dumps(obj)


@seed(13)
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated_books())
def test_mutated_book_ends_in_an_exit_code(text):
    """Every subcommand ends in 0, 1 or 2, and no query subcommand (new,
    reality, invariants, heegaard) exits 0 on a book whose validate
    report fails an involution, page or plus check, and stabilize
    refuses it at the door."""
    code, out, _err = run(["validate"], text)
    rejected = code != 2 and not all(v is True for section in ("involution", "page", "plus")
                                     for v in json.loads(out)[section].values())
    for argv in COMMANDS:
        code, _out, err = run(argv, text)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("error: "), argv
        if rejected and argv in QUERIES:
            assert code == 1 and err.startswith("error: book fails validation: "), (argv, err)
        if rejected and argv in STABILIZE:
            assert code == 1 and err.startswith("error: refusing to stabilize "), (argv, err)


@seed(17)
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated_books())
def test_stabilize_refuses_what_validate_rejects(text):
    """stabilize decides its parent's reality and validity at the door.
    On a mutated book no stabilize run lets an exception escape, and
    none exits 0 on a book that validate rejects: each exits 1 with an
    `error:` line whenever validate exits 1, on a failing check of any
    section or a NotReal verdict."""
    rejected = run(["validate"], text)[0] == 1
    for argv in STABILIZE:
        code, _out, err = run(argv, text)
        assert code in (0, 1, 2), argv
        assert err.startswith("error: ") if code else not err, argv
        if rejected:
            assert code == 1, (argv, err)


@st.composite
def repaired_lists(draw):
    """A book with one `disjoint` pair added (two curve names of the
    book, or one and a name it lacks) or dropped, whether the pair was
    dropped, and whether its list declares a pair naming a provenance
    curve that the rule does not give."""
    obj = json.loads(draw(st.sampled_from(TEXTS)))
    pairs = obj["disjoint"]
    dropped = bool(pairs) and draw(st.booleans())
    if dropped:
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))
    else:
        names = st.sampled_from([c["name"] for c in obj["alphabet"]])
        pair = [draw(names), draw(names | st.just("zzz"))]
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.permutations(pair)))
    names = [c["name"] for c in obj["alphabet"]]
    made = {name for rec in obj["provenance"] for name, _ in rec["sigma"]}
    derived = {frozenset(p) for p in pairs if made & set(p)}
    return json.dumps(obj), dropped, bool(derived - oracle_pairs(names, obj["provenance"]))


@seed(19)
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(repaired_lists())
def test_a_list_that_breaks_the_rule_is_exit_2(case):
    text, dropped, breaks = case
    for argv in COMMANDS:
        code, _out, err = run(argv, text)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("error: "), argv
        if breaks:
            assert code == 2 and err.startswith("error: $.disjoint"), (argv, err)
        if dropped and argv == ["new"]:
            assert code == 0, err


@seed(23)
@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.sampled_from(BASES), st.lists(st.sampled_from(list(STAB_TYPES)), min_size=2,
                                        max_size=5), st.integers(0, 2 ** 32 - 1))
def test_walks_share_and_never_mutate_the_parent(params, prefer, walk_seed):
    """Walks of several steps from every base book, each step of the
    drawn type when the book takes it and of another type otherwise."""
    rng = random.Random(walk_seed)
    ob = build(*params)
    for tag in prefer:
        sites = enumerate_sites(ob)
        rng.shuffle(sites)
        sites.sort(key=lambda ts: ts[0] != tag)
        for t, site in sites:
            try:
                ob = stabilized(ob, t, site)
            except StabilizationError:
                continue
            break
