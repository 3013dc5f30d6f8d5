"""Fuzz of the book reader and every subcommand that reads a book.

Each example takes a catalog book, written as schema 2 or rendered as
schema 1, changes one field of it (replaces the value, deletes the key
or entry, moves an integer by one, or grows or shrinks a list) and runs
the result through each book-reading subcommand in process.  Every run
must end in exit code 0, 1 or 2 without an exception escaping, and every
exit 2 must print an `error:` line.  The examples are seeded, so a run
is repeatable.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from realbook.catalog import build  # noqa: E402
from realbook.cli import main  # noqa: E402
from realbook.jsonio import dumps  # noqa: E402
from schema1 import as_schema1  # noqa: E402

BOOKS = [("disk",), ("hopf", "conjugation"), ("hopf", "swap"), ("fig4", "2"), ("fig5", "2"),
         ("fig6", "1"), ("lens-annulus", "3"), ("lens-3punctured", "2", "2", "1")]
TEXTS = [text for book in BOOKS for text in [dumps(build(*book))] for text in
         (text, as_schema1(text))]

COMMANDS = [
    ["new"], ["invariants"], ["heegaard"], ["validate"], ["reality"],
    ["stabilize", "--type", "I", "--site", '{"boundary": 1}'],
    ["stabilize", "--type", "III", "--site", '{"boundary": 1}'],
    ["stabilize", "--type", "VIII", "--site", '{"boundaries": [1, 2]}'],
]

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


@st.composite
def mutated_books(draw):
    obj = json.loads(draw(st.sampled_from(TEXTS)))
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


def run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@seed(13)
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated_books())
def test_mutated_book_ends_in_an_exit_code(text):
    for argv in COMMANDS:
        code, _out, err = run(argv, text)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("error: "), argv


STABILIZE = [argv for argv in COMMANDS if argv[0] == "stabilize"]


@seed(17)
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated_books())
def test_block_validation_keeps_stabilize_outcomes(text):
    """stabilize validates a new book from the checks of its block when
    the parent's validity memo holds.  With the memo forced false, every
    book is validated in full, and each stabilize run on a mutated book
    must end alike: the same exit code, output and error line."""
    from realbook.openbook import OpenBook

    by_block = [run(argv, text) for argv in STABILIZE]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OpenBook, "_involution_valid", property(lambda self: False))
        in_full = [run(argv, text) for argv in STABILIZE]
    assert by_block == in_full
