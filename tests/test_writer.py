"""The book writer renders its text directly, each class and row from its
nonzeros; it must write the bytes of the reference writer
(oracles.reference_dumps: the book's JSON object, every row dense,
encoded by the C encoder) on every book it can meet: the catalog, the
k = 16 ladders, the seeded walks, books whose provenance is trimmed
from the front, a book whose boundary circles are stored out of order,
and curve names that need escaping."""

import json

import pytest

from realbook.catalog import ENTRIES, build
from realbook.jsonio import dumps, loads
from realbook.records import replace
from realbook.surface import SurfaceModel
from oracles import reference_dumps
from test_walks import walk_steps


def ladder_books():
    """The fig4, fig5 and fig6 ladders, k = 1 to 16."""
    return [build(family, k) for family in ("fig4", "fig5", "fig6") for k in range(1, 17)]


def trimmed(books, k):
    """Each book with its first k provenance records dropped, so its
    first births are written as root curves; the book keeps a record."""
    return [replace(ob, provenance=ob.provenance[k:]) for ob in books if len(ob.provenance) > k]


def test_dumps_writes_the_reference_bytes(monkeypatch):
    """Byte for byte; and a book whose provenance records every birth
    is written without listing the pairs the rule gives."""
    books = [e.build() for e in ENTRIES] + ladder_books()
    books += [ob for _where, _start, ob in walk_steps()]
    texts = [reference_dumps(ob) for ob in books]
    monkeypatch.setattr(SurfaceModel, "born_pairs", None)
    assert [dumps(ob) for ob in books] == texts


@pytest.mark.parametrize("k", [1, 2])
def test_trimmed_provenance_writes_the_reference_bytes_and_keeps_every_pair(k):
    """A book whose first k records are dropped folds those steps'
    births into root pairs: their curves are written as root curves,
    with the pairs the rule gave them, and the book read back equals it
    and answers every curves_disjoint pair alike."""
    books = [e.build() for e in ENTRIES] + ladder_books()
    books += [ob for _where, _start, ob in walk_steps()]
    cut = trimmed(books, k)
    assert any(ob.page.disjoint != whole.page.disjoint
               for ob, whole in zip(cut, [ob for ob in books if len(ob.provenance) > k]))
    for ob in cut:
        text = dumps(ob)
        assert text == reference_dumps(ob)
        back = loads(text)
        assert back == ob and dumps(back) == text
        names = list(ob.page.alphabet)
        assert all(back.page.curves_disjoint(a, b) == ob.page.curves_disjoint(a, b)
                   for a in names for b in names)


def test_reversed_boundary_order_writes_the_reference_bytes():
    obj = json.loads(dumps(build("lens-3punctured", 2, 2, 1)))
    obj["page"]["boundary"].reverse()
    ob = loads(json.dumps(obj))
    assert list(ob.page.circles) == [3, 2, 1]
    assert dumps(ob) == reference_dumps(ob)


def renamed(x, old, new):
    """A JSON value with every string equal to old, key or value, made new."""
    if isinstance(x, str):
        return new if x == old else x
    if isinstance(x, list):
        return [renamed(v, old, new) for v in x]
    if isinstance(x, dict):
        return {renamed(k, old, new): renamed(v, old, new) for k, v in x.items()}
    return x


def test_names_that_need_escaping_write_the_reference_bytes():
    """Curve and basis names are escaped as the C encoder escapes them:
    a quote, a backslash, a newline and non-ASCII text, in a born curve's
    name (s1, in the provenance) and in a root curve's (d1, in images)."""
    obj = json.loads(dumps(build("fig4", 2)))
    for old, new in (("s1", 'é"\\\n'), ("d1", "☃ d")):
        obj = renamed(obj, old, new)
    ob = loads(json.dumps(obj))
    assert {'é"\\\n', "☃ d"} <= ob.page.alphabet.keys()
    text = dumps(ob)
    assert text == reference_dumps(ob) and text.isascii()
    assert loads(text) == ob
