import io
import json
from contextlib import redirect_stdout

import pytest


from realbook.catalog import ENTRIES
from realbook.cli import main
from realbook.jsonio import SCHEMA_VERSION, dumps, loads
from schema1 import as_schema1, as_schema2


def run_cli(argv, stdin_text=None, monkeypatch=None):
    import sys

    buf = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_golden_fig4_pipeline(monkeypatch):
    code, book_json = run_cli(["catalog", "fig4", "3"])
    assert code == 0
    code, report = run_cli(["invariants"], book_json, monkeypatch)
    assert code == 0
    data = json.loads(report)
    assert data["heegaard_genus"] == 5
    assert data["h1"] == {"free_rank": 0, "torsion": [], "pretty": "0"}
    assert data["reality"] == "CertifiedReal"


def test_golden_lens_pipeline(monkeypatch):
    code, book_json = run_cli(["catalog", "lens-annulus", "7"])
    assert code == 0
    code, report = run_cli(["invariants"], book_json, monkeypatch)
    assert code == 0
    data = json.loads(report)
    assert data["h1"]["torsion"] == [7]
    assert data["h1"]["pretty"] == "Z/7"


def test_golden_contact_threshold():
    code, report = run_cli(["contact", "--family", "annulus:2",
                            "--find-threshold", "--grid", "20"])
    assert code == 0
    data = json.loads(report)
    assert 0 < data["K_threshold"] < 1e6
    assert data["min_defect_at_threshold"] > 0


def test_a_schema2_file_reads_as_its_book(monkeypatch):
    """tests/fixtures/fig5-3.schema2.json is `catalog fig5 3` as the
    schema-2 writer wrote it, with the derived disjoint pairs and zero
    current_class rows: it loads to the book, is CertifiedReal, and new
    writes the schema-3 text of the book."""
    from pathlib import Path

    from realbook.catalog import catalog_fig5

    text = (Path(__file__).parent / "fixtures" / "fig5-3.schema2.json").read_text()
    obj = json.loads(text)
    assert obj["schema"] == 2 and "current_class" in obj["ref_arcs"][0]
    assert loads(text) == catalog_fig5(3)
    code, report = run_cli(["invariants"], text, monkeypatch)
    assert code == 0 and json.loads(report)["reality"] == "CertifiedReal"
    _code, book_json = run_cli(["catalog", "fig5", "3"])
    assert run_cli(["new"], text, monkeypatch) == (0, book_json)
    assert len(book_json) < len(text)


def test_a_word_read_from_json_is_freely_reduced(monkeypatch):
    """fig4 2 and fig4 3 with d1 d1^-1 prepended to $.word read back as
    the built books, reduced word and all: CertifiedReal, as the chain
    peel finds each block's sigma at the front of the word, and new
    writes the catalog's bytes."""
    from realbook.catalog import catalog_fig4
    from realbook.openbook import Reality, check_reality

    for k in (2, 3):
        _code, book_json = run_cli(["catalog", "fig4", str(k)])
        obj = json.loads(book_json)
        obj["word"] = [{"curve": "d1", "exp": 1}, {"curve": "d1", "exp": -1}] + obj["word"]
        text = json.dumps(obj)
        ob = loads(text)
        assert ob == catalog_fig4(k)
        assert check_reality(ob).kind is Reality.CERTIFIED_REAL
        assert run_cli(["new"], text, monkeypatch) == (0, book_json)


def test_round_trip_identity_on_catalog():
    for e in ENTRIES:
        ob = e.build()
        assert loads(dumps(ob)) == ob, e.name


def catalog_and_ladders():
    """Every catalog entry and the fig4/5/6 ladders up to k = 8."""
    from realbook.catalog import catalog_fig4, catalog_fig5, catalog_fig6

    books = [e.build() for e in ENTRIES]
    return books + [ladder(k) for ladder in (catalog_fig4, catalog_fig5, catalog_fig6)
                    for k in range(1, 9)]


def test_written_tables_equal_dense_derivation():
    """dumps writes schema 3, without pairing tables; the tables that a
    schema-1 text carries (J @ h1_class and the dot of the class with each
    reference-arc row, in sorted boundary order) equal curve_tables."""
    for ob in catalog_and_ladders():
        text = dumps(ob)
        obj = json.loads(text)
        assert obj["schema"] == 3
        assert all(set(c) == {"name", "h1_class", "c_image"} for c in obj["alphabet"])
        for curve in json.loads(as_schema1(text))["alphabet"]:
            tables = (tuple(curve["pairings"]), tuple(curve["arc_pairings"]))
            assert ob.page.curve_tables(curve["name"]) == tables


def sorted_object(pairs):
    """A json object_pairs_hook that requires sorted keys."""
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


def test_dumps_writes_one_compact_field_per_line():
    """dumps writes one top-level field per line, in sorted key order,
    every object's keys sorted and no whitespace inside a line; each line
    is its key and the compact encoding, by the C encoder, of the value
    it parses to; the text reads back to itself, and its schema-1
    rendering loads to the same book."""
    compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    for ob in catalog_and_ladders():
        text = dumps(ob)
        obj = json.loads(text, object_pairs_hook=sorted_object)
        lines = text.split("\n")
        assert (lines[0], lines[-1]) == ("{", "}")
        fields = lines[1:-1]
        assert [line.endswith(",") for line in fields] == [True] * (len(obj) - 1) + [False]
        keys = [next(iter(json.loads("{" + line.rstrip(",") + "}"))) for line in fields]
        assert keys == sorted(obj)
        assert [line.rstrip(",") for line in fields] == [
            f"{compact(key)}:{compact(obj[key])}" for key in keys]
        assert not any(c.isspace() for c in "".join(fields))
        assert dumps(loads(text)) == text
        assert loads(as_schema1(text)) == ob


def test_new_canonicalizes(monkeypatch):
    _code, book_json = run_cli(["catalog", "hopf", "swap"])
    code, out = run_cli(["new"], book_json, monkeypatch)
    assert code == 0
    assert json.loads(out)["schema"] == SCHEMA_VERSION


def test_stabilize_subcommand(monkeypatch):
    _code, book_json = run_cli(["catalog", "disk"])
    code, out = run_cli(["stabilize", "--type", "I", "--site", '{"boundary": 1}'],
                        book_json, monkeypatch)
    assert code == 0
    stabbed = loads(out)
    assert stabbed.page.boundary_count == 2


def test_heegaard_subcommand(monkeypatch):
    _code, book_json = run_cli(["catalog", "fig5", "2"])
    code, out = run_cli(["heegaard"], book_json, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 4
    assert data["real_part"]["separating"] == [True]


def test_heegaard_refuses_a_not_real_book_as_a_contract_violation(monkeypatch, capsys):
    # fig5(2) with one more twist along s1 and its provenance dropped is
    # NotReal on a valid involution (test_openbook's boundary-transport
    # witness): reality and validate exit 1 on it, and heegaard, whose
    # NotReal refusal names no $. path, must too
    from realbook.catalog import catalog_fig5
    from realbook.mcg import concat, word
    from realbook.records import replace

    ob = catalog_fig5(2)
    text = dumps(replace(ob, monodromy=concat(ob.monodromy, word([("s1", 1)])), provenance=()))
    code, out = run_cli(["validate"], text, monkeypatch)
    data = json.loads(out)
    assert code == 1 and data["reality"] == "NotReal"
    assert all(v is True for section in ("involution", "page", "plus")
               for v in data[section].values())
    for argv in (["reality"], ["heegaard"]):
        capsys.readouterr()
        code, _ = run_cli(argv, text, monkeypatch)
        assert code == 1, argv
    assert capsys.readouterr().err == (
        "error: book is not real; no real Heegaard decomposition\n")


def test_validate_subcommand(monkeypatch):
    _code, book_json = run_cli(["catalog", "lens-3punctured", "2", "2", "1"])
    code, out = run_cli(["validate"], book_json, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["reality"] == "CertifiedReal"
    assert all(v is True for v in data["involution"].values())


def test_validate_reports_the_page_checks(monkeypatch, capsys):
    _code, book_json = run_cli(["catalog", "fig4", "3"])
    code, out = run_cli(["validate"], book_json, monkeypatch)
    assert code == 0
    assert json.loads(out)["page"] == {"disjoint": True}
    # the genus is derived from the page, so a stored genus that
    # disagrees is refused by the reader, not reported as a check
    obj = json.loads(book_json)
    obj["page"]["genus"] += 1
    capsys.readouterr()
    code, out = run_cli(["validate"], json.dumps(obj), monkeypatch)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: $.page.genus is 3, but a page with 2 boundary circles and 5 basis "
        "classes needs 2g + b - 1 = 5, g >= 0\n")


def test_validate_checks_the_opposite_page_arc_ends(monkeypatch):
    _code, book_json = run_cli(["catalog", "lens-annulus", "3"])
    code, out = run_cli(["validate"], book_json, monkeypatch)
    assert code == 0
    assert json.loads(out)["plus"] == {"arc_endpoints": True}
    obj = json.loads(book_json)
    obj["fix_plus"]["arcs"][0]["ends"][0] = [99, 1]
    code, out = run_cli(["validate"], json.dumps(obj), monkeypatch)
    assert code == 1
    data = json.loads(out)
    assert data["plus"] == {"arc_endpoints": "used [(1, 2), (2, 3), (2, 4), (99, 1)] "
                                             "vs declared [(1, 1), (1, 2), (2, 3), (2, 4)]"}
    assert all(v is True for v in data["involution"].values())
    del obj["fix_plus"]
    code, out = run_cli(["validate"], json.dumps(obj), monkeypatch)
    assert code == 0 and json.loads(out)["plus"] == {}


def test_validate_reports_an_image_on_an_unknown_curve(monkeypatch):
    _code, book_json = run_cli(["catalog", "lens-annulus", "3"])
    obj = json.loads(book_json)
    obj["alphabet"][0]["c_image"] = ["zzz", 1]
    code, out = run_cli(["validate"], json.dumps(obj), monkeypatch)
    assert code == 1
    assert json.loads(out)["involution"]["curve_image"] == (
        "image map mentions unknown curve 'd1' -> 'zzz'")


def meeting_pair_book() -> str:
    """A book on the once-punctured torus, word a1 b1, C = diag(1, -1),
    that declares a1 and b1 disjoint although <a1, b1> = 1."""
    from realbook.mcg import word
    from realbook.openbook import OpenBook
    from realbook.catalog import standard_surface
    from realbook.surface import FixArc, FixedSet, Involution

    page = standard_surface(1, 1)
    inv = Involution(
        matrix=((0, 1), (1, -1)),      # diag(1, -1), one sparse row per basis class
        boundary_perm={1: 1},
        fixed_points={1: (1, 2)},
        fixed_set=FixedSet(arcs=(FixArc(ends=((1, 1), (1, 2)), pair_curves=()),)),
        curve_image={"a1": ("a1", 1), "b1": ("b1", -1)},
    )
    obj = json.loads(dumps(OpenBook(page=page, monodromy=word([("a1", 1), ("b1", 1)]),
                                    real_structure=inv)))
    obj["disjoint"].append(["a1", "b1"])
    return json.dumps(obj)


def test_validate_refuses_a_declared_disjoint_pair_that_meets(monkeypatch):
    # the declaration lets word equality commute the twists of a1 and b1,
    # so the word certificate passes on a book whose C F C is not F^-1
    code, out = run_cli(["validate"], meeting_pair_book(), monkeypatch)
    assert code == 1
    data = json.loads(out)
    assert data["page"] == {"disjoint": "disjoint pair (a1, b1) has <a1, b1> = 1"}
    assert all(v is True for v in data["involution"].values())


def bad_perm_book() -> str:
    """lens-3punctured 2 2 1 with boundary_perm {1: 2, 2: 2, 3: 3}, which
    is no involution of the boundary."""
    _code, book_json = run_cli(["catalog", "lens-3punctured", "2", "2", "1"])
    obj = json.loads(book_json)
    obj["involution"]["boundary_perm"] = {"1": 2, "2": 2, "3": 3}
    return json.dumps(obj)


@pytest.mark.parametrize("make, message", [
    (meeting_pair_book, "disjoint: disjoint pair (a1, b1) has <a1, b1> = 1"),
    (bad_perm_book, "boundary_perm: perm = {1: 2, 2: 2, 3: 3}; "
                    "boundary_tags: swapped circle 1 carries fixed points"),
], ids=["meeting-pair", "bad-boundary-perm"])
def test_query_subcommands_refuse_a_book_validate_rejects(make, message, monkeypatch, capsys):
    """new, reality, invariants and heegaard run validate's checks first:
    on a book that validate rejects each exits 1 with one error line
    naming every failing check, and writes nothing to stdout."""
    text = make()
    code, out = run_cli(["validate"], text, monkeypatch)
    assert code == 1 and json.loads(out)["reality"] == "CertifiedReal"
    for argv in (["new"], ["reality"], ["invariants"], ["heegaard"]):
        capsys.readouterr()
        code, out = run_cli(argv, text, monkeypatch)
        assert (code, out) == (1, ""), argv
        assert capsys.readouterr().err == f"error: book fails validation: {message}\n", argv


def test_malformed_json_is_exit_2(monkeypatch):
    code, _ = run_cli(["reality"], "{not json", monkeypatch)
    assert code == 2


def test_schema_violation_has_path(monkeypatch):
    from realbook.jsonio import SchemaError, from_obj

    bad = {"schema": 1, "page": {"genus": 0}}
    with pytest.raises(SchemaError) as err:
        from_obj(bad)
    assert "$.page" in str(err.value)
    code, _ = run_cli(["invariants"], json.dumps(bad), monkeypatch)
    assert code == 2


@pytest.mark.parametrize("where", ["key", "image", "sigma"])
def test_provenance_naming_an_unknown_curve_is_exit_2(where, monkeypatch, capsys):
    _code, book_json = run_cli(["catalog", "fig6", "2"])
    obj = json.loads(book_json)
    rec = obj["provenance"][-1]
    first = sorted(rec["images"])[0]
    if where == "key":
        rec["images"]["zzz"] = rec["images"][first]
    elif where == "image":
        rec["images"][first] = ["zzz", 1]
    else:
        rec["sigma"][0][0] = "zzz"
    argv_list = [["invariants"], ["reality"], ["validate"],
                 ["stabilize", "--type", "III", "--site", '{"boundary": 1}']]
    for argv in argv_list:
        capsys.readouterr()
        code, _ = run_cli(argv, json.dumps(obj), monkeypatch)
        assert code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: $.provenance[{len(obj['provenance']) - 1}] uses "
                              "unknown curve 'zzz'"), (argv, err)


@pytest.mark.parametrize("variant", ["images-list", "image-null", "image-string"])
def test_malformed_provenance_images_is_exit_2(variant, monkeypatch, capsys):
    _code, book_json = run_cli(["catalog", "fig4", "2"])
    good = json.loads(book_json)
    images = good["provenance"][0]["images"]
    first = sorted(images)[0]
    bad_images = {
        "images-list": [[k, v] for k, v in sorted(images.items())],
        "image-null": dict(images, **{first: None}),
        "image-string": dict(images, **{first: "x"}),
    }[variant]
    good["provenance"][0]["images"] = bad_images
    code, _ = run_cli(["invariants"], json.dumps(good), monkeypatch)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: $.provenance[0].images")


@pytest.mark.parametrize("field, value, path", [
    (("involution", "fixed_set", "arcs"), 7, "$.involution.fixed_set.arcs"),
    (("involution", "fixed_set", "circles"), 1.5, "$.involution.fixed_set.circles"),
    (("involution", "fixed_points"), True, "$.involution.fixed_points"),
    (("involution", "boundary_perm"), [1, 2], "$.involution.boundary_perm"),
    (("fix_plus", "arcs"), "x", "$.fix_plus.arcs"),
    (("fix_plus", "arcs", 0, "ends"), [[1, 1], 3], "$.fix_plus.arcs[0].ends[1]"),
    (("fix_plus", "arcs", 1, "pair_arcs"), {"two": 0}, "$.fix_plus.arcs[1].pair_arcs"),
    # a crossing with a boundary that has no reference arc would be dropped
    (("involution", "fixed_set", "arcs", 0, "pair_arcs"), {"99": 1},
     "$.involution.fixed_set.arcs[0].pair_arcs"),
    (("fix_plus", "arcs", 0, "pair_arcs"), {"1": 1},
     "$.fix_plus.arcs[0].pair_arcs"),
])
def test_malformed_fixed_set_is_exit_2(field, value, path, monkeypatch, capsys):
    assert_mutation_exits_2(field, value, path, monkeypatch, capsys)


def planar_book(schema: int, genus: int, circles: int) -> dict:
    """A book whose page has the given stored genus, the given number of
    boundary circles and rank 0, each circle a reflection circle, with
    the empty word."""
    ids = range(1, circles + 1)
    return {
        "schema": schema,
        "page": {"genus": genus, "basis": [], "form": [],
                 "boundary": [{"id": i, "pclass": []} for i in ids]},
        "alphabet": [],
        "ref_arcs": [{"boundary": i, "pairings": [], "current_class": []} for i in ids[1:]],
        "disjoint": [],
        "word": [],
        "involution": {"matrix": [], "boundary_perm": {str(i): i for i in ids},
                       "fixed_points": {str(i): [2 * i - 1, 2 * i] for i in ids},
                       "fixed_set": {"arcs": [], "circles": []}},
        "fix_plus": None,
        "provenance": [],
    }


# every subcommand that reads a book, each with arguments it accepts on
# the valid lens-annulus 3 book
BOOK_COMMANDS = [
    ["new"], ["invariants"], ["heegaard"], ["validate"], ["reality"],
    ["stabilize", "--type", "III", "--site", '{"boundary": 1}'],
]


def assert_mutation_exits_2(field, value, path, monkeypatch, capsys,
                            book=("lens-annulus", "3")):
    """Set one field of a valid book, written as schema 3 and as schema 1,
    to value, or to value(old value) for a callable (an empty field
    replaces the whole book by value(book)): every subcommand that reads
    a book must exit 2 with an error line that starts with the path, or
    is the whole message given in its place (one with a space)."""
    _code, book_json = run_cli(["catalog", *book])
    for text in (book_json, as_schema1(as_schema2(book_json))):
        bad = json.loads(text)
        schema = bad["schema"]
        if field:
            target = bad
            for key in field[:-1]:
                target = target[key]
            target[field[-1]] = value(target[field[-1]]) if callable(value) else value
        else:
            bad = value(bad)
        capsys.readouterr()
        for argv in BOOK_COMMANDS:
            code, out = run_cli(argv, json.dumps(bad), monkeypatch)
            assert (code, out) == (2, ""), (schema, argv)
            err = capsys.readouterr().err
            if " " in path:
                assert err == f"error: {path}\n", (schema, argv)
            else:
                assert err.startswith(f"error: {path} "), (schema, argv)


@pytest.mark.parametrize("field, value, path", [
    (("page", "genus"), [], "$.page.genus"),
    (("page", "boundary", 0, "id"), {}, "$.page.boundary[0].id"),
    (("ref_arcs", 0, "boundary"), None, "$.ref_arcs[0].boundary"),
    (("disjoint", 0), 5, "$.disjoint[0]"),
    (("word", 0, "exp"), [1], "$.word[0].exp"),
    (("word",), 3, "$.word"),
    (("alphabet", 0, "pairings"), [1], "$.alphabet[0].pairings"),
    (("alphabet", 0, "arc_pairings"), [0], "$.alphabet[0].arc_pairings"),
    (("alphabet", 0, "h1_class"), [1, 0], "$.alphabet[0].h1_class"),
    (("page", "form"), [[1]], "$.page.form"),
    (("page", "boundary", 0, "pclass"), [], "$.page.boundary[0].pclass"),
    (("page", "form", 0), [0, 0], "$.page.form[0]"),
    (("involution", "matrix", 0), [-1, 0], "$.involution.matrix[0]"),
    (("schema",), True, "$.schema"),
    (("schema",), 2.0, "$.schema"),
    (("page", "genus"), True, "$.page.genus"),
    (("word", 0, "exp"), True, "$.word[0].exp"),
    (("alphabet", 0, "h1_class", 0), True, "$.alphabet[0].h1_class"),
    (("alphabet", 1, "h1_class", 0), False, "$.alphabet[1].h1_class"),
    (("involution", "boundary_perm", "2"), True, "$.involution.boundary_perm.2"),
    (("alphabet", 0, "c_image", 1), True, "$.alphabet[0].c_image"),
    # a second spelling of boundary 2 would silently overwrite the first
    (("involution", "boundary_perm"), {"1": 1, "2": 2, " 02": 1},
     "$.involution.boundary_perm"),
    *[(field, value, path) for key in (" 02", "+2", "0_2", "02") for field, value, path in [
        (("involution", "boundary_perm"), {"1": 1, key: 2}, "$.involution.boundary_perm"),
        (("involution", "fixed_points"), {"1": [1, 2], key: [3, 4]},
         "$.involution.fixed_points"),
        (("involution", "fixed_set", "arcs", 0, "pair_arcs"), {key: 0},
         "$.involution.fixed_set.arcs[0].pair_arcs"),
    ]],
    (("page", "basis"), [True], "$.page.basis[0]"),
    (("alphabet", 0, "name"), 5, "$.alphabet[0].name"),
    (("word", 0, "curve"), 1, "$.word[0].curve"),
    # stored values the page determines must agree with it: a moved
    # transport defect gave H1 Z/2 for Z/3, a wrong genus a wrong
    # Heegaard genus and Euler characteristic
    (("ref_arcs", 0, "current_class"), [1], "$.ref_arcs[0].current_class"),
    (("page", "genus"), 5, "$.page.genus"),
    ((), lambda book: planar_book(book["schema"], genus=-1, circles=3), "$.page.genus"),
    ((), lambda book: [], "top level must be an object"),
    (("word", 0, "curve"), "zzz", "$.word uses unknown curve 'zzz'"),
    (("page", "form"), lambda form: form + form[:1], "$.page.form must be square of basis size"),
    (("involution", "matrix"), [], "$.involution.matrix must be square of basis size"),
], ids=["genus-list", "boundary-id-object", "ref-arc-boundary-null", "disjoint-number",
        "word-exp-list", "word-number", "pairings-not-j-class", "arc-pairings-not-arc-rows",
        "class-wrong-length", "form-not-antisymmetric", "pclass-wrong-length",
        "form-row-wrong-length", "matrix-row-wrong-length", "schema-true", "schema-float", "genus-true", "word-exp-true", "class-entry-true",
        "class-entry-false", "boundary-perm-true", "c-image-exp-true", "perm-key-repeats-2",
        *[f"{field}-key-{key}" for key in ("space-02", "plus-2", "underscore-0-2", "02")
          for field in ("perm", "fixed-points", "pair-arcs")],
        "basis-entry-true", "curve-name-number", "word-curve-number",
        "ref-arc-class-moved", "genus-too-large", "genus-negative", "top-level-list",
        "word-curve-unknown", "form-extra-row", "matrix-empty"])
def test_malformed_field_type_is_exit_2(field, value, path, monkeypatch, capsys):
    assert_mutation_exits_2(field, value, path, monkeypatch, capsys)


@pytest.mark.parametrize("field, value, path", [
    (("provenance", 0, "type"), 3, "$.provenance[0].type"),
    (("provenance", 0, "site"), [True, 1.5, None], "$.provenance[0].site"),
], ids=["type-number", "site-not-integers"])
def test_malformed_provenance_field_is_exit_2(field, value, path, monkeypatch, capsys):
    assert_mutation_exits_2(field, value, path, monkeypatch, capsys, ("fig4", "2"))


@pytest.mark.parametrize("book, field, value, path", [
    (("lens-annulus", "3"), ("involution", "fixed_set", "arcs", 0, "pair_curves"), [],
     "$.involution.fixed_set.arcs[0].pair_curves"),
    (("lens-annulus", "3"), ("fix_plus", "arcs", 0, "pair_curves"), [1, 2, 3],
     "$.fix_plus.arcs[0].pair_curves"),
    (("hopf", "swap"), ("involution", "fixed_set", "circles"), [{"h1_class": [1, 0]}],
     "$.involution.fixed_set.circles[0].h1_class"),
    (("hopf", "swap"), ("fix_plus", "circles", 0, "h1_class"), [1, 2],
     "$.fix_plus.circles[0].h1_class"),
], ids=["arc-pair-curves", "plus-arc-pair-curves", "circle-class", "plus-circle-class"])
def test_fixed_set_vector_of_wrong_length_is_exit_2(book, field, value, path,
                                                     monkeypatch, capsys):
    assert_mutation_exits_2(field, value, path, monkeypatch, capsys, book)


@pytest.mark.parametrize("field, value, path", [
    (("ref_arcs", 0, "boundary"), lambda cid: cid + 1, "$.ref_arcs[0].boundary"),
    (("ref_arcs", 0, "boundary"), lambda cid: cid - 1, "$.ref_arcs[0].boundary"),
    (("page", "boundary", 1, "id"), lambda cid: cid + 1, "$.ref_arcs[0].boundary"),
    (("page", "boundary", 1, "id"), lambda cid: cid - 1, "$.page.boundary[1].id"),
    (("page", "boundary"), lambda circles: [circles[1], dict(circles[0], id=circles[1]["id"])],
     "$.page.boundary[1].id"),
    (("ref_arcs",), lambda arcs: arcs + arcs[:1], "$.ref_arcs[1].boundary"),
    (("ref_arcs",), lambda arcs: [], "$.ref_arcs"),
    (("page", "boundary"), lambda circles: [], "$.page.boundary"),
], ids=["ref-arc-to-a-missing-circle", "ref-arc-to-the-basepoint", "circle-id-without-its-arc",
        "circle-id-repeats", "circle-id-repeats-out-of-order", "second-ref-arc-to-one-circle",
        "no-ref-arcs", "no-circles"])
def test_reference_arcs_are_one_per_non_basepoint_circle(field, value, path,
                                                         monkeypatch, capsys):
    assert_mutation_exits_2(field, value, path, monkeypatch, capsys, ("fig4", "2"))


# an arc from the basepoint to boundary l crosses l's pushoff +1 times, the
# basepoint's -1 times and no other: on lens-annulus 3 (row [-1]) the rows
# [2], [5] and [0] gave H1 Z/6, Z/15 and Z with exit 0; on lens-3punctured
# 1 1 1 the row [0, -1] of the arc to boundary 3 crosses boundary 2 instead
# of the basepoint
@pytest.mark.parametrize("book, index, row", [
    (("lens-annulus", "3"), 0, [2]),
    (("lens-annulus", "3"), 0, [5]),
    (("lens-annulus", "3"), 0, [0]),
    (("lens-3punctured", "1", "1", "1"), 1, [0, -1]),
], ids=["lens-row-2", "lens-row-5", "lens-row-0", "crosses-another-circle"])
def test_reference_arc_off_the_crossing_pattern_is_exit_2(book, index, row,
                                                          monkeypatch, capsys):
    assert_mutation_exits_2(("ref_arcs", index, "pairings"), row,
                            f"$.ref_arcs[{index}].pairings", monkeypatch, capsys, book)


def test_boundary_out_of_order_keeps_its_order_and_its_invariants(monkeypatch):
    """A page keeps its circles in stored order and the writer writes
    them so: a book whose boundary lists the ids out of order goes
    through new byte-identical, and every report on it equals the
    sorted book's.  Pages compare as mappings, so the two books are
    equal."""
    _code, book_json = run_cli(["catalog", "lens-3punctured", "2", "2", "1"])
    obj = json.loads(book_json)
    obj["page"]["boundary"].reverse()
    code, reversed_json = run_cli(["new"], json.dumps(obj), monkeypatch)
    assert code == 0
    assert [c["id"] for c in json.loads(reversed_json)["page"]["boundary"]] == [3, 2, 1]
    assert run_cli(["new"], reversed_json, monkeypatch) == (0, reversed_json)
    assert loads(reversed_json) == loads(book_json)
    assert reversed_json != book_json
    for argv in (["invariants"], ["heegaard"], ["reality"], ["validate"]):
        assert run_cli(argv, reversed_json, monkeypatch) == run_cli(argv, book_json, monkeypatch)


def test_wrong_schema_version_rejected():
    from realbook.jsonio import SchemaError, from_obj

    with pytest.raises(SchemaError, match="schema must be one of"):
        from_obj({"schema": 4})


def test_serialization_deterministic():
    for e in ENTRIES:
        assert dumps(e.build()) == dumps(e.build()), e.name


def test_reloaded_books_recompute_identically():
    import random

    from realbook.heegaard import heegaard_data, real_part
    from realbook.openbook import (
        StabilizationError,
        check_reality,
        enumerate_sites,
        h1_of_manifold,
        stabilize,
    )

    rng = random.Random(73)
    for _ in range(10):
        ob = ENTRIES[rng.randrange(len(ENTRIES))].build()
        for _ in range(rng.randint(1, 4)):
            sites = enumerate_sites(ob)
            rng.shuffle(sites)
            for tag, site in sites:
                try:
                    ob = stabilize(ob, tag, site)
                    break
                except StabilizationError:
                    continue
        back = loads(dumps(ob))
        assert back == ob
        assert h1_of_manifold(back) == h1_of_manifold(ob)
        assert check_reality(back).kind == check_reality(ob).kind
        assert heegaard_data(back).genus == heegaard_data(ob).genus
        assert real_part(back).separating_flags() == real_part(ob).separating_flags()


def test_bad_catalog_name_is_exit_2(capsys):
    code, out = run_cli(["catalog", "zzz"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: unknown catalog book 'zzz'; known books: "
        "disk, fig4, fig5, fig6, hopf, lens-3punctured, lens-annulus\n")


@pytest.mark.parametrize("argv, err", [
    (["fig4", "abc"], "catalog book 'fig4' parameter k must be an integer, got 'abc'"),
    (["lens-annulus", "2.5"], "catalog book 'lens-annulus' parameter n must be an integer, got '2.5'"),
    (["lens-3punctured", "1", "x", "2"],
     "catalog book 'lens-3punctured' parameter q must be an integer, got 'x'"),
], ids=["fig4", "lens-annulus", "lens-3punctured"])
def test_catalog_parameter_that_is_no_integer_is_exit_2(argv, err, capsys):
    code, out = run_cli(["catalog", *argv])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("argv, err", [
    (["fig4", "1", "2"], "catalog book 'fig4' takes at most 1 parameter: k; got 2"),
    (["disk", "3"], "catalog book 'disk' takes no parameters; got 1"),
    (["lens-3punctured", "1", "2", "3", "4"],
     "catalog book 'lens-3punctured' takes at most 3 parameters: p q r; got 4"),
    (["hopf", "swap", "x"], "catalog book 'hopf' takes at most 1 parameter: kind; got 2"),
], ids=["fig4", "disk", "lens-3punctured", "hopf"])
def test_catalog_with_too_many_parameters_is_exit_2(argv, err, capsys):
    code, out = run_cli(["catalog", *argv])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("argv, err", [
    (["hopf", "nope"], "catalog book 'hopf' parameter kind must be conjugation or swap, "
                       "got 'nope'"),
    (["fig4", "0"], "catalog book 'fig4' parameter k must be at least 1, got 0"),
    (["fig5", "0"], "catalog book 'fig5' parameter k must be at least 1, got 0"),
    (["fig6", "-2"], "catalog book 'fig6' parameter k must be at least 1, got -2"),
    (["lens-annulus", "0"], "catalog book 'lens-annulus' parameter n must be at least 1, got 0"),
], ids=["hopf", "fig4", "fig5", "fig6", "lens-annulus"])
def test_catalog_parameter_out_of_range_is_exit_2(argv, err, capsys):
    code, out = run_cli(["catalog", *argv])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {err}\n"


def test_incompatible_stabilization_is_exit_1(monkeypatch):
    _code, book_json = run_cli(["catalog", "disk"])
    code, _ = run_cli(["stabilize", "--type", "VIII", "--site", '{"boundaries": [1, 1]}'],
                      book_json, monkeypatch)
    assert code == 1


def test_every_refused_catalog_site_is_exit_1_with_one_error_line(monkeypatch, capsys):
    """Each enumerated site that stabilize refuses on a catalog book,
    run through the command line, exits 1 with stabilize's message as
    one error line and no traceback: four type-V sites on fig6 violate
    the boundary pattern, and two type-V sites on lens-3punctured break
    the invariance law."""
    from realbook.openbook import StabilizationError, enumerate_sites, stabilize

    refused = []
    for e in ENTRIES:
        ob = e.build()
        for tag, site in enumerate_sites(ob):
            try:
                stabilize(ob, tag, site)
            except StabilizationError as err:
                refused.append((e.name, dumps(ob), tag, site, str(err)))
    assert sorted((name, tag) for name, _book, tag, _site, _msg in refused) == [
        ("fig6-1", "V"), ("fig6-1", "V"), ("fig6-2", "V"), ("fig6-2", "V"),
        ("lens-3punctured-2-2-1", "V"), ("lens-3punctured-2-2-1", "V")]
    capsys.readouterr()
    for name, book, tag, site, message in refused:
        argv = ["stabilize", "--type", tag, "--site", json.dumps(site)]
        assert "\n" not in message and run_cli(argv, book, monkeypatch) == (1, ""), (name, site)
        assert capsys.readouterr().err == f"error: {message}\n", (name, site)
    assert sum("violates the boundary pattern" in r[-1] for r in refused) == 4
    assert sum("invariance law" in r[-1] for r in refused) == 2


@pytest.mark.parametrize("book, tag, site", [
    (["disk"], "I", "[1]"),
    (["disk"], "I", "5"),
    (["disk"], "V", '{"boundaries": 5}'),
    (["disk"], "I", '{"boundary": null}'),
    (["fig5", "2"], "II", '{"boundary": 1, "shadow": [1]}'),
    (["disk"], "I", '{"boundary": true}'),
    (["disk"], "I", '{"boundary": 1.7}'),
    (["fig4", "2"], "VIII", '{"boundaries": {"1": 0, "2": 0}}'),
    (["disk"], "I", '{"boundry": 2}'),
], ids=["list", "number", "boundaries-number", "boundary-null", "shadow-list",
        "boundary-bool", "boundary-float", "boundaries-object", "unread-key"])
def test_malformed_site_is_exit_2(book, tag, site, monkeypatch, capsys):
    _code, book_json = run_cli(["catalog", *book])
    capsys.readouterr()
    code, out = run_cli(["stabilize", "--type", tag, "--site", site], book_json, monkeypatch)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("tag", ["V", "VI"])
def test_a_reflection_pair_site_needs_two_distinct_boundaries(tag, monkeypatch, capsys):
    _code, book_json = run_cli(["catalog", "disk"])
    capsys.readouterr()
    argv = ["stabilize", "--type", tag, "--site", '{"boundaries": [1, 1]}']
    code, out = run_cli(argv, book_json, monkeypatch)
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err == f"error: type {tag} needs two distinct boundaries\n"
    proc = _python(["-m", "realbook.cli", *argv], book_json)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


def _one_real_point(circle, *book):
    """The catalog book with the real points of one reflection circle cut
    to the first, which validate rejects (boundary_tags, arc_endpoints)."""
    obj = json.loads(run_cli(["catalog", *book])[1])
    points = obj["involution"]["fixed_points"]
    points[str(circle)] = points[str(circle)][:1]
    return json.dumps(obj)


@pytest.mark.parametrize("circle, book, tag, site", [
    (1, ["disk"], "I", None),
    (1, ["disk"], "II", None),
    (2, ["lens-3punctured", "2", "2", "1"], "V", '{"boundaries": [1, 2]}'),
    (2, ["lens-3punctured", "2", "2", "1"], "VI", '{"boundaries": [1, 2]}'),
], ids=["disk-I", "disk-II", "lens-3punctured-V", "lens-3punctured-VI"])
def test_stabilize_refuses_a_book_whose_involution_validate_rejects(circle, book, tag, site,
                                                                   monkeypatch, capsys):
    """A reflection circle with one declared real point: validate exits 1
    naming boundary_tags, and stabilize refuses the book at the door with
    exit 1 and the failing checks, in process and as a child process."""
    text = _one_real_point(circle, *book)
    capsys.readouterr()
    code, out = run_cli(["validate"], text, monkeypatch)
    assert code == 1
    assert json.loads(out)["involution"]["boundary_tags"] == (
        f"reflection circle {circle} lacks two fixed points")
    argv = ["stabilize", "--type", tag] + (["--site", site] if site else [])
    code, out = run_cli(argv, text, monkeypatch)
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: refusing to stabilize a book whose involution fails "
                          f"validation: boundary_tags: reflection circle {circle} lacks")
    assert "; arc_endpoints: used " in err
    proc = _python(["-m", "realbook.cli", *argv], text)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


def _plus_arc_on_one_point():
    """The disk with both ends of its plus-side fixed arc on real point
    1 of boundary 1, which validate rejects (plus: arc_endpoints)."""
    obj = json.loads(run_cli(["catalog", "disk"])[1])
    obj["fix_plus"]["arcs"][0]["ends"] = [[1, 1], [1, 1]]
    return json.dumps(obj)


@pytest.mark.parametrize("make, tag, failed", [
    (meeting_pair_book, "III", "disjoint: disjoint pair (a1, b1) has <a1, b1> = 1"),
    (_plus_arc_on_one_point, "I",
     "arc_endpoints: used [(1, 1), (1, 1)] vs declared [(1, 1), (1, 2)]"),
], ids=["meeting-pair", "plus-arc-on-one-point"])
def test_stabilize_refuses_a_book_whose_page_or_plus_side_validate_rejects(make, tag, failed,
                                                                           monkeypatch, capsys):
    """A book whose involution is valid but whose page or plus side is
    not: validate exits 1, and stabilize refuses the book at the door
    with exit 1 and the failing check, in process and as a child
    process."""
    text = make()
    capsys.readouterr()
    code, out = run_cli(["validate"], text, monkeypatch)
    assert code == 1 and all(v is True for v in json.loads(out)["involution"].values())
    argv = ["stabilize", "--type", tag, "--site", '{"boundary": 1}']
    code, out = run_cli(argv, text, monkeypatch)
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err == f"error: refusing to stabilize a book that fails validation: {failed}\n"
    proc = _python(["-m", "realbook.cli", *argv], text)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


@pytest.mark.parametrize("argv, depth", [
    (["invariants"], 200_000),
    (["stabilize", "--type", "I", "--site"], 5000),
], ids=["book", "site"])
def test_deeply_nested_json_is_exit_2(argv, depth, monkeypatch, capsys):
    """JSON nested past the decoder's recursion limit, as the book on
    stdin or as --site, is malformed input."""
    nested = "[" * depth + "]" * depth
    if argv[0] == "stabilize":
        argv, text = argv + [nested], run_cli(["catalog", "disk"])[1]
    else:
        text = nested
    capsys.readouterr()
    code, out = run_cli(argv, text, monkeypatch)
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("nested too deeply\n")
    proc = _python(["-m", "realbook.cli", *argv], text)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "book.json"
    code, out = run_cli(["catalog", "disk", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema"] == SCHEMA_VERSION


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_contact_grid_below_two_is_exit_2(grid, capsys):
    code, out = run_cli(["contact", "--family", "disk", "--grid", grid])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: --grid must be at least 2")


@pytest.mark.parametrize("family", ["annulus:0", "annulus:-1", "annulus:11", "annulus:abc",
                                    "annulus:", "annulus:1.5", "annulus:01", "Disk", "torus"])
def test_contact_bad_family_is_exit_2(family, capsys):
    code, out = run_cli(["contact", "--family", family, "--find-threshold"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith(
        f"error: --family must be disk or annulus:N with 1 <= N <= 10, got {family!r}")


@pytest.mark.parametrize("eps", ["0.3", "0.25", "0", "-0.1", "nan"])
def test_contact_eps_outside_the_gluing_range_is_exit_2(eps, capsys):
    code, out = run_cli(["contact", "--family", "disk", f"--eps={eps}"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: --eps must be in (0, 0.25)")


def test_contact_default_glues_exactly():
    code, out = run_cli(["contact", "--family", "annulus:2", "--K", "10"])
    assert code == 0
    assert json.loads(out)["profiles"]["extension_mismatch"] == 0.0


# the page form and the binding profiles differ on the gluing region:
# the twist ramp is not flat on s in [-eps, -0.15), and the profiles'
# cubics reach into it below r1 = 0.8
@pytest.mark.parametrize("argv", [["--family", "annulus:2", "--eps", "0.2"],
                                  ["--family", "disk", "--eps", "0.24"]])
def test_contact_gluing_mismatch_is_exit_1(argv):
    code, out = run_cli(["contact", "--K", "10", *argv])
    assert code == 1
    assert json.loads(out)["profiles"]["extension_mismatch"] > 1e-9


@pytest.mark.parametrize("k", ["0.5", "-5"])
def test_contact_k_below_one_is_exit_1(k, capsys):
    # the binding profiles pin h2 = 2K and are built for K >= 1 only
    code, out = run_cli(["contact", "--family", "disk", f"--K={k}"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err.startswith("error: need K >= 1")


@pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
def test_contact_non_finite_k_is_exit_2(k, capsys):
    code, out = run_cli(["contact", "--family", "annulus:2", f"--K={k}"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: K must be finite")


@pytest.mark.parametrize("argv", BOOK_COMMANDS[1:], ids=lambda argv: argv[0])
def test_ref_arc_row_of_wrong_length_is_exit_2(argv, monkeypatch, capsys):
    _code, book_json = run_cli(["catalog", "lens-annulus", "3"])
    bad = json.loads(book_json)
    bad["ref_arcs"][0]["pairings"] = []
    code, out = run_cli(argv, json.dumps(bad), monkeypatch)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: reference arc to boundary 2")


@pytest.mark.parametrize("argv", BOOK_COMMANDS, ids=lambda argv: argv[0])
def test_ref_arc_class_of_wrong_length_is_exit_2(argv, monkeypatch, capsys):
    _code, book_json = run_cli(["catalog", "lens-annulus", "3"])
    bad = json.loads(book_json)
    bad["ref_arcs"][0]["current_class"] = [0, 0]
    code, out = run_cli(argv, json.dumps(bad), monkeypatch)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: reference arc to boundary 2 ($.ref_arcs[0]) has a class or pairing row "
        "of the wrong length for rank 1\n")


def _python(args, stdin=None):
    """A fresh interpreter that imports realbook from the tree under test."""
    import os
    import subprocess
    import sys

    import realbook

    src = os.path.dirname(os.path.dirname(realbook.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], input=stdin, env=env,
                          capture_output=True, text=True)


# imports realbook.cli, or runs main on the arguments given, then prints
# the names of the loaded modules
_MODULES_AFTER = """
import io, json, sys
from contextlib import redirect_stdout
if len(sys.argv) > 1:
    from realbook.cli import main
    with redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
else:
    import realbook.cli
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_modules(argv=(), stdin=None) -> set:
    proc = _python(["-c", _MODULES_AFTER, *argv], stdin)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _realbook(*names):
    return {f"realbook.{name}" for name in names}


def test_cli_import_loads_only_cli_and_errors():
    loaded = _loaded_modules()
    assert not loaded & {"numpy", "dataclasses", "inspect"}
    assert {m for m in loaded if m.startswith("realbook")} == {"realbook"} | _realbook("cli", "errors")


def test_contact_loads_no_algebra():
    loaded = _loaded_modules(["contact", "--family", "disk", "--K", "10", "--grid", "20"])
    assert "realbook.contact" in loaded
    assert not loaded & _realbook("intalg", "surface", "mcg", "openbook", "jsonio",
                                  "heegaard", "catalog")


def test_the_page_model_loads_no_integer_algebra():
    """A Smith system reaches intalg.factor as sparse rows from its
    callers, so surface, the page model, loads no realbook.intalg."""
    proc = _python(["-c", "import json, sys, realbook.surface; "
                          "print(json.dumps(sorted(sys.modules)))"])
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "realbook.surface" in loaded
    assert "realbook.intalg" not in loaded


def test_invariants_loads_neither_contact_nor_catalog():
    _code, book_json = run_cli(["catalog", "fig4", "2"])
    loaded = _loaded_modules(["invariants"], book_json)
    assert "realbook.openbook" in loaded
    assert not loaded & _realbook("contact", "catalog")


QUERY_COMMANDS = [["invariants"], ["reality"], ["heegaard"], ["validate"], ["new"]]


@pytest.mark.parametrize("argv", QUERY_COMMANDS, ids=lambda argv: argv[0])
def test_a_query_does_not_load_the_stabilizations(argv):
    _code, book_json = run_cli(["catalog", "fig4", "2"])
    loaded = _loaded_modules(argv, book_json)
    assert "realbook.openbook" in loaded
    assert "realbook.stabilization" not in loaded


def test_catalog_and_stabilize_load_the_stabilizations():
    assert "realbook.stabilization" in _loaded_modules(["catalog", "fig4", "2"])
    _code, book_json = run_cli(["catalog", "fig4", "2"])
    loaded = _loaded_modules(["stabilize", "--type", "VIII", "--site", '{"boundaries": [1, 2]}'],
                             book_json)
    assert "realbook.stabilization" in loaded


@pytest.mark.parametrize("argv", [["disk"], ["hopf", "swap"], ["lens-annulus", "7"],
                                  ["lens-3punctured", "2", "2", "1"]],
                         ids=lambda argv: argv[0])
def test_a_root_catalog_book_does_not_load_the_stabilizations(argv):
    loaded = _loaded_modules(["catalog", *argv])
    assert "realbook.catalog" in loaded
    assert "realbook.stabilization" not in loaded


def test_openbook_names_the_stabilizations_and_a_wrapper_on_them_sees_the_call():
    """openbook.stabilize, enumerate_sites and _stab_{T} are the functions
    of realbook.stabilization.  A recording wrapper bound wherever the
    original _stab_VIII is bound, as the benchmark's tracer binds its
    timers, is the function stabilize calls."""
    import sys

    from realbook import openbook, stabilization
    from realbook.catalog import catalog_fig4

    assert openbook.stabilize is stabilization.stabilize
    assert openbook.enumerate_sites is stabilization.enumerate_sites
    assert openbook._stab_VIII is stabilization._stab_VIII
    with pytest.raises(AttributeError):
        openbook.no_such_name

    book = catalog_fig4(2)
    original, calls, bound = stabilization._stab_VIII, [], []

    def recording(ob, site):
        calls.append((ob, site))
        return original(ob, site)

    for name, module in list(sys.modules.items()):
        if name.startswith("realbook") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    bound.append((module, attr))
                    setattr(module, attr, recording)
    try:
        out = openbook.stabilize(book, "VIII", {"boundaries": [1, 2]})
    finally:
        for module, attr in bound:
            setattr(module, attr, original)
    assert {module.__name__ for module, _attr in bound} == {"realbook.openbook",
                                                            "realbook.stabilization"}
    assert calls == [(book, (1, 2))]
    assert out.provenance[-1].tag == "VIII"


def test_package_names_resolve_and_errors_keep_their_old_paths():
    import realbook
    from realbook import contact, errors, heegaard, jsonio, openbook

    for name in realbook.__all__:
        assert getattr(realbook, name).__name__ == name
    with pytest.raises(AttributeError):
        realbook.no_such_name
    assert jsonio.SchemaError is errors.SchemaError
    assert openbook.StabilizationError is errors.StabilizationError
    assert realbook.StabilizationError is errors.StabilizationError
    assert heegaard.BookNotReal is errors.BookNotReal
    assert heegaard.RealPartUnavailable is errors.RealPartUnavailable
    assert contact.ContactModelError is errors.ContactModelError


def test_reading_a_book_file_closes_it(tmp_path):
    book = tmp_path / "book.json"
    book.write_text(run_cli(["catalog", "fig4", "2"])[1])
    proc = _python(["-X", "dev", "-W", "error::ResourceWarning",
                    "-m", "realbook.cli", "invariants", "--in", str(book)])
    assert proc.returncode == 0
    assert proc.stderr == ""
