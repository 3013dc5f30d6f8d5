import io
import json
from contextlib import redirect_stdout

import pytest


from realbook.catalog import ENTRIES
from realbook.cli import main
from realbook.jsonio import SCHEMA_VERSION, dumps, loads


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


def test_round_trip_identity_on_catalog():
    for e in ENTRIES:
        ob = e.build()
        assert loads(dumps(ob)) == ob, e.name


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
    assert stabbed.binding_count == 2


def test_heegaard_subcommand(monkeypatch):
    _code, book_json = run_cli(["catalog", "fig5", "2"])
    code, out = run_cli(["heegaard"], book_json, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 4
    assert data["real_part"]["separating"] == [True]


def test_validate_subcommand(monkeypatch):
    _code, book_json = run_cli(["catalog", "lens-3punctured", "2", "2", "1"])
    code, out = run_cli(["validate"], book_json, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["reality"] == "CertifiedReal"
    assert all(v is True for v in data["involution"].values())


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
])
def test_malformed_fixed_set_is_exit_2(field, value, path, monkeypatch, capsys):
    _code, book_json = run_cli(["catalog", "lens-annulus", "3"])
    bad = json.loads(book_json)
    target = bad
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    code, _ = run_cli(["invariants"], json.dumps(bad), monkeypatch)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path} ")


def test_wrong_schema_version_rejected():
    from realbook.jsonio import SchemaError, from_obj

    with pytest.raises(SchemaError):
        from_obj({"schema": 2})


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


def test_bad_catalog_name_is_exit_2():
    code, _ = run_cli(["catalog", "zzz"])
    assert code == 2


def test_incompatible_stabilization_is_exit_1(monkeypatch):
    _code, book_json = run_cli(["catalog", "disk"])
    code, _ = run_cli(["stabilize", "--type", "VIII", "--site", '{"boundaries": [1, 1]}'],
                      book_json, monkeypatch)
    assert code == 1


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


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "book.json"
    code, out = run_cli(["catalog", "disk", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema"] == SCHEMA_VERSION


def test_grid_env_override(monkeypatch):
    monkeypatch.setenv("REALBOOK_GRID", "12")
    code, report = run_cli(["contact", "--family", "disk", "--K", "5"])
    assert code == 0
    assert json.loads(report)["grid"] == 12
