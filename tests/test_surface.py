import pytest

from realbook.catalog import standard_involution, standard_surface
from realbook.intalg import IntMatrix
from realbook.surface import (
    FixArc,
    FixedSet,
    Involution,
    validate_involution,
    sparse,
    validate_page,
)
from oracles import annulus_rotation, as_matrix, as_rows, dense_class, expand, pairing, zeros


def involution(m, kind):
    """The catalog's involution of that kind on m, or the test-only
    annulus rotation."""
    return annulus_rotation() if kind == "annulus-rotation" else standard_involution(m, kind)


def test_disk():
    disk = standard_surface(0, 1)
    assert disk.h1_rank == 0
    assert disk.euler == 1
    assert disk.basis == ()


def test_annulus_core_self_pairing():
    ann = standard_surface(0, 2)
    assert ann.h1_rank == 1
    core = ann.curve("d1")
    assert pairing(ann, core, core) == 0


def test_once_punctured_torus_form():
    t = standard_surface(1, 1)
    assert as_matrix(t.form) == IntMatrix([[0, 1], [-1, 0]])


def test_rank_formula():
    # the genus and Euler characteristic are derived from the rank and binding
    for g in range(5):
        for b in range(1, 6):
            m = standard_surface(g, b)
            assert (m.h1_rank, m.genus, m.euler) == (2 * g + b - 1, g, 2 - 2 * g - b)


def test_self_pairing_vanishes_for_all_curves():
    for g in range(3):
        for b in range(1, 5):
            m = standard_surface(g, b)
            for c in m.alphabet.values():
                assert pairing(m, c, c) == 0


def test_closed_pages_rejected():
    with pytest.raises(ValueError):
        standard_surface(1, 0)


@pytest.mark.parametrize("kind,g,b", [
    ("disk-reflection", 0, 1),
    ("annulus-reflection", 0, 2),
    ("annulus-rotation", 0, 2),
    ("planar-reflection", 0, 3),
    ("planar-reflection", 0, 5),
    ("boundary-swap", 0, 2),
    ("boundary-swap", 0, 4),
])
def test_standard_involutions_valid(kind, g, b):
    m = standard_surface(g, b)
    inv = involution(m, kind)
    report = validate_involution(m, inv)
    assert all(r.ok for r in report), [r for r in report if not r.ok]


def test_disk_reflection_lefschetz():
    m = standard_surface(0, 1)
    inv = standard_involution(m, "disk-reflection")
    assert len(inv.fixed_set.arcs) == 1
    assert 1 - as_matrix(inv.matrix).trace() == 1


def test_annulus_reflection_counts():
    m = standard_surface(0, 2)
    inv = standard_involution(m, "annulus-reflection")
    assert as_matrix(inv.matrix) == IntMatrix([[-1]])
    assert len(inv.fixed_set.arcs) == 2
    assert len(inv.fixed_set.circles) == 0


def test_annulus_rotation_counts():
    inv = annulus_rotation()
    assert as_matrix(inv.matrix) == IntMatrix([[1]])
    assert len(inv.fixed_set.arcs) == 0
    assert inv.fixed_set.circles == ((0, 1),)


def test_incompatible_descriptor_rejected():
    m = standard_surface(0, 1)
    with pytest.raises(ValueError):
        standard_involution(m, "boundary-swap")
    with pytest.raises(ValueError):
        standard_involution(standard_surface(1, 2), "annulus-reflection")


def test_validate_reports_lefschetz_failure():
    m = standard_surface(0, 2)
    rot = annulus_rotation()
    broken = Involution(
        matrix=rot.matrix,
        boundary_perm={1: 1, 2: 2},
        fixed_points={1: (1, 2), 2: (3, 4)},
        fixed_set=FixedSet(arcs=(
            FixArc(ends=((1, 1), (2, 3)), pair_curves=()),
            FixArc(ends=((1, 2), (2, 4)), pair_curves=()),
        )),
        curve_image={},
    )
    report = {r.name: r for r in validate_involution(m, broken)}
    assert not report["lefschetz"].ok
    assert "2 arcs" in report["lefschetz"].detail


def test_validate_reports_antisymplectic_failure():
    # the identity preserves the form, so it cannot be a real structure
    t = standard_surface(1, 1)
    broken = Involution(
        matrix=as_rows(IntMatrix.identity(2)),
        boundary_perm={1: 1},
        fixed_points={1: (1, 2)},
        fixed_set=FixedSet(arcs=(FixArc(ends=((1, 1), (1, 2)), pair_curves=()),)),
        curve_image={},
    )
    report = {r.name: r for r in validate_involution(t, broken)}
    assert not report["anti_symplectic"].ok


def test_validate_never_raises():
    t = standard_surface(1, 1)
    junk = Involution(matrix=as_rows(zeros(2, 2)), boundary_perm={},
                      fixed_points={}, fixed_set=FixedSet(), curve_image={})
    report = validate_involution(t, junk)
    assert any(not r.ok for r in report)


def test_involution_invariants_exact():
    for kind, b in [("planar-reflection", 3), ("planar-reflection", 4),
                    ("boundary-swap", 4), ("annulus-reflection", 2)]:
        m = standard_surface(0, b)
        inv = standard_involution(m, kind)
        c, j = as_matrix(inv.matrix), as_matrix(m.form)
        assert c @ c == IntMatrix.identity(m.h1_rank)
        assert c.transpose() @ j @ c == -j
        assert len(inv.fixed_set.arcs) == 1 - c.trace()
        assert all(r.ok for r in validate_involution(m, inv))


def dense_checks(model, inv):
    """The involution, anti_symplectic, curve_image and boundary_classes
    checks as first written, with dense products: the oracle of the
    sparse validate_involution, as (name, ok, detail)."""
    c, j, rank = as_matrix(inv.matrix), as_matrix(model.form), model.h1_rank
    ident = IntMatrix.identity(rank)
    sq = c @ c if rank else ident
    out = [("involution", sq == ident, "" if sq == ident else f"C^2 = {sq.rows}")]
    anti = c.transpose() @ j @ c if rank else j
    ok = anti == -j
    out.append(("anti_symplectic", ok, "" if ok else f"C^T J C = {anti.rows}"))
    ok, detail = True, ""
    for name, (img, s) in inv.curve_image.items():
        if name not in model.alphabet or img not in model.alphabet:
            ok, detail = False, f"image map mentions unknown curve {name!r} -> {img!r}"
            break
        want = tuple(s * x for x in c.apply(dense_class(model, name))) if rank else ()
        if tuple(dense_class(model, img)) != want:
            ok, detail = False, f"curve_image({name}) class mismatch"
            break
    out.append(("curve_image", ok, detail))
    ok, detail = True, ""
    total = (0,) * rank
    for cid, stored in model.circles.items():
        p = expand(stored, rank)
        total = tuple(a + b for a, b in zip(total, p))
        if rank and any(j.apply(p)):
            ok, detail = False, f"boundary class of circle {cid} is not radical"
    if rank and any(total):
        ok, detail = False, "boundary classes do not sum to zero"
    out.append(("boundary_classes", ok, detail))
    return out


def sparse_checks(model, inv):
    names = {name for name, _ok, _detail in dense_checks(model, inv)}
    return [(r.name, r.ok, r.detail) for r in validate_involution(model, inv) if r.name in names]


def one_entry_changes(ob):
    """(what, page, involution) for each +-1 change of one entry of C, of
    J, of a curve class that curve_image maps, or of a boundary class."""
    from realbook.records import replace

    def bumped(rows, i, k, d):
        out = [list(r) for r in rows]
        out[i][k] += d
        return as_rows(IntMatrix(out, ncols=len(rows[0])))

    page, inv = ob.page, ob.real_structure
    n = page.h1_rank
    c, j = as_matrix(inv.matrix).rows, as_matrix(page.form).rows
    for i in range(n):
        for k in range(n):
            for d in (1, -1):
                yield f"C[{i},{k}]{d:+d}", page, replace(inv, matrix=bumped(c, i, k, d))
                yield f"J[{i},{k}]{d:+d}", replace(page, form=bumped(j, i, k, d)), inv
    for name in sorted(inv.curve_image):
        cls = dense_class(page, name)
        for i in range(n):
            moved = sparse(cls[:i] + [cls[i] + 1] + cls[i + 1:])
            yield f"class {name}[{i}]", replace(page, alphabet={**page.alphabet, name: moved}), inv
    for cid, stored in page.circles.items():
        p = expand(stored, n)
        for i in range(n):
            circles = {**page.circles, cid: sparse(p[:i] + [p[i] + 1] + p[i + 1:])}
            yield f"circle {cid}[{i}]", replace(page, circles=circles), inv


def test_sparse_validation_matches_the_dense_checks():
    """Every golden book passes, and on one-entry changes of small golden
    books each of the four checks fails somewhere, with the name and
    detail of the dense code."""
    from test_golden import golden_books

    from realbook.catalog import catalog_fig4, catalog_fig6, catalog_lens_3punctured

    for label, ob in golden_books():
        got = sparse_checks(ob.page, ob.real_structure)
        assert got == dense_checks(ob.page, ob.real_structure), label
        assert all(ok for _name, ok, _detail in got), label
    failed = set()
    for ob in (catalog_fig4(3), catalog_fig6(2), catalog_lens_3punctured(2, 2, 1)):
        for what, page, inv in one_entry_changes(ob):
            got = sparse_checks(page, inv)
            assert got == dense_checks(page, inv), what
            failed |= {name for name, ok, _detail in got if not ok}
    assert failed == {"involution", "anti_symplectic", "curve_image", "boundary_classes"}


def test_golden_books_pass_the_page_checks():
    from test_golden import golden_books

    count = 0
    for label, ob in golden_books():
        assert [(r.name, r.ok, r.detail) for r in validate_page(ob.page)] == \
            [("disjoint", True, "")], label
        page = ob.page
        assert page.genus >= 0 and 2 * page.genus + page.boundary_count - 1 == page.h1_rank, label
        count += 1
    assert count == 283


def test_page_check_fails_on_a_meeting_pair():
    from realbook.records import replace

    t = standard_surface(1, 2)
    report = {r.name: r for r in validate_page(
        replace(t, disjoint=t.disjoint | {frozenset(("a1", "b1"))}))}
    assert report["disjoint"].detail == "disjoint pair (a1, b1) has <a1, b1> = 1"
    unknown = replace(t, disjoint=frozenset({frozenset(("a1", "z"))}))
    assert validate_page(unknown)[0].detail == "disjoint pair (a1, z) names an unknown curve"


def test_a_boundary_perm_that_is_no_involution_fails_both_boundary_checks():
    """The witness of boundary_perm and boundary_tags: on lens-3punctured
    2 2 1, sending circle 1 to 2 and 2 to itself is no involution, and
    circle 1, no longer fixed, still carries its fixed points.  Every
    other check passes."""
    from realbook.catalog import catalog_lens_3punctured
    from realbook.records import replace

    ob = catalog_lens_3punctured(2, 2, 1)
    inv = replace(ob.real_structure, boundary_perm={1: 2, 2: 2, 3: 3})
    report = {r.name: (r.ok, r.detail) for r in validate_involution(ob.page, inv)}
    assert report["boundary_perm"] == (False, "perm = {1: 2, 2: 2, 3: 3}")
    assert report["boundary_tags"] == (False, "swapped circle 1 carries fixed points")
    assert [name for name, (ok, _) in report.items() if not ok] == ["boundary_perm",
                                                                    "boundary_tags"]


def test_anti_symplectic_check_compares_ct_j_with_its_transpose():
    """Given C^2 = I and an antisymmetric J, C^T J C = -J exactly when
    C^T J is symmetric, which is what the check compares: a real
    structure passes, and +-I, which pass the involution check, fail it
    on a page whose form is not zero, with C^T J C = J in the failure
    text, as the dense product gives."""
    from realbook.catalog import catalog_fig4
    from realbook.surface import anti_symplectic_check

    for ob in (catalog_fig4(2), catalog_fig4(3)):
        j, c, rank = ob.page.form, ob.real_structure.matrix, ob.page.h1_rank
        dj = as_matrix(j)
        assert anti_symplectic_check(c, j, rank, True).ok
        assert as_matrix(c).transpose() @ dj @ as_matrix(c) == -dj
        for sign in (1, -1):
            identity = tuple((i, sign) for i in range(rank))
            got = anti_symplectic_check(identity, j, rank, True)
            assert not got.ok and any(dj.rows)
            assert got.detail == f"C^T J C = {tuple(tuple(row) for row in dj.rows)}"


def test_a_column_read_off_sparse_rows_is_the_transposes():
    """sparse_column, which image_holds reads at the nonzeros of a
    curve's class, gives each column of C and J as sparse_transpose
    does, on the golden books."""
    from itertools import islice

    from test_golden import golden_books
    from realbook.surface import sparse_column, sparse_transpose

    for label, ob in islice(golden_books(), 0, None, 7):
        for rows in (ob.real_structure.matrix, ob.page.form):
            cols = sparse_transpose(rows)
            assert [sparse_column(rows, i) for i in range(len(rows))] == list(cols), label
