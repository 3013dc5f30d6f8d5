import json
import random

import pytest

from realbook.catalog import (
    ENTRIES,
    catalog_fig4,
    catalog_fig5,
    catalog_fig6,
    catalog_hopf,
    catalog_lens_annulus,
    catalog_s3_disk,
)
from realbook.heegaard import (
    HeegaardData,
    RealPartUnavailable,
    _GF2Solver,
    _interior_basis_indices,
    heegaard_data,
    is_maximal,
    real_part,
    validate_heegaard,
)
from realbook.intalg import IntMatrix
from realbook.openbook import (
    OpenBook,
    StabilizationError,
    enumerate_sites,
    stabilize,
)
from realbook.surface import entries
from oracles import as_matrix, as_rows, identity, neg, trace, transpose, twist_matrix


def heegaard_genus(ob):
    return 2 * ob.page.genus + ob.page.boundary_count - 1


def test_disk_sphere_splitting():
    ob = catalog_s3_disk()
    hd = heegaard_data(ob)
    assert hd.genus == 0
    rp = real_part(ob)
    assert rp.count == 1
    assert rp.separating_flags() == (True,)     # an equator on the sphere
    assert is_maximal(hd, rp)


def test_hopf_torus_splitting():
    for variant in ("conjugation", "swap"):
        ob = catalog_hopf(variant)
        hd = heegaard_data(ob)
        assert hd.genus == 1
        rp = real_part(ob)
        assert rp.count == 1
        assert rp.separating_flags() == (False,)
        assert not is_maximal(hd, rp)           # 1 < 2


def test_fig_family_genus_bookkeeping():
    for k in range(1, 5):
        assert heegaard_data(catalog_fig4(k)).genus == 2 * k - 1
        assert heegaard_data(catalog_fig5(k)).genus == 2 * k
        assert heegaard_data(catalog_fig6(k)).genus == 2 * k


def test_fig_family_separating_flags():
    for k in range(1, 5):
        assert real_part(catalog_fig4(k)).separating_flags() == (False,)
        assert real_part(catalog_fig5(k)).separating_flags() == (True,)
        assert real_part(catalog_fig6(k)).separating_flags() == (False,)


def test_single_handle_adds_one_pair_adds_two():
    for e in ENTRIES:
        ob = e.build()
        g0 = heegaard_genus(ob)
        for tag, site in enumerate_sites(ob):
            try:
                out = stabilize(ob, tag, site)
            except StabilizationError:
                continue
            delta = heegaard_genus(out) - g0
            handles = {"I": 1, "II": 1, "V": 1, "VII": 1}.get(tag, 2)
            assert delta == handles, (e.name, tag)


def test_lens_annulus_real_part_parity():
    # tau^n composed with the reflection reconnects the strands by the
    # parity of n: one circle for odd powers, two for even
    for n in range(1, 9):
        rp = real_part(catalog_lens_annulus(n))
        assert rp.count == (1 if n % 2 else 2)
        g = heegaard_data(catalog_lens_annulus(n)).genus
        assert rp.count <= g + 1
    # the even case meets the Harnack bound on the torus
    assert is_maximal(heegaard_data(catalog_lens_annulus(2)),
                      real_part(catalog_lens_annulus(2)))


def test_harnack_bound_everywhere():
    rng = random.Random(17)
    for _ in range(60):
        ob = ENTRIES[rng.randrange(len(ENTRIES))].build()
        for _ in range(rng.randint(0, 4)):
            sites = enumerate_sites(ob)
            rng.shuffle(sites)
            for tag, site in sites:
                try:
                    ob = stabilize(ob, tag, site)
                    break
                except StabilizationError:
                    continue
        rp = real_part(ob)
        assert rp.count <= heegaard_genus(ob) + 1


def test_gluing_blocks_validate():
    for e in ENTRIES:
        ob = e.build()
        hd = heegaard_data(ob)
        assert all(ok for _n, ok in validate_heegaard(hd, ob))


def test_plus_side_lefschetz_under_stabilization():
    # both invariant pages must satisfy their own fixed-point identity
    rng = random.Random(41)
    for _ in range(30):
        ob = ENTRIES[rng.randrange(len(ENTRIES))].build()
        for _ in range(rng.randint(1, 5)):
            sites = enumerate_sites(ob)
            rng.shuffle(sites)
            for tag, site in sites:
                try:
                    ob = stabilize(ob, tag, site)
                    break
                except StabilizationError:
                    continue
        hd = heegaard_data(ob)
        report = dict(validate_heegaard(hd, ob))
        assert report["minus_lefschetz"] and report["plus_lefschetz"]


def dense_antisymplectic(ob, c):
    """(F C)^T J (F C) == -J and C^T J C == -J by dense products, with F
    the product of one dense twist matrix per letter."""
    f = identity(ob.page.h1_rank)
    for name, exp in ob.monodromy:
        f = twist_matrix(ob.page, name, exp) @ f
    fc = f @ c
    j = as_matrix(ob.page.form)
    return transpose(fc) @ j @ fc == neg(j), transpose(c) @ j @ c == neg(j)


def plus_block_report(ob):
    """validate_heegaard on the block data F C of the book, which
    heegaard_data would refuse for a book that is not real."""
    hd = HeegaardData(as_rows(as_matrix(ob.monodromy_matrix) @ as_matrix(ob.real_structure.matrix)))
    return dict(validate_heegaard(hd, ob))


def test_derived_plus_antisymplectic_matches_dense_oracle_on_golden_books():
    """The lemma of validate_heegaard: the dense plus block is
    antisymplectic exactly when the minus block is, so the one
    minus_antisymplectic entry reports both."""
    from test_golden import golden_books

    checked = 0
    for label, ob in golden_books():
        if not ob.page.h1_rank:
            continue
        report = plus_block_report(ob)
        plus, minus = dense_antisymplectic(ob, as_matrix(ob.real_structure.matrix))
        assert report["minus_antisymplectic"] == plus == minus, label
        assert "plus_antisymplectic" not in report, label
        checked += 1
    assert checked > 200


def test_tampered_involution_fails_both_antisymplectic_checks():
    from realbook.records import replace
    from itertools import islice

    from test_golden import golden_books

    # the form is zero on genus-0 pages, where every C is antisymplectic
    walked = (ob for label, ob in golden_books() if label.startswith("walk") and ob.page.genus)
    for ob in [catalog_fig4(2), catalog_fig4(3), *islice(walked, 3)]:
        # doubling row i of C gives (DC)^T J (DC) = C^T (DJD) C, D = diag(.., 2, ..),
        # and DJD != J for a basis class i that pairs with something
        i = next(i for i, row in enumerate(as_matrix(ob.page.form).rows) if any(row))
        rows = [list(r) for r in as_matrix(ob.real_structure.matrix).rows]
        rows[i] = [2 * x for x in rows[i]]
        c = IntMatrix(rows)
        bad = replace(ob, real_structure=replace(ob.real_structure, matrix=as_rows(c)))
        report = plus_block_report(bad)
        assert not report["minus_antisymplectic"]
        assert dense_antisymplectic(bad, c) == (False, False)


def test_untracked_plus_side_reported():
    ob = catalog_s3_disk()
    stripped = OpenBook(page=ob.page, monodromy=ob.monodromy,
                        real_structure=ob.real_structure, fix_plus=None)
    with pytest.raises(RealPartUnavailable):
        real_part(stripped)


def test_genus_check_fails_on_wrong_page_genus():
    from realbook.jsonio import SchemaError, dumps, loads

    # the page derives its genus, and heegaard_data sets the splitting
    # genus to rank H1, so only a stored page genus can be wrong, and a
    # book that stores one does not load
    ob = catalog_fig4(2)
    assert heegaard_data(ob).genus == ob.page.h1_rank
    assert "genus" not in dict(validate_heegaard(heegaard_data(ob), ob))
    obj = json.loads(dumps(ob))
    obj["page"]["genus"] += 1
    with pytest.raises(SchemaError, match=r"^\$\.page\.genus is 2, "):
        loads(json.dumps(obj))


def test_not_real_rejected():
    from test_openbook import not_real_example

    with pytest.raises(ValueError):
        heegaard_data(not_real_example())
    with pytest.raises(ValueError):
        real_part(not_real_example())


def test_maximality_arithmetic():
    hd = heegaard_data(catalog_s3_disk())
    rp = real_part(catalog_s3_disk())
    assert is_maximal(hd, rp)
    hd1 = heegaard_data(catalog_lens_annulus(1))
    rp1 = real_part(catalog_lens_annulus(1))
    assert not is_maximal(hd1, rp1)


def list_gf2_solve(q, rhs):
    """The list-of-lists GF(2) solver the bitset one replaced: Gauss-Jordan
    on [q | rhs], pivot the first nonzero row at or below the pivot row,
    free variables 0; None when inconsistent."""
    n = len(q)
    a = [row[:] + [rhs[i]] for i, row in enumerate(q)]
    piv_cols = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(n):
            if i != r and a[i][c]:
                a[i] = [x ^ y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, n):
        if a[i][n]:
            return None
    x = [0] * n
    for i, c in enumerate(piv_cols):
        x[c] = a[i][n]
    return x


def _to_bits(entries):
    return sum(1 << i for i, x in enumerate(entries) if x)


def test_bitset_gf2_solver_matches_list_solver():
    rng = random.Random(17)
    seen = {"full rank": 0, "rank deficient": 0, "inconsistent": 0}
    for trial in range(300):
        n = rng.randint(1, 14)
        if trial % 2:
            # rank at most r < n: a product of n x r and r x n factors
            r = rng.randint(0, n - 1)
            left = [[rng.randint(0, 1) for _ in range(r)] for _ in range(n)]
            right = [[rng.randint(0, 1) for _ in range(n)] for _ in range(r)]
            q = [[sum(left[i][k] * right[k][j] for k in range(r)) % 2 for j in range(n)]
                 for i in range(n)]
        else:
            q = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        solver = _GF2Solver([_to_bits(row) for row in q], n)
        for _ in range(8):
            rhs = [rng.randint(0, 1) for _ in range(n)]
            want = list_gf2_solve(q, rhs)
            got = solver.solve(_to_bits(rhs))
            assert got == (None if want is None else tuple(want))
            if got is None:
                seen["inconsistent"] += 1
                continue
            assert [sum(a * x for a, x in zip(row, got)) % 2 for row in q] == rhs
            seen["full rank" if len(solver.pivot_cols) == n else "rank deficient"] += 1
    assert min(seen.values()) > 100, seen


def gf2_rank(vectors, width):
    """The rank mod 2 of bitset vectors, by Gauss-Jordan column by
    column."""
    rows, rank = list(vectors), 0
    for bit in range(width):
        pivot = next((k for k in range(rank, len(rows)) if rows[k] >> bit & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(len(rows)):
            if k != rank and rows[k] >> bit & 1:
                rows[k] ^= rows[rank]
        rank += 1
    return rank


def greedy_interior_indices(ob):
    """The basis indices i, in increasing order, whose unit vector
    raises the rank mod 2 of the pushoff classes and the units kept
    before it."""
    rank = ob.page.h1_rank
    span = [sum(1 << i for i, x in entries(p) if x % 2) for p in ob.page.circles.values()]
    kept, have = [], gf2_rank(span, rank)
    for i in range(rank):
        if gf2_rank(span + [1 << i], rank) > have:
            span.append(1 << i)
            kept.append(i)
            have += 1
    return kept


def test_real_part_classes_match_the_list_solver_on_golden_books(monkeypatch):
    """On every golden book, whose opposite-page fixed set is tracked,
    the interior indices are those of the greedy scan, and each
    component's class is list_gf2_solve on the book's own closed-surface
    pairing matrix and the component's crossing vector: the echelons
    are checked on the systems real_part builds, not only on random
    matrices."""
    from test_golden import golden_books

    import realbook.heegaard as heegaard_module

    solved = []

    class Recording(_GF2Solver):
        def __init__(self, q, n):
            super().__init__(q, n)
            self.q = q

        def solve(self, b):
            x = super().solve(b)
            solved.append((self.q, self.n, b, x))
            return x

    monkeypatch.setattr(heegaard_module, "_GF2Solver", Recording)
    books = components = 0
    for label, ob in golden_books():
        assert ob.fix_plus is not None, label
        assert _interior_basis_indices(ob) == greedy_interior_indices(ob), label
        solved.clear()
        rp = real_part(ob)
        assert [c.h1_class for c in rp.components] == [x for *_, x in solved], label
        for q, n, b, x in solved:
            dense_q = [[q[r] >> c & 1 for c in range(n)] for r in range(n)]
            assert x == tuple(list_gf2_solve(dense_q, [b >> r & 1 for r in range(n)])), label
            components += 1
        books += 1
    assert books == 283 and components > books


def test_minus_checks_are_the_involution_checks_on_golden_books():
    """minus_involution, minus_antisymplectic and minus_lefschetz give the
    verdicts of the involution, anti_symplectic and lefschetz checks of
    validate_involution, whose code they share."""
    from test_golden import golden_books

    from realbook.surface import validate_involution

    count = 0
    for label, ob in golden_books():
        full = {r.name: r.ok for r in validate_involution(ob.page, ob.real_structure)}
        report = plus_block_report(ob)
        pairs = [("minus_involution", "involution"), ("minus_lefschetz", "lefschetz")]
        if ob.page.h1_rank:
            pairs.append(("minus_antisymplectic", "anti_symplectic"))
        for minus, name in pairs:
            assert report[minus] == full[name], (label, minus)
        count += 1
    assert count == 283


def _with_matrix_row_doubled(ob):
    from realbook.records import replace

    i = next(i for i, row in enumerate(as_matrix(ob.page.form).rows) if any(row))
    rows = [list(r) for r in as_matrix(ob.real_structure.matrix).rows]
    rows[i] = [2 * x for x in rows[i]]
    return replace(ob, real_structure=replace(ob.real_structure, matrix=as_rows(IntMatrix(rows))))


def _with_minus_arc_dropped(ob):
    from realbook.records import replace

    inv = ob.real_structure
    fixed_set = replace(inv.fixed_set, arcs=inv.fixed_set.arcs[1:])
    return replace(ob, real_structure=replace(inv, fixed_set=fixed_set))


def _with_plus_arc_dropped(ob):
    from realbook.records import replace

    return replace(ob, fix_plus=replace(ob.fix_plus, arcs=ob.fix_plus.arcs[1:]))


# books of positive genus, for a doubled row of C that meets the form,
# and books with fixed arcs on both pages
GENUS_BOOKS = (lambda: catalog_fig4(2), lambda: catalog_fig4(3), lambda: catalog_fig4(4))
ARC_BOOKS = (lambda: catalog_fig5(3), lambda: catalog_fig6(2), lambda: catalog_lens_annulus(3))


@pytest.mark.parametrize("books, corrupt, involution_fails, heegaard_fails", [
    (GENUS_BOOKS, _with_matrix_row_doubled, {"involution", "anti_symplectic"},
     {"minus_involution", "plus_involution", "minus_antisymplectic"}),
    (ARC_BOOKS, _with_minus_arc_dropped, {"lefschetz"}, {"minus_lefschetz"}),
    (ARC_BOOKS, _with_plus_arc_dropped, set(), {"plus_lefschetz"}),
], ids=["doubled-row-of-C", "dropped-minus-arc", "dropped-plus-arc"])
def test_shared_checks_fail_through_each_caller(books, corrupt, involution_fails,
                                                heegaard_fails):
    """Each shared check fails through validate_involution and through
    validate_heegaard, and the minus side agrees with validate_involution
    on the corrupted book too."""
    from realbook.surface import validate_involution

    for make in books:
        bad = corrupt(make())
        report = plus_block_report(bad)
        full = {r.name: r.ok for r in validate_involution(bad.page, bad.real_structure)}
        assert involution_fails <= {name for name, ok in full.items() if not ok}
        assert heegaard_fails <= {name for name, ok in report.items() if not ok}
        for name in ("involution", "anti_symplectic", "lefschetz"):
            assert report[f"minus_{name.replace('_', '')}"] == full[name], name


def test_plus_checks_read_the_plus_block():
    """On a real book (F C)^2 = I and tr(F C) = tr C, since F fixes the
    radical and both are anti-symplectic involutions on the quotient, so
    only a book that is not real tells the blocks apart; there
    plus_involution and plus_lefschetz are checked on F C."""
    from test_openbook import not_real_example

    from realbook.records import replace
    from realbook.surface import FixedSet

    ob = not_real_example()
    c = as_matrix(ob.real_structure.matrix)
    fc = as_matrix(ob.monodromy_matrix) @ c
    plus, minus = 1 - trace(fc), 1 - trace(c)
    assert plus != minus and plus > 0
    report = plus_block_report(ob)
    assert report["minus_involution"] and not report["plus_involution"]
    arc = ob.real_structure.fixed_set.arcs[0]
    for count in (plus, minus):
        report = plus_block_report(replace(ob, fix_plus=FixedSet(arcs=(arc,) * count)))
        assert report["plus_lefschetz"] == (count == plus)
