import random

import pytest

from realbook.intalg import (
    AbelianGroup,
    IntMatrix,
    cokernel,
    smith_normal_form,
    snf_solve,
    solve_integer,
    solve_integer_affine,
)
from oracles import determinantal_divisors


def random_matrix(rng, m, n, bound=5):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)],
                     ncols=n)


def random_unimodular(rng, n, ops=8):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            q = rng.randint(-2, 2)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return IntMatrix(m, ncols=n)


def test_snf_identity():
    assert smith_normal_form(IntMatrix.identity(2)).d == IntMatrix.identity(2)


def test_snf_diag_2_3():
    a = IntMatrix.diagonal([2, 3])
    s = smith_normal_form(a)
    assert s.d.diag() == (1, 6)
    assert s.check(a)
    # determinantal-divisor oracle: d_k = D_k / D_{k-1}
    assert determinantal_divisors(a) == [1, 6]


def test_snf_zero():
    a = IntMatrix.zeros(2, 2)
    assert smith_normal_form(a).d == a


def test_cokernel_cyclic():
    for n in range(2, 8):
        assert cokernel(IntMatrix([[n]])) == AbelianGroup(0, (n,))


def test_cokernel_no_relations():
    empty = IntMatrix([[]], ncols=0)
    assert cokernel(empty) == AbelianGroup(1)


def test_cokernel_rank_one():
    assert cokernel(IntMatrix([[1, 0], [0, 0]])) == AbelianGroup(1)


def test_abelian_group_canonical_form_enforced():
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))


def test_snf_random_against_minor_gcd_oracle():
    rng = random.Random(0)
    for _ in range(200):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        a = random_matrix(rng, m, n)
        s = smith_normal_form(a)
        assert s.check(a)
        dd = determinantal_divisors(a)
        diag = list(s.d.diag())
        prev = 1
        for k, dk in enumerate(dd):
            if dk == 0:
                assert all(x == 0 for x in diag[k:])
                break
            assert diag[k] == dk // prev
            prev = dk


def test_snf_unimodularity_exact():
    rng = random.Random(1)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        s = smith_normal_form(a)
        assert abs(s.u.det()) == 1
        assert abs(s.v.det()) == 1


def test_cokernel_invariant_under_unimodular_action():
    rng = random.Random(2)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        u = random_unimodular(rng, m)
        v = random_unimodular(rng, n)
        assert cokernel(u @ a @ v) == cokernel(a)


def test_solve_integer():
    a = IntMatrix([[2, 0], [0, 3]])
    assert a.apply(solve_integer(a, [4, 9])) == (4, 9)
    assert solve_integer(a, [1, 0]) is None


def test_solve_integer_affine_kernel():
    a = IntMatrix([[1, 1, 0]])
    sol = solve_integer_affine(a, [2])
    assert sol is not None
    x, kernel = sol
    assert sum(x[:2]) == 2
    assert len(kernel) == 2
    for g in kernel:
        assert g[0] + g[1] == 0 or g[2] != 0


def test_determinant_bareiss():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        # compare against cofactor expansion
        def cofactor(rows):
            k = len(rows)
            if k == 0:
                return 1
            if k == 1:
                return rows[0][0]
            total = 0
            for j in range(k):
                minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                total += (-1) ** j * rows[0][j] * cofactor(minor)
            return total
        assert a.det() == cofactor([list(r) for r in a.rows])


# ---------------------------------------------------------------------------
# oracles for the fast kernels: naive products and the full-scan pivot rule


def naive_matmul(a, b):
    return [[sum(a.rows[i][k] * b.rows[k][j] for k in range(a.ncols))
             for j in range(b.ncols)] for i in range(a.nrows)]


def shaped(m, n, rows):
    return IntMatrix(rows, ncols=n) if m else IntMatrix([], ncols=n)


def oracle_cases(rng):
    """(m, k, n) shapes with the degenerate ones first, then random
    sparse, dense, zero-row and big-int factors."""
    for m, k, n in [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (3, 0, 0), (0, 2, 0)]:
        yield (shaped(m, k, [[0] * k for _ in range(m)]),
               shaped(k, n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]))
    for trial in range(120):
        m, k, n = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        big = 10 ** rng.choice((0, 0, 30))
        density = rng.choice((0.15, 0.5, 1.0))

        def entry():
            return rng.randint(-3, 3) * big if rng.random() < density else 0

        rows = [[entry() for _ in range(k)] for _ in range(m)]
        for i in range(0, m, 2):   # all-zero rows between live ones
            if trial % 3 == 0:
                rows[i] = [0] * k
        yield (IntMatrix(rows, ncols=k),
               IntMatrix([[entry() for _ in range(n)] for _ in range(k)], ncols=n))


def test_matmul_apply_transpose_match_naive_reference():
    rng = random.Random(31)
    for a, b in oracle_cases(rng):
        p = a @ b
        assert p.shape == (a.nrows, b.ncols)
        assert [list(r) for r in p.rows] == naive_matmul(a, b)
        for m in (a, b):
            t = m.transpose()
            assert t.shape == (m.ncols, m.nrows)
            assert all(t.rows[j][i] == m.rows[i][j]
                       for i in range(m.nrows) for j in range(m.ncols))
            assert t.transpose() == m
            vec = [rng.randint(-5, 5) * 10 ** rng.choice((0, 25)) for _ in range(m.ncols)]
            assert m.apply(vec) == tuple(
                sum(m.rows[i][j] * vec[j] for j in range(m.ncols)) for i in range(m.nrows))


def test_matmul_rows_do_not_alias():
    a = IntMatrix([[0, 0], [1, 0], [0, 0], [0, 2]])
    b = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert a @ b == IntMatrix([[0, 0, 0], [1, 2, 3], [0, 0, 0], [8, 10, 12]])


def test_constructor_normalizes_and_checks_widths():
    m = IntMatrix([[True, 2], [3, False]])
    assert m.rows == ((1, 2), (3, 0)) and all(type(x) is int for r in m.rows for x in r)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], ncols=3)
    assert IntMatrix([], ncols=4).shape == (0, 4)
    assert IntMatrix([[], []], ncols=0).shape == (2, 0)


def full_scan_smith_normal_form(a):
    """The Smith form as first written: the pivot scan always covers the
    whole working block and the divisibility sweep always runs."""
    m, n = a.shape
    mat = [list(row) for row in a.rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        mat[i], mat[j] = mat[j], mat[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in mat + v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        mat[dst] = [x + q * y for x, y in zip(mat[dst], mat[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in mat + v:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                x = mat[i][j]
                if x != 0 and (pivot is None or abs(x) < abs(mat[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, m):
                if mat[i][t] != 0:
                    add_row(i, t, -(mat[i][t] // mat[t][t]))
            col_dirty = [i for i in range(t + 1, m) if mat[i][t] != 0]
            if col_dirty:
                swap_rows(t, min(col_dirty, key=lambda k: abs(mat[k][t])))
                continue
            for j in range(t + 1, n):
                if mat[t][j] != 0:
                    add_col(j, t, -(mat[t][j] // mat[t][t]))
            row_dirty = [j for j in range(t + 1, n) if mat[t][j] != 0]
            if row_dirty:
                swap_cols(t, min(row_dirty, key=lambda k: abs(mat[t][k])))
                continue
            offender = next((i for i in range(t + 1, m) for j in range(t + 1, n)
                             if mat[i][j] % mat[t][t] != 0), None)
            if offender is None:
                break
            add_row(t, offender, 1)
        if mat[t][t] < 0:
            mat[t] = [-x for x in mat[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return IntMatrix(mat, ncols=n), IntMatrix(u, ncols=m), IntMatrix(v, ncols=n)


def fig4_viii_systems(k=16):
    """Every system _solve_viii_data factors while the fig4 ladder is
    built to k: the largest Smith forms of a stabilization, to 60 x 58
    at k = 16, whose v the type-VIII lattice search reads."""
    from realbook import stabilization
    from realbook.catalog import catalog_fig4

    systems = []
    solve = stabilization.solve_integer_affine
    stabilization.solve_integer_affine = lambda a, b: systems.append(a) or solve(a, b)
    try:
        catalog_fig4(k)
    finally:
        stabilization.solve_integer_affine = solve
    return systems


def snf_oracle_matrices(rng):
    from realbook.catalog import ENTRIES, catalog_fig4, catalog_fig5

    yield from fig4_viii_systems()
    for trial in range(150):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        if trial % 3 == 0:      # no unit entries: the divisibility sweep runs
            rows = [[rng.choice((0, 2, -2, 3, -3, 6, 4)) for _ in range(n)] for _ in range(m)]
        elif trial % 3 == 1:    # sparse with units, as the page systems are
            rows = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(m)]
        else:
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        yield IntMatrix(rows, ncols=n)
    for ob in [e.build() for e in ENTRIES] + [catalog_fig4(6), catalog_fig5(4)]:
        j, c = ob.page.form, ob.real_structure.matrix
        yield j
        yield IntMatrix.identity(j.nrows) - c
        yield c.transpose() @ j + j


def test_snf_matches_full_scan_pivot_rule():
    rng = random.Random(41)
    for a in snf_oracle_matrices(rng):
        snf = smith_normal_form(a)
        oracle = full_scan_smith_normal_form(a)
        assert (snf.d, snf.u, snf.v) == oracle, a
        bare = smith_normal_form(a, transforms=False)
        assert (bare.d, bare.u, bare.v) == (oracle[0], None, None), a


def test_fig4_ladder_reaches_the_largest_viii_systems():
    shapes = [a.shape for a in fig4_viii_systems()]
    assert len(shapes) >= 15 and max(shapes) == (60, 58)


def test_snf_solve_reuses_one_factorization():
    rng = random.Random(43)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n, bound=3)
        snf = smith_normal_form(a)
        for _ in range(5):
            x = [rng.randint(-4, 4) for _ in range(n)]
            b = list(a.apply(x))
            sol = snf_solve(snf, b)
            assert sol is not None and a.apply(sol) == tuple(b)
            b[rng.randrange(m)] += rng.randint(1, 3)
            assert snf_solve(snf, b) == solve_integer(a, b)
    with pytest.raises(ValueError):
        snf_solve(smith_normal_form(IntMatrix.identity(2)), [1])


def test_smith_form_reads_its_diagonal_once(monkeypatch):
    a = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    snf = smith_normal_form(a)
    reads = []
    diag = IntMatrix.diag
    monkeypatch.setattr(IntMatrix, "diag", lambda m: reads.append(m) or diag(m))
    for b in ([2, -6, 10], [1, 0, 0], [4, 0, -4]):
        assert snf_solve(snf, b) == solve_integer(a, b)
    assert snf.diag == (2, 6, 12)
    # one read for the reused form, one for each form solve_integer factors
    assert [m is snf.d for m in reads] == [True, False, False, False]


# ---------------------------------------------------------------------------
# the diagonal-only Smith form behind cokernel


def cokernel_from_divisors(a):
    """The cokernel read off the determinantal divisors: d_k = D_k / D_{k-1}."""
    diag, prev = [], 1
    for dk in determinantal_divisors(a):
        if dk == 0:
            break
        diag.append(dk // prev)
        prev = dk
    return AbelianGroup(a.nrows - len(diag), tuple(d for d in diag if d >= 2))


def cokernel_from_transforms(a):
    """The cokernel read off the Smith form computed with its transforms."""
    nonzero = [d for d in smith_normal_form(a).d.diag() if d]
    return AbelianGroup(a.nrows - len(nonzero), tuple(d for d in nonzero if d >= 2))


def assert_diagonal_only_agrees(a):
    bare = smith_normal_form(a, transforms=False)
    assert bare.u is None and bare.v is None
    assert bare.d == smith_normal_form(a).d, a
    assert cokernel(a) == cokernel_from_transforms(a), a


def test_cokernel_diagonal_matches_smith_form_and_minor_oracle():
    rng = random.Random(47)
    small = [IntMatrix([], ncols=k) for k in range(4)]                  # 0 x k
    small += [IntMatrix([[]] * k, ncols=0) for k in range(1, 4)]        # k x 0
    for trial in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        if trial % 3 == 0:      # unit-free: every pivot runs the divisibility sweep
            rows = [[rng.choice((0, 2, -2, 3, -3, 6, 4)) for _ in range(n)] for _ in range(m)]
        elif trial % 3 == 1:    # sparse
            rows = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(m)]
        else:
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        small.append(IntMatrix(rows, ncols=n))
    for a in small:
        assert_diagonal_only_agrees(a)
        assert cokernel(a) == cokernel_from_divisors(a), a
    assert cokernel(IntMatrix([], ncols=3)) == AbelianGroup(0)
    assert cokernel(IntMatrix([[]] * 3, ncols=0)) == AbelianGroup(3)
    for a in snf_oracle_matrices(rng):
        assert_diagonal_only_agrees(a)


def test_cokernel_diagonal_on_every_h1_relation_matrix(monkeypatch):
    from realbook import openbook
    from realbook.catalog import ENTRIES
    from test_golden import ladders

    relations = []
    monkeypatch.setattr(openbook, "cokernel", lambda a: relations.append(a) or cokernel(a))
    books = [e.build() for e in ENTRIES] + [ob for _label, ob in ladders()]
    for ob in books:
        openbook.h1_of_manifold(ob)
    assert len(relations) == len(books)
    for a in relations:
        assert_diagonal_only_agrees(a)
