import random

import pytest

from realbook.intalg import (
    AbelianGroup,
    IntMatrix,
    SmithForm,
    cokernel,
    factor,
    smith_normal_form,
)
from oracles import (
    add,
    apply,
    as_matrix,
    as_rows,
    dense_solve,
    det,
    determinantal_divisors,
    diag,
    diagonal,
    expand,
    full_scan_smith_normal_form,
    identity,
    logged_transforms,
    smith_check,
    sub,
    transpose,
    zeros,
)


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
    s = smith_normal_form(identity(2))
    assert diagonal(s.diag, *s.shape) == identity(2)


def test_snf_diag_2_3():
    a = diagonal([2, 3])
    s = smith_normal_form(a)
    assert s.diag == (1, 6)
    assert smith_check(s, a)
    # determinantal-divisor oracle: d_k = D_k / D_{k-1}
    assert determinantal_divisors(a) == [1, 6]


def test_snf_zero():
    a = zeros(2, 2)
    s = smith_normal_form(a)
    assert diagonal(s.diag, *s.shape) == a


def test_cokernel_cyclic():
    for n in range(2, 8):
        assert cokernel(as_rows(IntMatrix([[n]]))) == AbelianGroup(0, (n,))


def test_cokernel_no_relations():
    empty = IntMatrix([[]], ncols=0)
    assert cokernel(as_rows(empty)) == AbelianGroup(1)


def test_cokernel_rank_one():
    assert cokernel(as_rows(IntMatrix([[1, 0], [0, 0]]))) == AbelianGroup(1)


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
        assert smith_check(s, a)
        dd = determinantal_divisors(a)
        ds = list(s.diag)
        prev = 1
        for k, dk in enumerate(dd):
            if dk == 0:
                assert all(x == 0 for x in ds[k:])
                break
            assert ds[k] == dk // prev
            prev = dk


def test_snf_unimodularity_exact():
    rng = random.Random(1)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        u, v = logged_transforms(smith_normal_form(a))
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1


def test_cokernel_invariant_under_unimodular_action():
    rng = random.Random(2)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        u = random_unimodular(rng, m)
        v = random_unimodular(rng, n)
        assert cokernel(as_rows(u @ a @ v)) == cokernel(as_rows(a))


def test_solve_integer():
    a = IntMatrix([[2, 0], [0, 3]])
    snf = factor(as_rows(a), 2)
    assert apply(a, snf.solve([4, 9])) == (4, 9)
    assert snf.solve([1, 0]) is None


def test_solve_integer_affine_kernel():
    a = IntMatrix([[1, 1, 0]])
    snf = factor(as_rows(a), 3)
    x = snf.solve([2])
    assert x is not None
    kernel = snf.kernel()
    assert iter(kernel) is kernel       # lazy: a generator is built when read
    kernel = list(kernel)
    assert sum(x[:2]) == 2
    assert len(kernel) == 2
    for g in kernel:
        assert apply(a, g) == (0,)
    assert kernel == [(-1, 1, 0), (0, 0, 1)]


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
        assert det(a) == cofactor([list(r) for r in a.rows])


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
            t = transpose(m)
            assert t.shape == (m.ncols, m.nrows)
            assert all(t.rows[j][i] == m.rows[i][j]
                       for i in range(m.nrows) for j in range(m.ncols))
            assert transpose(t) == m
            vec = [rng.randint(-5, 5) * 10 ** rng.choice((0, 25)) for _ in range(m.ncols)]
            assert apply(m, vec) == tuple(
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


def fig4_viii_systems(k=16):
    """Every system _solve_viii_data factors while the fig4 ladder is
    built to k, expanded from the sparse rows it hands to factor: the
    largest Smith forms of a stabilization, to 60 x 58 at k = 16, whose
    v the type-VIII lattice search reads."""
    from realbook import stabilization
    from realbook.catalog import catalog_fig4

    systems, inside = [], []
    factor_, solve_viii = stabilization.factor, stabilization._solve_viii_data

    def factoring(rows, ncols):
        if inside:
            systems.append(IntMatrix([expand(row, ncols) for row in rows], ncols=ncols))
        return factor_(rows, ncols)

    def solving_viii(*args):
        inside.append(True)
        try:
            return solve_viii(*args)
        finally:
            inside.pop()

    stabilization.factor, stabilization._solve_viii_data = factoring, solving_viii
    try:
        catalog_fig4(k)
    finally:
        stabilization.factor, stabilization._solve_viii_data = factor_, solve_viii
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
        j, c = as_matrix(ob.page.form), as_matrix(ob.real_structure.matrix)
        yield j
        yield sub(identity(j.nrows), c)
        yield add(transpose(c) @ j, j)


def test_snf_matches_full_scan_pivot_rule():
    rng = random.Random(41)
    for a in snf_oracle_matrices(rng):
        snf = smith_normal_form(a)
        oracle = full_scan_smith_normal_form(a)
        assert (diagonal(snf.diag, *snf.shape), *logged_transforms(snf)) == oracle, a
        assert_cokernel_factors_only_a_unit_free_core(a)


def test_fig4_ladder_reaches_the_largest_viii_systems():
    shapes = [a.shape for a in fig4_viii_systems()]
    assert len(shapes) >= 15 and max(shapes) == (60, 58)


def test_snf_solve_reuses_one_factorization():
    rng = random.Random(43)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n, bound=3)
        snf = factor(as_rows(a), n)
        for _ in range(5):
            x = [rng.randint(-4, 4) for _ in range(n)]
            b = list(apply(a, x))
            sol = snf.solve(b)
            assert sol is not None and apply(a, sol) == tuple(b)
            b[rng.randrange(m)] += rng.randint(1, 3)
            assert snf.solve(b) == factor(as_rows(a), n).solve(b)
    with pytest.raises(ValueError):
        factor(as_rows(identity(2)), 2).solve([1])


def test_smith_form_reads_its_diagonal_once():
    """The diagonal of D is read once, off the working matrix as the
    form is made, and kept with D's shape: solving for many right-hand
    sides, and spanning the kernel, read no matrix's diagonal, and
    IntMatrix offers none to read."""
    a = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    snf = factor(as_rows(a), 3)
    assert not hasattr(IntMatrix, "diag")
    for b in ([2, -6, 10], [1, 0, 0], [4, 0, -4]):
        assert snf.solve(b) == factor(as_rows(a), 3).solve(b)
    assert list(snf.kernel()) == []
    assert (snf.diag, snf.shape) == ((2, 6, 12), (3, 3))


def test_factor_expands_each_row_once_and_the_form_copies_it(monkeypatch):
    """factor hands smith_normal_form the lists it expanded, each row
    built once and wrapped as it is, with the shape the benchmark's
    tracer reads; the form reduces its own copy, so the rows are as
    expanded after it is made, and its result is the form of the
    matrix."""
    from realbook import intalg

    seen = []
    form_of = intalg.smith_normal_form
    monkeypatch.setattr(intalg, "smith_normal_form",
                        lambda m: seen.append((m, [list(r) for r in m.rows])) or form_of(m))
    rng = random.Random(53)
    for _ in range(60):
        m, n = rng.randint(0, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n, bound=3)
        snf = factor(as_rows(a), n)
        (system, before), = seen
        seen.clear()
        assert system.shape == (m, n)
        assert all(type(row) is list for row in system.rows)
        assert [list(r) for r in system.rows] == before == [list(r) for r in a.rows]
        assert snf == form_of(a), a


# ---------------------------------------------------------------------------
# cokernel: unit pivots on sparse rows, then the Smith form of the core


def cokernel_from_divisors(a):
    """The cokernel read off the determinantal divisors: d_k = D_k / D_{k-1}."""
    ds, prev = [], 1
    for dk in determinantal_divisors(a):
        if dk == 0:
            break
        ds.append(dk // prev)
        prev = dk
    return AbelianGroup(a.nrows - len(ds), tuple(d for d in ds if d >= 2))


def cokernel_from_transforms(a):
    """The cokernel read off the dense-transform reference's diagonal."""
    nonzero = [d for d in diag(full_scan_smith_normal_form(a)[0]) if d]
    return AbelianGroup(a.nrows - len(nonzero), tuple(d for d in nonzero if d >= 2))


def assert_cokernel_factors_only_a_unit_free_core(a):
    """cokernel, given the sparse rows of a, factors at most one Smith
    form, of a core with no unit entry and no zero row or column, and
    reads only its diagonal, which is the dense reference's for that
    core: nothing else is derived from the form.  The group is the
    one the dense reference's diagonal of all of a gives.  Returns the
    cores factored."""
    from realbook import intalg

    forms = []
    factor = intalg.smith_normal_form
    intalg.smith_normal_form = lambda m: forms.append((m, factor(m))) or forms[-1][1]
    try:
        group = cokernel(as_rows(a))
    finally:
        intalg.smith_normal_form = factor
    assert len(forms) <= 1, a
    for core, form in forms:
        assert core.nrows and core.ncols, a
        assert all(any(row) for row in core.rows), a
        assert all(any(col) for col in zip(*core.rows)), a
        assert not any(abs(x) == 1 for row in core.rows for x in row), a
        assert diagonal(form.diag, *form.shape) == full_scan_smith_normal_form(core)[0], a
        assert vars(form).keys() <= set(SmithForm._fields), a
    assert group == cokernel_from_transforms(a), a
    return [core for core, _form in forms]


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
        assert_cokernel_factors_only_a_unit_free_core(a)
        assert cokernel(as_rows(a)) == cokernel_from_divisors(a), a
    assert cokernel(as_rows(IntMatrix([], ncols=3))) == AbelianGroup(0)
    assert cokernel(as_rows(IntMatrix([[]] * 3, ncols=0))) == AbelianGroup(3)
    for a in snf_oracle_matrices(rng):
        assert_cokernel_factors_only_a_unit_free_core(a)


def test_cokernel_diagonal_on_every_h1_relation_matrix(monkeypatch):
    """h1_of_manifold's sparse relation rows, as cokernel gets them, on
    every catalog book and golden ladder: the group is the dense Smith
    diagonal's, the unit-free core cokernel factors is at most 2 x 2 and
    its diagonal is the minor-gcd oracle's, and a matrix small enough
    for the oracle gives its group too."""
    from realbook import openbook
    from realbook.catalog import ENTRIES
    from test_golden import ladders

    relations = []
    monkeypatch.setattr(openbook, "cokernel", lambda rows: relations.append(rows) or cokernel(rows))
    books = [e.build() for e in ENTRIES] + [ob for _label, ob in ladders()]
    for ob in books:
        openbook.h1_of_manifold(ob)
    assert len(relations) == len(books)
    for rows in relations:
        a = IntMatrix([expand(row, 1 + max(row[-2] for row in rows if row)) for row in rows])
        assert as_rows(a) == tuple(rows)
        for core in assert_cokernel_factors_only_a_unit_free_core(a):
            assert core.nrows <= 2 and core.ncols <= 2, core
            assert cokernel(as_rows(core)) == cokernel_from_divisors(core), core
        if min(a.shape) <= 4:
            assert cokernel(rows) == cokernel_from_divisors(a), a


def random_sparse_rows(rng, m, n, units=True):
    """m random sparse rows over n columns, about a third of the entries
    nonzero; without units, no entry is +-1.  A row and a column picked
    at random (or none, one time in m + 1 and n + 1) are left zero."""
    values = (1, -1, 2, -3, 4) if units else (2, -2, 3, -4, 6)
    zero_row, zero_col = rng.randrange(m + 1), rng.randrange(n + 1)
    return [[rng.choice(values) if i != zero_row and j != zero_col and rng.random() < 0.35 else 0
             for j in range(n)] for i in range(m)]


def test_cokernel_on_random_sparse_rows():
    """Random sparse matrices with zero rows and zero columns, with and
    without unit entries, and with no rows at all: cokernel, given their
    sparse rows, gives the dense Smith diagonal's group and the minor-gcd
    oracle's, and only a unit-free core reaches smith_normal_form."""
    rng = random.Random(59)
    assert cokernel([]) == AbelianGroup(0)
    assert cokernel(as_rows(IntMatrix([], ncols=4))) == AbelianGroup(0)
    cores = 0
    for trial in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = IntMatrix(random_sparse_rows(rng, m, n, units=trial % 4 != 0), ncols=n)
        cores += len(assert_cokernel_factors_only_a_unit_free_core(a))
        assert cokernel(as_rows(a)) == cokernel_from_divisors(a), a
    for trial in range(60):
        m, n = rng.randint(8, 30), rng.randint(8, 40)
        a = IntMatrix(random_sparse_rows(rng, m, n, units=trial % 3 != 0), ncols=n)
        cores += len(assert_cokernel_factors_only_a_unit_free_core(a))
    assert cores


# ---------------------------------------------------------------------------
# solutions and kernels replayed from the logs, against dense transforms


ROUND_BASES = [("disk",), ("hopf", "conjugation"), ("hopf", "swap"), ("fig4", 1), ("fig4", 2),
               ("fig4", 3), ("fig5", 1), ("fig5", 2), ("fig6", 1), ("fig6", 2),
               ("lens-annulus", 3), ("lens-annulus", 7), ("lens-3punctured", 2, 2, 1)]


def stabilize_round(seed, bases):
    """One round of the stabilize benchmark: the fig4, fig5 and fig6
    ladders from the disk to k = 16, then four walks of six steps from
    each of the built bases (ROUND_BASES), walk w's step i trying the
    sites of the (w + i)-th type first, its sites shuffled by
    random.Random("<seed>/<base>/<index>")."""
    from realbook.catalog import build
    from realbook.openbook import STAB_TYPES, StabilizationError, enumerate_sites, stabilize

    for family in ("fig4", "fig5", "fig6"):
        build(family, 16)
    types = list(STAB_TYPES)
    walks = [(base, i) for base in ROUND_BASES for i in range(4)]
    for w, (base, i) in enumerate(walks):
        rng = random.Random(f"{seed}/{'-'.join(map(str, base))}/{i}")
        ob = bases[base]
        for step in range(6):
            prefer = types[(w + step) % len(types)]
            sites = enumerate_sites(ob)
            rng.shuffle(sites)
            sites.sort(key=lambda s: s[0] != prefer)
            for tag, site in sites:
                try:
                    ob = stabilize(ob, tag, site)
                    break
                except StabilizationError:
                    continue


def round_systems(monkeypatch, seed):
    """Every matrix one stabilize round factors, with its form, every
    (matrix, b, solution) a form solves, and every (matrix, kernel
    basis) a form spans."""
    from realbook import intalg
    from realbook.catalog import build

    bases = {base: build(*base) for base in ROUND_BASES}
    factored, solved, kernels = [], [], []
    matrix_of = {}
    factor_, solve, kernel = smith_normal_form, SmithForm.solve, SmithForm.kernel

    def factoring(a):
        snf = factor_(a)
        factored.append((a, snf))
        matrix_of[id(snf)] = a
        return snf

    def solving(snf, b):
        x = solve(snf, b)
        solved.append((matrix_of[id(snf)], list(b), x))
        return x

    def spanning(snf):
        basis = list(kernel(snf))
        kernels.append((matrix_of[id(snf)], basis))
        return iter(basis)

    monkeypatch.setattr(intalg, "smith_normal_form", factoring)
    monkeypatch.setattr(SmithForm, "solve", solving)
    monkeypatch.setattr(SmithForm, "kernel", spanning)
    stabilize_round(seed, bases)
    monkeypatch.undo()
    return factored, solved, kernels


def test_logged_transforms_solve_as_the_dense_ones_on_a_stabilize_round(monkeypatch):
    """All 579 systems of a seed-13 round, each handed to factor as
    sparse rows: each form's d, and its u and v rebuilt from the logs,
    are the dense reference's; every form is solved; and each solution
    and kernel basis replayed from the logs is the integer vector the
    dense transforms give."""
    factored, solved, kernels = round_systems(monkeypatch, 13)
    assert len(factored) == 579
    assert {id(a) for a, _snf in factored} == {id(a) for a, _b, _x in solved}
    assert kernels
    for a, snf in factored:
        assert ((diagonal(snf.diag, *snf.shape), *logged_transforms(snf))
                == full_scan_smith_normal_form(a)), a
    for a, b, x in solved:
        assert x == dense_solve(a, b)[0], (a, b)
    for a, basis in kernels:
        assert basis == dense_solve(a, [0] * a.nrows)[1], a


def test_logged_transforms_solve_as_the_dense_ones_on_random_systems():
    rng = random.Random(53)
    for a in snf_oracle_matrices(rng):
        snf = factor(as_rows(a), a.ncols)
        assert diagonal(snf.diag, *snf.shape) == full_scan_smith_normal_form(a)[0], a
        for _ in range(3):
            x = [rng.randint(-3, 3) for _ in range(a.ncols)]
            for b in (list(apply(a, x)), [rng.randint(-3, 3) for _ in range(a.nrows)]):
                want, kernel = dense_solve(a, b)
                assert snf.solve(b) == want, (a, b)
                assert list(snf.kernel()) == kernel, (a, b)
