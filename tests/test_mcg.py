import random
from realbook.records import replace

import pytest

from realbook.catalog import ENTRIES, catalog_fig4, catalog_fig5, catalog_fig6
from realbook.intalg import IntMatrix
from realbook.mcg import (
    concat,
    conjugate,
    invert,
    times_word,
    transport_arc,
    transport_arcs,
    word,
    word_matrix,
    word_times,
    words_equal,
)
from realbook.openbook import StabilizationError, enumerate_sites, stabilize
from realbook.surface import entries, standard_involution, standard_surface
from oracles import twist_matrix


@pytest.fixture
def annulus():
    return standard_surface(0, 2)


@pytest.fixture
def torus():
    return standard_surface(1, 1)


def test_core_twist_trivial_on_annulus(annulus):
    assert twist_matrix(annulus, "d1", 5) == IntMatrix.identity(1)


def test_transvection_on_torus(torus):
    assert twist_matrix(torus, "a1", 1) == IntMatrix([[1, -1], [0, 1]])


def test_zero_exponent(torus):
    assert twist_matrix(torus, "b1", 0) == IntMatrix.identity(2)


def test_unknown_curve(torus):
    with pytest.raises(KeyError):
        twist_matrix(torus, "zz", 1)


def test_word_matrix_empty(torus):
    assert word_matrix(torus, ()) == IntMatrix.identity(2)


def test_word_matrix_square(torus):
    assert word_matrix(torus, word([("a1", 1), ("a1", 1)])) == IntMatrix([[1, -2], [0, 1]])


def test_invert_small():
    assert invert(word([("a", 1)])) == (("a", -1),)
    assert invert(word([("a", 2), ("b", -1)])) == (("b", 1), ("a", -2))
    w = word([("a", 2), ("b", -1), ("a", 1)])
    assert invert(invert(w)) == w


def test_free_reduction():
    assert word([("a", 1), ("a", -1)]) == ()
    assert word([("a", 1), ("a", 2), ("b", 0)]) == (("a", 3),)


def test_twists_are_symplectic():
    rng = random.Random(5)
    for g, b in [(1, 1), (2, 3), (1, 2)]:
        m = standard_surface(g, b)
        names = list(m.alphabet)
        j = m.form
        for _ in range(40):
            w = word([(rng.choice(names), rng.randint(-2, 2)) for _ in range(6)])
            f = word_matrix(m, w)
            assert f.transpose() @ j @ f == j
            assert word_matrix(m, invert(w)) @ f == IntMatrix.identity(m.h1_rank)


def test_conjugation_annulus(annulus):
    inv = standard_involution(annulus, "annulus-reflection")
    for n in range(-4, 5):
        if n == 0:
            continue
        assert conjugate(inv.curve_image, word([("d1", n)])) == (("d1", -n),)
    assert conjugate(inv.curve_image, ()) == ()


def test_conjugation_unavailable_is_none(torus):
    inv_data = standard_involution(standard_surface(0, 2), "annulus-reflection")
    # no image declared for the torus curves under this partial map
    assert conjugate(inv_data.curve_image, word([("a1", 1)])) is None


def test_conjugation_matrix_identity():
    rng = random.Random(6)
    m = standard_surface(0, 3)
    inv = standard_involution(m, "planar-reflection")
    names = list(m.alphabet)
    c = inv.matrix
    for _ in range(30):
        w = word([(rng.choice(names), rng.randint(-2, 2)) for _ in range(4)])
        cw = conjugate(inv.curve_image, w)
        assert cw is not None
        assert word_matrix(m, cw) == c @ word_matrix(m, w) @ c


def test_transport_empty_word(annulus):
    row = annulus.ref_arcs[2]
    assert transport_arc(annulus, (), row) == ((0,), row)


def test_transport_annulus_single_transvection(annulus):
    # a spanning arc crossing the core once picks up n copies of the core
    for n in range(1, 6):
        cls, _row = transport_arc(annulus, word([("d1", n)]), (1,))
        assert cls == (n,)


def test_transport_group_action():
    """Transport through w1 then w2 is transport through w1 w2: the
    defects add, the second one taken from the row w1 left."""
    rng = random.Random(7)
    m = standard_surface(2, 2)
    names = list(m.alphabet)
    for _ in range(30):
        w1 = word([(rng.choice(names), rng.randint(-2, 2)) for _ in range(3)])
        w2 = word([(rng.choice(names), rng.randint(-2, 2)) for _ in range(3)])
        cls1, row1 = transport_arc(m, w1, m.ref_arcs[2])
        cls2, row2 = transport_arc(m, w2, row1)
        assert (tuple(x + y for x, y in zip(cls1, cls2)), row2) == \
            transport_arc(m, concat(w1, w2), m.ref_arcs[2])


def test_transport_then_inverse_returns_to_zero():
    rng = random.Random(8)
    m = standard_surface(1, 3)
    names = list(m.alphabet)
    for _ in range(30):
        w = word([(rng.choice(names), rng.randint(-2, 2)) for _ in range(4)])
        row = m.ref_arcs[2]
        cls, moved = transport_arc(m, w, row)
        back_cls, back = transport_arc(m, invert(w), moved)
        assert tuple(x + y for x, y in zip(cls, back_cls)) == (0,) * m.h1_rank
        assert back == row


def test_words_equal_disjoint_commutation():
    m = standard_surface(0, 3)
    assert words_equal(m, word([("d1", 1), ("d2", 1)]), word([("d2", 1), ("d1", 1)]))
    t = standard_surface(1, 1)
    assert not words_equal(t, word([("a1", 1), ("b1", 1)]), word([("b1", 1), ("a1", 1)]))


# -- rank-one kernels against dense references ------------------------------


def dense_word_matrix(model, w):
    """The word as a product of dense twist matrices, one per letter."""
    m = IntMatrix.identity(model.h1_rank)
    for name, exp in w:
        m = twist_matrix(model, name, exp) @ m
    return m


def reference_transport(model, w, row):
    """transport_arc with <a, x> taken from the dense J^T for every letter."""
    cls = (0,) * model.h1_rank
    for name, exp in w:
        a = model.curve(name)
        cross = sum(x * y for x, y in zip(row, a))
        a_row = model.form.transpose().apply(a)
        cls = tuple(x + exp * cross * y for x, y in zip(cls, a))
        row = tuple(x + exp * cross * y for x, y in zip(row, a_row))
    return cls, row


def assert_kernels_match(model, w, left, right):
    """word_matrix, W @ left and right @ W against the dense product."""
    dense = dense_word_matrix(model, w)
    assert word_matrix(model, w) == dense
    assert word_times(model, w, left) == dense @ left
    assert times_word(right, model, w) == right @ dense


@pytest.fixture(scope="module")
def catalog_books():
    books = [(e.name, e.build()) for e in ENTRIES]
    for family, build in (("fig4", catalog_fig4), ("fig5", catalog_fig5),
                          ("fig6", catalog_fig6)):
        books += [(f"{family}-{k}", build(k)) for k in range(1, 9)]
    return books


def test_kernels_match_dense_oracle_on_catalog(catalog_books):
    for name, ob in catalog_books:
        page, c = ob.page, ob.real_structure.matrix
        words = [ob.monodromy, invert(ob.monodromy)] + [invert(r.sigma) for r in ob.provenance]
        for w in words:
            assert_kernels_match(page, w, c, c)
        for cid, row in page.ref_arcs.items():
            assert transport_arc(page, ob.monodromy, row) == \
                reference_transport(page, ob.monodromy, row), (name, cid)


def test_kernels_match_dense_oracle_on_random_words(catalog_books):
    rng = random.Random(11)
    models = [standard_surface(g, b) for g, b in [(0, 2), (1, 1), (1, 3), (2, 2)]]
    models += [ob.page for name, ob in catalog_books if name in ("fig5-4", "fig6-3", "fig4-5")]
    exponents = [-3, -2, -1, 1, 2, 3]
    for model in models:
        names = sorted(model.alphabet)
        n = model.h1_rank
        for _ in range(12):
            w = tuple((rng.choice(names), rng.choice(exponents))
                      for _ in range(rng.randint(1, 12)))
            left = IntMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(n)],
                             ncols=3)
            right = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)],
                              ncols=n)
            assert_kernels_match(model, w, left, right)
            rows = [random_row(rng, n) for _ in range(4)]
            assert transport_arc(model, w, rows[0]) == reference_transport(model, w, rows[0])
            assert_transport_matches(model, w, rows)


def random_row(rng, n):
    """A random pairing row."""
    return tuple(rng.randint(-2, 2) for _ in range(n))


def assert_transport_matches(model, w, rows):
    """transport_arcs on a batch against the per-arc, per-letter oracle."""
    assert transport_arcs(model, w, rows) == [reference_transport(model, w, row) for row in rows]


def walk_books(seed, count, steps):
    """Books reached by seeded walks of stabilizations from catalog entries."""
    rng = random.Random(seed)
    for _ in range(count):
        ob = ENTRIES[rng.randrange(len(ENTRIES))].build()
        for _step in range(steps):
            sites = enumerate_sites(ob)
            rng.shuffle(sites)
            for tag, site in sites:
                try:
                    ob = stabilize(ob, tag, site)
                except StabilizationError:
                    continue
                yield ob
                break


def test_transport_arcs_matches_oracle_on_catalog_ladders_and_walks():
    books = [e.build() for e in ENTRIES]
    for build in (catalog_fig4, catalog_fig5, catalog_fig6):
        books += [build(k) for k in range(1, 11)]
    books += list(walk_books(seed=5, count=12, steps=4))
    rng = random.Random(3)
    for ob in books:
        page = ob.page
        rows = [row for _cid, row in sorted(page.ref_arcs.items())]
        words = [ob.monodromy, invert(ob.monodromy)] + [r.sigma for r in ob.provenance]
        for w in words:
            assert_transport_matches(page, w, rows)
        if page.h1_rank:
            assert_transport_matches(page, ob.monodromy,
                                     rows + [random_row(rng, page.h1_rank) for _ in range(3)])


def test_transport_arcs_rejects_arcs_of_the_wrong_length():
    m = standard_surface(1, 2)
    good = m.ref_arcs[2]
    w = word([("a1", 1), ("d1", 2)])
    for bad in (good[:-1], good + (0,)):
        with pytest.raises(ValueError, match=f"pairing row 1 has length {len(bad)}, not the rank 3"):
            transport_arcs(m, w, [good, bad])


def test_curve_vectors_cached_per_page_outside_the_fields():
    m = standard_surface(2, 3)
    text = repr(m)

    def dense(v):
        pairs = dict(entries(v))
        assert len(pairs) == len(v) // 2 and all(pairs.values())
        return tuple(pairs.get(i, 0) for i in range(m.h1_rank))

    for name in m.alphabet:
        a = m.curve(name)
        vecs = m.curve_vectors(name)
        assert vecs.a and dense(vecs.a) == a
        assert dense(vecs.ja) == m.form.apply(a)
        assert dense(vecs.jta) == m.form.transpose().apply(a)
        assert m.curve_vectors(name) is vecs
    assert repr(m) == text and m == standard_surface(2, 3)
    copy = replace(m, disjoint=frozenset())
    assert "_curve_vectors" in vars(m) and "_curve_vectors" not in vars(copy)
    assert dense(copy.curve_vectors("a1").ja) == dense(m.curve_vectors("a1").ja)
    assert copy._curve_vectors.keys() == {"a1"}


def test_curve_vectors_equal_dense_products_on_golden_pages():
    """J a is derived as -J^T a, which needs an antisymmetric form: on
    every golden page, ja and jta of every curve equal the dense J a and
    J^T a, with no stored zeros."""
    from test_golden import golden_books

    pages = 0
    for label, ob in golden_books():
        page = ob.page
        jt = page.form.transpose()
        for name, cls in page.alphabet.items():
            vecs = page.curve_vectors(name)
            for sparse, want in ((vecs.ja, page.form.apply(cls)),
                                 (vecs.jta, jt.apply(cls))):
                pairs = dict(entries(sparse))
                assert len(pairs) == len(sparse) // 2 and all(pairs.values()), (label, name)
                assert tuple(pairs.get(i, 0) for i in range(page.h1_rank)) == want, (label, name)
        pages += 1
    assert pages == 283
