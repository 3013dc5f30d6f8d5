import random
from functools import partial
from itertools import combinations
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
    words_equal,
)
from realbook.openbook import StabilizationError, enumerate_sites, stabilize
from realbook.catalog import standard_involution, standard_surface
from realbook.surface import SurfaceModel, entries, sparse
from oracles import (
    apply,
    as_matrix,
    as_rows,
    curves_disjoint,
    dense_class,
    expand,
    identity,
    transpose,
    twist_matrix,
    words_equal_by_moves,
)


def arc_row(model, cid):
    """The stored sparse pairing row of the reference arc to boundary
    cid, which transport_arcs takes as it is."""
    return model.ref_arcs[cid]


@pytest.fixture
def annulus():
    return standard_surface(0, 2)


@pytest.fixture
def torus():
    return standard_surface(1, 1)


def test_core_twist_trivial_on_annulus(annulus):
    assert twist_matrix(annulus, "d1", 5) == identity(1)


def test_transvection_on_torus(torus):
    assert twist_matrix(torus, "a1", 1) == IntMatrix([[1, -1], [0, 1]])


def test_zero_exponent(torus):
    assert twist_matrix(torus, "b1", 0) == identity(2)


def test_unknown_curve(torus):
    with pytest.raises(KeyError):
        twist_matrix(torus, "zz", 1)


def test_word_matrix_empty(torus):
    assert word_matrix(torus, ()) == as_rows(identity(2))


def test_word_matrix_square(torus):
    assert word_matrix(torus, word([("a1", 1), ("a1", 1)])) == as_rows(IntMatrix([[1, -2], [0, 1]]))


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
        j = as_matrix(m.form)
        for _ in range(40):
            w = word([(rng.choice(names), rng.randint(-2, 2)) for _ in range(6)])
            f = as_matrix(word_matrix(m, w))
            assert transpose(f) @ j @ f == j
            assert as_matrix(word_matrix(m, invert(w))) @ f == identity(m.h1_rank)


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
    c = as_matrix(inv.matrix)
    for _ in range(30):
        w = word([(rng.choice(names), rng.randint(-2, 2)) for _ in range(4)])
        cw = conjugate(inv.curve_image, w)
        assert cw is not None
        assert as_matrix(word_matrix(m, cw)) == c @ as_matrix(word_matrix(m, w)) @ c


def test_transport_empty_word(annulus):
    row = arc_row(annulus, 2)
    assert transport_arc(annulus, (), row) == ((0,), tuple(expand(row, 1)))


def test_transport_annulus_single_transvection(annulus):
    # a spanning arc crossing the core once picks up n copies of the core
    for n in range(1, 6):
        cls, _row = transport_arc(annulus, word([("d1", n)]), (0, 1))
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
        cls1, row1 = transport_arc(m, w1, arc_row(m, 2))
        cls2, row2 = transport_arc(m, w2, sparse(row1))
        assert (tuple(x + y for x, y in zip(cls1, cls2)), row2) == \
            transport_arc(m, concat(w1, w2), arc_row(m, 2))


def test_transport_then_inverse_returns_to_zero():
    rng = random.Random(8)
    m = standard_surface(1, 3)
    names = list(m.alphabet)
    for _ in range(30):
        w = word([(rng.choice(names), rng.randint(-2, 2)) for _ in range(4)])
        row = arc_row(m, 2)
        cls, moved = transport_arc(m, w, row)
        back_cls, back = transport_arc(m, invert(w), sparse(moved))
        assert tuple(x + y for x, y in zip(cls, back_cls)) == (0,) * m.h1_rank
        assert back == tuple(expand(row, m.h1_rank))


def test_words_equal_disjoint_commutation():
    m = standard_surface(0, 3)
    assert words_equal(m, word([("d1", 1), ("d2", 1)]), word([("d2", 1), ("d1", 1)]))
    t = standard_surface(1, 1)
    assert not words_equal(t, word([("a1", 1), ("b1", 1)]), word([("b1", 1), ("a1", 1)]))


def graph_page(names, commuting):
    """A hand-built page whose only disjoint pairs are the root pairs
    commuting, for word equality alone: one basis class per curve, a
    zero form and one boundary circle.  It is no valid page, and
    words_equal reads nothing of it but the commutation graph."""
    return SurfaceModel(circles={1: ()}, basis=tuple(names), form=tuple(() for _ in names),
                        alphabet={name: (i, 1) for i, name in enumerate(names)},
                        ref_arcs={}, disjoint=frozenset(commuting))


def random_letters(rng, names, count):
    return [(rng.choice(names), rng.choice((-2, -1, 1, 2))) for _ in range(count)]


def equal_variant(rng, w, commutes, steps, longest=6):
    """w after random moves that keep its element in the graph group:
    a swap of adjacent letters whose curves commute, a split of one
    letter into two, or a cancelling pair put in, words kept to at most
    longest letters."""
    w = list(w)
    for _ in range(steps):
        move = rng.randrange(3)
        if move == 0 and len(w) > 1:
            i = rng.randrange(len(w) - 1)
            if commutes(w[i][0], w[i + 1][0]):
                w[i], w[i + 1] = w[i + 1], w[i]
        elif move == 1 and w and len(w) < longest:
            i = rng.randrange(len(w))
            name, exp = w[i]
            part = rng.choice([e for e in (-2, -1, 1, 2) if e != exp and abs(exp - e) <= 2])
            w[i:i + 1] = [(name, part), (name, exp - part)]
        elif move == 2 and len(w) + 2 <= longest:
            i = rng.randrange(len(w) + 1)
            name, exp = rng.choice(sorted({n for n, _e in w} or {"a"})), rng.choice((1, 2))
            w[i:i] = [(name, exp), (name, -exp)]
    return w


def test_words_equal_agrees_with_the_move_closure():
    """words_equal decides the graph group's word problem: on small
    random commutation graphs it agrees with the exhaustive closure of
    short words (up to 6 letters, exponents +-1 and +-2) under swaps of
    commuting letters, merges and dropped zero exponents, on pairs
    built equal by such moves, on near misses and on random pairs."""
    rng = random.Random(36)
    seen = {True: 0, False: 0}
    for trial in range(1500):
        names = ["a", "b", "c", "d"][:rng.randint(2, 4)]
        commuting = {frozenset(p) for p in combinations(names, 2) if rng.random() < 0.5}
        page = graph_page(names, commuting)
        w1 = random_letters(rng, names, rng.randint(0, 5))
        kind = trial % 3
        if kind == 0:
            w2 = equal_variant(rng, w1, lambda x, y: frozenset((x, y)) in commuting, 6)
        elif kind == 1 and len(w1) > 1:
            # one swap of adjacent letters, whether or not they commute
            w2 = list(w1)
            i = rng.randrange(len(w1) - 1)
            w2[i], w2[i + 1] = w2[i + 1], w2[i]
        else:
            w2 = random_letters(rng, names, rng.randint(0, 5))
        want = words_equal_by_moves(commuting, w1, w2)
        assert words_equal(page, w1, w2) == want, (sorted(map(sorted, commuting)), w1, w2)
        assert words_equal(page, w2, w1) == want
        seen[want] += 1
    assert min(seen.values()) > 500, seen


def test_words_equal_moves_a_commuting_letter_past_a_meeting_pair():
    """c d a b against b c d a, with b and c commuting with every other
    curve and a, d meeting: b moves to the front past the pair no
    adjacent swap in sorted order could pass."""
    names = ["a", "b", "c", "d"]
    page = graph_page(names, {frozenset(p) for p in combinations(names, 2)} - {frozenset("ad")})
    w1 = [("c", 1), ("d", 1), ("a", 1), ("b", 1)]
    w2 = [("b", 1), ("c", 1), ("d", 1), ("a", 1)]
    assert words_equal(page, w1, w2)
    assert not words_equal(page, w1, [("b", 1), ("c", 1), ("a", 1), ("d", 1)])


def test_equal_piles_give_equal_word_matrices():
    """Words that words_equal calls equal act alike on H1: on real pages,
    whose disjoint pairs have <a, b> = 0, random words against variants
    built by moves of the graph group, and every certified pair of the
    reality check on the golden books."""
    from test_golden import golden_books

    from realbook.openbook import Reality, check_reality

    rng = random.Random(7)
    for ob in (catalog_fig4(2), catalog_fig5(3), catalog_fig6(2)):
        page = ob.page
        names = sorted(page.alphabet)
        for _ in range(60):
            w1 = random_letters(rng, names, rng.randint(1, 6))
            w2 = equal_variant(rng, w1, partial(curves_disjoint, page), 8, longest=10)
            assert words_equal(page, w1, w2), (w1, w2)
            assert word_matrix(page, w1) == word_matrix(page, w2), (w1, w2)
    certified = 0
    for label, ob in golden_books():
        cw = conjugate(ob.real_structure.curve_image, ob.monodromy)
        if cw is not None and words_equal(ob.page, cw, invert(ob.monodromy)):
            assert check_reality(ob).kind is Reality.CERTIFIED_REAL, label
            assert word_matrix(ob.page, cw) == word_matrix(ob.page, invert(ob.monodromy)), label
            certified += 1
    assert certified >= 60, certified


# -- rank-one kernels against dense references ------------------------------


def dense_word_matrix(model, w):
    """The word as a product of dense twist matrices, one per letter."""
    m = identity(model.h1_rank)
    for name, exp in w:
        m = twist_matrix(model, name, exp) @ m
    return m


def reference_transport(model, w, row):
    """transport_arc with <a, x> taken from the dense J^T for every
    letter, on the expanded row."""
    cls = (0,) * model.h1_rank
    row = tuple(expand(row, model.h1_rank))
    for name, exp in w:
        a = dense_class(model, name)
        cross = sum(x * y for x, y in zip(row, a))
        a_row = apply(transpose(as_matrix(model.form)), a)
        cls = tuple(x + exp * cross * y for x, y in zip(cls, a))
        row = tuple(x + exp * cross * y for x, y in zip(row, a_row))
    return cls, row


def assert_kernels_match(model, w, right):
    """word_matrix and right @ W against the dense product; both take
    and return sparse rows."""
    dense = dense_word_matrix(model, w)
    assert word_matrix(model, w) == as_rows(dense)
    n = model.h1_rank
    rows = times_word(as_rows(right), model, w)
    assert IntMatrix([expand(r, n) for r in rows], ncols=n) == right @ dense


@pytest.fixture(scope="module")
def catalog_books():
    books = [(e.name, e.build()) for e in ENTRIES]
    for family, build in (("fig4", catalog_fig4), ("fig5", catalog_fig5),
                          ("fig6", catalog_fig6)):
        books += [(f"{family}-{k}", build(k)) for k in range(1, 9)]
    return books


def test_kernels_match_dense_oracle_on_catalog(catalog_books):
    for name, ob in catalog_books:
        page, c = ob.page, as_matrix(ob.real_structure.matrix)
        words = [ob.monodromy, invert(ob.monodromy)] + [invert(r.sigma) for r in ob.provenance]
        for w in words:
            assert_kernels_match(page, w, c)
        for cid in page.ref_arcs:
            row = arc_row(page, cid)
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
            right = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)],
                              ncols=n)
            assert_kernels_match(model, w, right)
            rows = [random_row(rng, n) for _ in range(4)]
            assert transport_arc(model, w, rows[0]) == reference_transport(model, w, rows[0])
            assert_transport_matches(model, w, rows)


def random_row(rng, n):
    """A random sparse pairing row."""
    return sparse(rng.randint(-2, 2) for _ in range(n))


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
        rows = [arc_row(page, cid) for cid in sorted(page.ref_arcs)]
        words = [ob.monodromy, invert(ob.monodromy)] + [r.sigma for r in ob.provenance]
        for w in words:
            assert_transport_matches(page, w, rows)
        if page.h1_rank:
            assert_transport_matches(page, ob.monodromy,
                                     rows + [random_row(rng, page.h1_rank) for _ in range(3)])


def test_transport_arcs_rejects_arcs_of_the_wrong_length():
    """A sparse row with an entry at or past the rank names a class the
    page does not have."""
    m = standard_surface(1, 2)
    good = arc_row(m, 2)
    w = word([("a1", 1), ("d1", 2)])
    assert good and good[-2] < 3
    for past in (3, 7):
        bad = good + (past, 1)
        with pytest.raises(ValueError, match=f"pairing row 1 has entry {past}, past the rank 3"):
            transport_arcs(m, w, [good, bad])


def test_curve_vectors_cached_per_page_outside_the_fields():
    m = standard_surface(2, 3)
    text = repr(m)

    def expand(v):
        pairs = dict(entries(v))
        assert len(pairs) == len(v) // 2 and all(pairs.values())
        return tuple(pairs.get(i, 0) for i in range(m.h1_rank))

    j = as_matrix(m.form)

    for name in m.alphabet:
        a = dense_class(m, name)
        vecs = m.curve_vectors(name)
        assert vecs.a and vecs.a is m.curve(name) and expand(vecs.a) == tuple(a)
        assert expand(vecs.ja) == apply(j, a)
        assert expand(vecs.jta) == apply(transpose(j), a)
        assert m.curve_vectors(name) is vecs
    assert repr(m) == text and m == standard_surface(2, 3)
    copy = replace(m, disjoint=frozenset())
    assert "_curve_vectors" in vars(m) and "_curve_vectors" not in vars(copy)
    assert expand(copy.curve_vectors("a1").ja) == expand(m.curve_vectors("a1").ja)
    assert copy._curve_vectors.keys() == {"a1"}


def test_curve_vectors_equal_dense_products_on_golden_pages():
    """J a is derived as -J^T a, which needs an antisymmetric form: on
    every golden page, ja and jta of every curve equal the dense J a and
    J^T a, with no stored zeros."""
    from test_golden import golden_books

    pages = 0
    for label, ob in golden_books():
        page = ob.page
        j = as_matrix(page.form)
        jt = transpose(j)
        for name in page.alphabet:
            cls = dense_class(page, name)
            vecs = page.curve_vectors(name)
            for sparse, want in ((vecs.ja, apply(j, cls)),
                                 (vecs.jta, apply(jt, cls))):
                pairs = dict(entries(sparse))
                assert len(pairs) == len(sparse) // 2 and all(pairs.values()), (label, name)
                assert tuple(pairs.get(i, 0) for i in range(page.h1_rank)) == want, (label, name)
        pages += 1
    assert pages == 283
