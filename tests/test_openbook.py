import random
from dataclasses import replace

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
from realbook.intalg import AbelianGroup, IntMatrix
from realbook.jsonio import dumps, loads
from realbook.mcg import word
from realbook.openbook import (
    OpenBook,
    Reality,
    STAB_TYPES,
    StabilizationError,
    check_reality,
    enumerate_sites,
    h1_of_manifold,
    stabilize,
)
from realbook.surface import (
    FixArc,
    FixedSet,
    Involution,
    standard_involution,
    standard_surface,
    validate_involution,
)


def not_real_example() -> OpenBook:
    """A homology witness: on the once-punctured torus the hyperelliptic-
    style flip C = antidiag(1,1) fails C F C = F^-1 for a single twist."""
    page = standard_surface(1, 1)
    inv = Involution(
        matrix=IntMatrix([[0, 1], [1, 0]]),
        boundary_perm={1: 1},
        fixed_points={1: (1, 2)},
        fixed_set=FixedSet(arcs=(FixArc(ends=((1, 1), (1, 2)), pair_curves=(0, 0)),)),
        curve_image={},
    )
    assert all(r.ok for r in validate_involution(page, inv))
    return OpenBook(page=page, monodromy=word([("a1", 1)]), real_structure=inv)


def test_annulus_power_certified():
    for n in range(1, 6):
        assert check_reality(catalog_lens_annulus(n)).kind is Reality.CERTIFIED_REAL


def test_empty_word_certified():
    assert check_reality(catalog_s3_disk()).kind is Reality.CERTIFIED_REAL


def test_not_real_with_witness():
    status = check_reality(not_real_example())
    assert status.kind is Reality.NOT_REAL
    wit = status.witness
    assert wit["cfc"] != wit["f_inverse"]


def test_stabilize_refuses_not_real():
    with pytest.raises(StabilizationError):
        stabilize(not_real_example(), "III", {"boundary": 1})


def test_reality_memo_stays_with_its_book():
    ob = catalog_fig4(2)
    text, rep = dumps(ob), repr(ob)
    assert check_reality(ob).kind is Reality.CERTIFIED_REAL
    h1_of_manifold(ob)
    assert dumps(ob) == text and repr(ob) == rep and loads(text) == ob
    tampered = replace(ob, monodromy=ob.monodromy[1:])
    assert check_reality(tampered).kind is Reality.NOT_REAL
    with pytest.raises(StabilizationError):
        stabilize(tampered, "III", {"boundary": 1})
    assert check_reality(ob).kind is Reality.CERTIFIED_REAL


def test_disk_type_I_gives_annulus_book():
    ob = stabilize(catalog_s3_disk(), "I", {"boundary": 1})
    assert ob.page.genus == 0
    assert ob.binding_count == 2
    assert ob.monodromy == (("s1", 1),)
    assert check_reality(ob).kind is Reality.CERTIFIED_REAL
    assert h1_of_manifold(ob).is_trivial


def test_type_VIII_genus_up_h1_fixed():
    ob = catalog_fig4(1)
    before = h1_of_manifold(ob)
    after = stabilize(ob, "VIII", {"boundaries": (1, 2)})
    assert after.page.genus == ob.page.genus + 1
    assert after.binding_count == ob.binding_count
    assert h1_of_manifold(after) == before


def test_h1_disk_annulus_oracles():
    assert h1_of_manifold(catalog_s3_disk()).is_trivial
    for n in range(1, 11):
        got = h1_of_manifold(catalog_lens_annulus(n))
        want = AbelianGroup(0, (n,)) if n > 1 else AbelianGroup(0)
        assert got == want


def test_h1_fig_families_trivial():
    for k in range(1, 5):
        assert h1_of_manifold(catalog_fig4(k)).is_trivial
        assert h1_of_manifold(catalog_fig5(k)).is_trivial
        assert h1_of_manifold(catalog_fig6(k)).is_trivial


def test_binding_count_and_euler():
    disk = catalog_s3_disk()
    assert (disk.binding_count, disk.page_euler) == (1, 1)
    ann = catalog_hopf("conjugation")
    assert (ann.binding_count, ann.page_euler) == (2, 0)
    after = stabilize(disk, "I", {"boundary": 1})
    assert (after.binding_count, after.page_euler) == (2, 0)


def test_every_type_reachable_and_consistent():
    """Each of the nine types admits a valid site somewhere in the catalog,
    and every valid stabilization preserves all declared invariants."""
    seen = set()
    for e in ENTRIES:
        ob = e.build()
        h0 = h1_of_manifold(ob)
        for tag, site in enumerate_sites(ob):
            try:
                out = stabilize(ob, tag, site)
            except StabilizationError:
                continue
            seen.add(tag)
            st = STAB_TYPES[tag]
            assert out.page_euler == ob.page_euler - st.handle_count
            assert out.binding_count == ob.binding_count + st.boundary_delta
            assert out.page.genus == ob.page.genus + st.genus_delta
            assert h1_of_manifold(out) == h0
            assert check_reality(out).kind is not Reality.NOT_REAL
            assert all(r.ok for r in validate_involution(out.page, out.real_structure))
    assert seen == set(STAB_TYPES)


def test_random_sequences_preserve_everything():
    rng = random.Random(99)
    for _ in range(60):
        e = ENTRIES[rng.randrange(len(ENTRIES))]
        ob = e.build()
        h0 = h1_of_manifold(ob)
        for _ in range(rng.randint(1, 5)):
            sites = enumerate_sites(ob)
            rng.shuffle(sites)
            for tag, site in sites:
                try:
                    ob = stabilize(ob, tag, site)
                    break
                except StabilizationError:
                    continue
        assert h1_of_manifold(ob) == h0
        assert check_reality(ob).kind is not Reality.NOT_REAL
        c = ob.real_structure.matrix
        j = ob.page.form
        assert c @ c == IntMatrix.identity(ob.page.h1_rank)
        assert c.transpose() @ j @ c == -j
        assert ob.real_structure.fixed_set.arc_count == 1 - c.trace()


def test_reality_preserved_on_every_stabilization_word_level():
    # stabilization outputs built from certified books stay certified
    ob = catalog_s3_disk()
    for tag, site in [("I", {"boundary": 1})]:
        out = stabilize(ob, tag, site)
        assert check_reality(out).kind is Reality.CERTIFIED_REAL
    ob = catalog_fig5(2)
    out = stabilize(ob, "III", {"boundary": 1})
    assert check_reality(out).kind is Reality.CERTIFIED_REAL


def test_rotation_annulus_only_homologically_real():
    """The core-fixing rotation makes any core power real, but its curve
    images land on the other boundary curve, so the word certificate is
    unavailable and the homology level must carry it."""
    page = standard_surface(0, 2)
    inv = standard_involution(page, "annulus-rotation")
    ob = OpenBook(page=page, monodromy=word([("d1", 3)]), real_structure=inv,
                  fix_plus=None)
    assert check_reality(ob).kind is Reality.HOMOLOGICALLY_REAL


def provenance_mutants(ob):
    """(what, book) for each single change of one recorded image in the
    book's JSON: its sign flipped, or its curve replaced by another."""
    import json

    good = json.loads(dumps(ob))
    names = sorted(ob.page.alphabet)
    for i, rec in enumerate(good["provenance"]):
        for name, (img, sign) in sorted(rec["images"].items()):
            other = next(n for n in names if n != img)
            for what, image in (("sign", [img, -sign]), ("curve", [other, sign])):
                bad = json.loads(json.dumps(good))
                bad["provenance"][i]["images"][name] = image
                yield f"block {i} {name} {what}", loads(json.dumps(bad))


@pytest.mark.parametrize("make, by_chain", [(lambda: catalog_fig4(5), True),
                                            (lambda: catalog_fig6(4), False)],
                         ids=["fig4-5", "fig6-4"])
def test_provenance_certificate_rejects_a_changed_image(make, by_chain):
    from realbook.openbook import _provenance_certificate

    ob = make()
    assert _provenance_certificate(ob)
    # fig6 4 certifies letterwise before the chain is tried
    assert (check_reality(ob).witness == "stabilization chain") == by_chain
    mutants = list(provenance_mutants(ob))
    assert len(mutants) >= 16
    for what, bad in mutants:
        assert not _provenance_certificate(bad), what
        assert check_reality(bad).witness != "stabilization chain", what


def test_certified_implies_homologically_real():
    # stripping the word-level data from a certified book must never
    # produce NotReal: the homology identities are consequences
    for e in ENTRIES:
        ob = e.build()
        stripped = OpenBook(
            page=ob.page,
            monodromy=ob.monodromy,
            real_structure=Involution(
                matrix=ob.real_structure.matrix,
                boundary_perm=ob.real_structure.boundary_perm,
                fixed_points=ob.real_structure.fixed_points,
                fixed_set=ob.real_structure.fixed_set,
                curve_image={},
            ),
            fix_plus=ob.fix_plus,
            provenance=(),
        )
        status = check_reality(stripped).kind
        if ob.monodromy:
            assert status is Reality.HOMOLOGICALLY_REAL, e.name
        else:
            assert status is Reality.CERTIFIED_REAL, e.name  # empty word certifies


REFUSALS = [
    # (book, type, site, exact message): one row per refusal of a well-formed site
    pytest.param(catalog_s3_disk, "V", {"boundaries": (1, 2)},
                 "boundary 2 is not reflection-tagged", id="V-not-reflection"),
    pytest.param(lambda: catalog_hopf("swap"), "III", {"boundary": 1},
                 "boundary 1 is not reflection-tagged", id="III-not-reflection"),
    pytest.param(lambda: catalog_hopf("swap"), "II", {"boundary": 2, "shadow": 1},
                 "boundary 2 is not reflection-tagged", id="II-not-reflection"),
    pytest.param(catalog_s3_disk, "VIII", {"boundaries": (1, 1)},
                 "boundaries (1, 1) are not a swapped pair", id="VIII-not-swapped"),
    pytest.param(catalog_s3_disk, "IX", {"boundaries": (2, 1)},
                 "boundaries (1, 2) are not a swapped pair", id="IX-not-swapped"),
    pytest.param(lambda: catalog_hopf("conjugation"), "VII", {"boundaries": (1, 2)},
                 "boundaries (1, 2) are not a swapped pair", id="VII-not-swapped"),
    pytest.param(catalog_s3_disk, "II", {"boundary": 1, "shadow": 9},
                 "shadow point 9 is not a real point of boundary 1", id="II-shadow"),
    pytest.param(catalog_s3_disk, "IV", {"boundary": 1, "shadow": 9},
                 "shadow point 9 is not a real point of boundary 1", id="IV-shadow"),
    pytest.param(catalog_s3_disk, "VI", {"boundaries": (1, 1)},
                 "type VI needs two distinct boundaries", id="VI-not-distinct"),
    pytest.param(lambda: catalog_hopf("swap"), "VII", {"boundaries": (1, 2)},
                 "type VII needs a fixed piece for the closing chord to cross",
                 id="VII-no-fixed-piece"),
    pytest.param(lambda: stabilize(catalog_hopf("conjugation"), "III", {"boundary": 1}),
                 "VII", {"boundaries": (3, 4), "cross": 5},
                 "no fixed piece with index 5", id="VII-cross-too-large"),
    pytest.param(lambda: stabilize(catalog_hopf("conjugation"), "III", {"boundary": 1}),
                 "VII", {"boundaries": (3, 4), "cross": -1},
                 "no fixed piece with index -1", id="VII-cross-negative"),
    pytest.param(lambda: catalog_hopf("conjugation"), "I", {"boundary": 1},
                 "type I needs the two real points of boundary 1 joined by a fixed arc",
                 id="I-no-fixed-arc"),
    pytest.param(lambda: stabilize(catalog_hopf("conjugation"), "VI", {"boundaries": (1, 2)}),
                 "V", {"boundaries": (1, 2)},
                 "type V needs a fixed arc joining boundaries 1 and 2", id="V-no-joining-arc"),
    pytest.param(catalog_s3_disk, "X", {}, "unknown stabilization type 'X'", id="unknown-type"),
    pytest.param(not_real_example, "III", {"boundary": 1},
                 "refusing to stabilize a NotReal book", id="not-real"),
]


@pytest.mark.parametrize("make, tag, site, message", REFUSALS)
def test_incompatible_sites_raise(make, tag, site, message):
    with pytest.raises(StabilizationError) as err:
        stabilize(make(), tag, site)
    assert str(err.value) == message


def eager_viii_search(n, pj, pk, c_old, form, others=()):
    """The type-VIII search as first written: one linear system per
    (m, x), all 626 lattice candidates built before any is scored."""
    from itertools import product

    from realbook.intalg import solve_integer_affine

    ct = c_old.transpose()
    one_minus_c = IntMatrix.identity(n) - c_old
    for m, x_coef in product((0, 1, -1), (1, -1)):
        rows = [list(pj) + [0] * n, list(pk) + [0] * n]
        rhs = [-1, 1]
        for other in others:
            rows.append(list(other[:n]) + [0] * n)
            rhs.append(0)
        for i in range(n):
            rows.append([0] * n + list(one_minus_c.rows[i]))
            rhs.append(pj[i] + pk[i])
        for i in range(n):
            rows.append([x_coef * ((1 if u == i else 0) - ct[i, u]) for u in range(n)]
                        + list(form.rows[i]))
            rhs.append(0)
        sol = solve_integer_affine(IntMatrix(rows, ncols=2 * n), rhs)
        if sol is None:
            continue
        base, kernel = sol
        candidates = [list(base)]
        gens = kernel[:4]
        for combo in product(range(-2, 3), repeat=len(gens)):
            xx = list(base)
            for c, g in zip(combo, gens):
                for i in range(2 * n):
                    xx[i] += c * g[i]
            candidates.append(xx)
        for xx in candidates:
            v, w = tuple(xx[:n]), tuple(xx[n:])
            if (sum(a * b for a, b in zip(v, w)) == x_coef * m
                    and sum(a * b for a, b in zip(ct.apply(v), w)) == x_coef * m):
                return v, w, x_coef, m
    raise StabilizationError("type VIII: no consistent boundary class at this site")


def viii_outcome(search, *args):
    try:
        return search(*args)
    except StabilizationError as e:
        return ("refused", str(e))


def viii_oracle_inputs():
    """Every type-VIII site of the catalog and of fig4 up to k = 8, then
    seeded small systems, which also reach the refusals: no solution at
    all, and a solved system whose lattice has no point meeting the
    radical conditions."""
    from realbook.openbook import _other_pushoffs

    for ob in [e.build() for e in ENTRIES] + [catalog_fig4(k) for k in range(1, 9)]:
        for tag, site in enumerate_sites(ob):
            if tag == "VIII":
                j, k = sorted(site["boundaries"])
                yield (ob.page.h1_rank, ob.page.circle(j).pclass, ob.page.circle(k).pclass,
                       ob.real_structure.matrix, ob.page.form, _other_pushoffs(ob, j, k))
    rng = random.Random(3)
    for _ in range(600):
        n = rng.randint(1, 4)
        form = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                form[i][j] = rng.randint(-2, 2)
                form[j][i] = -form[i][j]
        yield (n, [rng.randint(-2, 2) for _ in range(n)], [rng.randint(-2, 2) for _ in range(n)],
               IntMatrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]),
               IntMatrix(form, ncols=n), ())


def test_viii_search_matches_eager_search():
    from realbook.openbook import _solve_viii_data

    seen = set()
    for args in viii_oracle_inputs():
        got = viii_outcome(_solve_viii_data, *args)
        assert got == viii_outcome(eager_viii_search, *args), args
        seen.add("refused" if got[0] == "refused" else (got[2], got[3]))
    # the inputs reach refusals and both signs of x
    assert {"refused", (1, 0), (-1, 0)} <= seen


def test_viii_search_solutions_meet_both_radical_conditions():
    """The search tests only v . w = x m; (C^T v) . w = v . w holds on
    every point of its solution lattice, as its docstring proves."""
    from realbook.openbook import _solve_viii_data

    solved = 0
    for args in viii_oracle_inputs():
        got = viii_outcome(_solve_viii_data, *args)
        if got[0] == "refused":
            continue
        v, w, x, m = got
        c = args[3].rows
        ctv = [sum(c[i][u] * v[i] for i in range(len(v))) for u in range(len(v))]
        assert sum(a * b for a, b in zip(ctv, w)) == sum(a * b for a, b in zip(v, w)) == x * m
        solved += 1
    assert solved


def test_seeded_chain_memo_equals_a_fresh_peel():
    """stabilize seeds each book's chain memo from its parent's and a
    check of the new block; a fresh peel of every block must agree, on
    the golden books and on walks from books read back from JSON (whose
    memo the first step peels fresh)."""
    from test_golden import golden_books

    from realbook.openbook import _chain_blocks_of

    def books():
        yield from golden_books()
        rng = random.Random(11)
        for e in ENTRIES:
            ob = loads(dumps(e.build()))
            for step in range(5):
                sites = enumerate_sites(ob)
                rng.shuffle(sites)
                for tag, site in sites:
                    try:
                        ob = stabilize(ob, tag, site)
                    except StabilizationError:
                        continue
                    yield f"{e.name}/{step}", ob
                    break

    seeded = certified = 0
    for label, ob in books():
        if "_chain_blocks" in vars(ob):
            seeded += 1
            assert vars(ob)["_chain_blocks"] == _chain_blocks_of(ob), label
            certified += vars(ob)["_chain_blocks"][0]
        else:
            assert ob._chain_blocks == _chain_blocks_of(ob), label
    assert seeded >= 300 and certified == seeded


def newest_block_mutants(ob):
    last = f"block {len(ob.provenance) - 1} "
    return [(what, bad) for what, bad in provenance_mutants(ob) if what.startswith(last)]


def test_child_of_a_changed_newest_block_seeds_false():
    from realbook.openbook import _chain_blocks_of

    mutants = newest_block_mutants(catalog_fig4(4))
    assert len(mutants) >= 4
    for what, bad in mutants:
        assert bad._chain_blocks == (False, ()), what
        child = stabilize(bad, "VIII", {"boundaries": (1, 2)})
        assert vars(child)["_chain_blocks"] == (False, ()) == _chain_blocks_of(child), what


def test_new_block_check_can_fail():
    """The seed checks the child's own block: a child whose new record
    has one image changed seeds (False, ()) from a certified parent, as a
    fresh peel finds."""
    from realbook.openbook import _chain_blocks_of, _seed_chain_blocks

    parent = catalog_fig4(3)
    assert parent._chain_blocks[0]
    for tag, site in [("VIII", {"boundaries": (1, 2)}), ("IX", {"boundaries": (1, 2)})]:
        child = stabilize(parent, tag, site)
        assert vars(child)["_chain_blocks"][0]
        rec = child.provenance[-1]
        names = sorted(child.page.alphabet)
        for name, (img, sign) in sorted(rec.images.items()):
            other = next(n for n in names if n != img)
            for image in ((img, -sign), (other, sign)):
                bad = replace(child, provenance=child.provenance[:-1]
                              + (replace(rec, images={**rec.images, name: image}),))
                _seed_chain_blocks(parent, bad)
                assert vars(bad)["_chain_blocks"] == (False, ()), (tag, name, image)
                assert _chain_blocks_of(bad) == (False, ()), (tag, name, image)


def test_lattice_scores_match_the_built_candidates():
    """The quadratic-form scores of the type-VIII walk equal v . w of each
    candidate built as the walk first did (base, then base + sum c_i g_i
    over product(-2..2)), and _lattice_point builds the same point."""
    from itertools import product

    from realbook.openbook import _lattice_point, _lattice_scores

    def q(z, n):
        return sum(a * b for a, b in zip(z[:n], z[n:]))

    def polar(y, z, n):
        return q([a + b for a, b in zip(y, z)], n) - q(y, n) - q(z, n)

    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(0, 4)
        base = tuple(rng.randint(-3, 3) for _ in range(2 * n))
        gens = [tuple(rng.randint(-2, 2) for _ in range(2 * n)) for _ in range(k)]
        points = [base] + [tuple(b + sum(c * g[i] for c, g in zip(combo, gens))
                                 for i, b in enumerate(base))
                           for combo in product(range(-2, 3), repeat=k)]
        scores = _lattice_scores(q(base, n), [polar(base, g, n) for g in gens],
                                 [q(g, n) for g in gens],
                                 [[polar(g, h, n) for h in gens] for g in gens])
        assert scores == [q(p, n) for p in points]
        for index in rng.sample(range(len(points)), min(5, len(points))):
            assert _lattice_point(base, gens, index) == points[index]
