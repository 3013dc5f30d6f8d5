import random
from pathlib import Path

from realbook.records import replace

import pytest

from realbook.catalog import (
    ENTRIES,
    catalog_fig4,
    catalog_fig5,
    catalog_fig6,
    catalog_hopf,
    catalog_lens_3punctured,
    catalog_lens_annulus,
    catalog_s3_disk,
    standard_surface,
)
from realbook.heegaard import real_part
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
    validate_book,
)
from realbook.surface import (
    FixArc,
    FixedSet,
    Involution,
    entries,
    sparse,
    sparse_add,
    validate_involution,
)
from oracles import (
    annulus_rotation,
    apply,
    as_matrix,
    as_rows,
    dense_solve,
    expand,
    identity,
    is_trivial,
    neg,
    sub,
    trace,
    transpose,
)


def not_real_example() -> OpenBook:
    """A homology witness: on the once-punctured torus the hyperelliptic-
    style flip C = antidiag(1,1) fails C F C = F^-1 for a single twist."""
    page = standard_surface(1, 1)
    inv = Involution(
        matrix=as_rows(IntMatrix([[0, 1], [1, 0]])),
        boundary_perm={1: 1},
        fixed_points={1: (1, 2)},
        fixed_set=FixedSet(arcs=(FixArc(ends=((1, 1), (1, 2)), pair_curves=()),)),
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


def test_not_real_witness_is_the_first_column_that_differs():
    # C F C e_1 = (1, -1) while F^-1 e_1 = e_1
    assert check_reality(not_real_example()).witness == {
        "vector": (1, 0), "cfc": (1, -1), "f_inverse": (1, 0)}


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


def test_plus_arcs_are_checked_at_the_door_and_once_per_new_block(monkeypatch):
    """The opposite page's arc ends are checked once at the door of a
    memo-free parent (openbook.validate_book) and once for each book
    stabilize makes (stabilization._finish), and nowhere else; the page's
    own arcs only by surface's involution checks.  Each module's bound
    name is patched, as that is the name its code calls."""
    import realbook.openbook as openbook_module
    import realbook.stabilization as stabilization_module
    from realbook import surface

    seen = []
    check = surface.arc_endpoints_check
    for module in (surface, openbook_module, stabilization_module):
        monkeypatch.setattr(module, "arc_endpoints_check",
                            lambda pts, arcs, at=module.__name__:
                            seen.append((at, arcs)) or check(pts, arcs))
    base = replace(catalog_lens_annulus(3))
    child = stabilize(base, "III", {"boundary": 1})
    grandchild = stabilize(child, "III", {"boundary": 1})
    books = [base, child, grandchild]
    assert [arcs for at, arcs in seen if at != "realbook.surface"] == [
        ob.fix_plus.arcs for ob in books]
    assert [at for at, _arcs in seen if at != "realbook.surface"] == [
        "realbook.openbook", "realbook.stabilization", "realbook.stabilization"]
    minus = [ob.real_structure.fixed_set.arcs for ob in books]
    assert all(ob.fix_plus.arcs not in minus for ob in books)
    assert [arcs for at, arcs in seen if at == "realbook.surface"] == minus


def test_disk_type_I_gives_annulus_book():
    ob = stabilize(catalog_s3_disk(), "I", {"boundary": 1})
    assert ob.page.genus == 0
    assert ob.page.boundary_count == 2
    assert ob.monodromy == (("s1", 1),)
    assert check_reality(ob).kind is Reality.CERTIFIED_REAL
    assert is_trivial(h1_of_manifold(ob))


def test_type_VIII_genus_up_h1_fixed():
    ob = catalog_fig4(1)
    before = h1_of_manifold(ob)
    after = stabilize(ob, "VIII", {"boundaries": (1, 2)})
    assert after.page.genus == ob.page.genus + 1
    assert after.page.boundary_count == ob.page.boundary_count
    assert h1_of_manifold(after) == before


def test_new_curves_take_names_the_page_lacks():
    # without provenance, s1 is the first name past it, but the page has s1
    ob = replace(catalog_fig4(2), provenance=())
    assert {"s1", "s2", "s2c"} <= set(ob.page.alphabet)
    after = stabilize(ob, "VIII", {"boundaries": [1, 2]})
    assert h1_of_manifold(after) == h1_of_manifold(ob)
    assert check_reality(after).kind is check_reality(ob).kind
    # an old curve keeps its stored class, the parent's own object
    for name, cls in ob.page.alphabet.items():
        assert after.page.alphabet[name] is cls
    assert set(after.page.alphabet) - set(ob.page.alphabet) == {"s3", "s3c"}


def test_h1_disk_annulus_oracles():
    assert is_trivial(h1_of_manifold(catalog_s3_disk()))
    for n in range(1, 11):
        got = h1_of_manifold(catalog_lens_annulus(n))
        want = AbelianGroup(0, (n,)) if n > 1 else AbelianGroup(0)
        assert got == want


def test_h1_fig_families_trivial():
    for k in range(1, 5):
        assert is_trivial(h1_of_manifold(catalog_fig4(k)))
        assert is_trivial(h1_of_manifold(catalog_fig5(k)))
        assert is_trivial(h1_of_manifold(catalog_fig6(k)))


def test_binding_count_and_euler():
    disk = catalog_s3_disk()
    assert (disk.page.boundary_count, disk.page.euler) == (1, 1)
    ann = catalog_hopf("conjugation")
    assert (ann.page.boundary_count, ann.page.euler) == (2, 0)
    after = stabilize(disk, "I", {"boundary": 1})
    assert (after.page.boundary_count, after.page.euler) == (2, 0)


# the change of page genus and of the boundary count of each type, from
# its local handle model
GENUS_CHANGE = {"I": 0, "II": 0, "III": 0, "IV": 1, "V": 1, "VI": 1, "VII": 1, "VIII": 1, "IX": 0}
BOUNDARY_CHANGE = {"I": 1, "II": 1, "III": 2, "IV": 0, "V": -1, "VI": 0, "VII": -1, "VIII": 0,
                   "IX": 2}


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
            assert out.page.euler == ob.page.euler - st.handle_count
            assert out.page.boundary_count == ob.page.boundary_count + BOUNDARY_CHANGE[tag]
            assert out.page.genus == ob.page.genus + GENUS_CHANGE[tag]
            assert 2 * out.page.genus + out.page.boundary_count - 1 == out.page.h1_rank
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
        c = as_matrix(ob.real_structure.matrix)
        j = as_matrix(ob.page.form)
        assert c @ c == identity(ob.page.h1_rank)
        assert transpose(c) @ j @ c == neg(j)
        assert len(ob.real_structure.fixed_set.arcs) == 1 - trace(c)


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
    inv = annulus_rotation()
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
    pytest.param(lambda: replace(catalog_lens_3punctured(2, 2, 1), fix_plus=None), "II",
                 {"boundary": 1}, "no plus-side fixed arc ends at (1, 2)", id="II-no-plus-arc"),
    pytest.param(lambda: replace(catalog_lens_3punctured(2, 2, 1), fix_plus=None), "IV",
                 {"boundary": 1}, "no plus-side fixed arc ends at (1, 2)", id="IV-no-plus-arc"),
    pytest.param(catalog_s3_disk, "X", {}, "unknown stabilization type 'X'", id="unknown-type"),
    pytest.param(not_real_example, "III", {"boundary": 1},
                 "refusing to stabilize a NotReal book", id="not-real"),
]


@pytest.mark.parametrize("make, tag, site, message", REFUSALS)
def test_incompatible_sites_raise(make, tag, site, message):
    with pytest.raises(StabilizationError) as err:
        stabilize(make(), tag, site)
    assert str(err.value) == message


def eager_viii_search(pattern, c_old, form):
    """The type-VIII search as first written: one linear system per
    (m, x), solved on the dense transforms of the full-scan Smith form
    (oracles.dense_solve), all 626 lattice candidates built before any
    is scored, on the pattern's classes expanded; v and w are returned
    sparse."""
    from itertools import product

    c_old, form = as_matrix(c_old), as_matrix(form)
    n = c_old.nrows
    (pj, _), (pk, _), *rest = [(expand(p, n), want) for p, want in pattern]
    others = [p for p, _ in rest]
    ct = transpose(c_old)
    one_minus_c = sub(identity(n), c_old)
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
            rows.append([x_coef * ((1 if u == i else 0) - ct.rows[i][u]) for u in range(n)]
                        + list(form.rows[i]))
            rhs.append(0)
        base, kernel = dense_solve(IntMatrix(rows, ncols=2 * n), rhs)
        if base is None:
            continue
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
                    and sum(a * b for a, b in zip(apply(ct, v), w)) == x_coef * m):
                return sparse(v), sparse(w), x_coef, m
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
    from realbook.stabilization import _attachment_pattern

    for ob in [e.build() for e in ENTRIES] + [catalog_fig4(k) for k in range(1, 9)]:
        for tag, site in enumerate_sites(ob):
            if tag == "VIII":
                j, k = sorted(site["boundaries"])
                yield (_attachment_pattern(ob, j, k), ob.real_structure.matrix, ob.page.form)
    rng = random.Random(3)
    for _ in range(600):
        n = rng.randint(1, 4)
        form = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                form[i][j] = rng.randint(-2, 2)
                form[j][i] = -form[i][j]
        pj = [rng.randint(-2, 2) for _ in range(n)]
        pk = [rng.randint(-2, 2) for _ in range(n)]
        c_old = IntMatrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
        yield ([(sparse(pj), -1), (sparse(pk), 1)], as_rows(c_old),
               as_rows(IntMatrix(form, ncols=n)))


def test_viii_search_matches_eager_search():
    from realbook.stabilization import _solve_viii_data

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
    from realbook.stabilization import _solve_viii_data

    solved = 0
    for args in viii_oracle_inputs():
        got = viii_outcome(_solve_viii_data, *args)
        if got[0] == "refused":
            continue
        n = len(args[1])
        v, w, x, m = expand(got[0], n), expand(got[1], n), got[2], got[3]
        c = as_matrix(args[1]).rows
        ctv = [sum(c[i][u] * v[i] for i in range(len(v))) for u in range(len(v))]
        assert sum(a * b for a, b in zip(ctv, w)) == sum(a * b for a, b in zip(v, w)) == x * m
        solved += 1
    assert solved


def test_every_block_of_a_stabilized_book_peels():
    """Every provenance block of a book stabilize makes certifies when
    its chain is peeled (_chain_blocks_of), as for a verdict asked of the
    book with no memo, and the book read back from JSON peels alike: on
    the golden books and on walks from books read back from JSON."""
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

    peeled = 0
    for label, ob in books():
        if ob.provenance:
            peeled += 1
            chain = _chain_blocks_of(ob)
            assert chain[0] and _chain_blocks_of(loads(dumps(ob))) == chain, label
    assert peeled >= 300


def newest_block_mutants(ob):
    last = f"block {len(ob.provenance) - 1} "
    return [(what, bad) for what, bad in provenance_mutants(ob) if what.startswith(last)]


def test_child_of_a_changed_newest_block_keeps_the_chain_broken():
    """A parent whose newest block no longer certifies still passes the
    door, and its child's chain fails at that block too; the child's
    door is open all the same, as the door lemma of _finish rests on the
    child's own block and not on the chain, and a fresh door agrees."""
    from realbook.openbook import _chain_blocks_of

    mutants = newest_block_mutants(catalog_fig4(4))
    assert len(mutants) >= 4
    for what, bad in mutants:
        assert _chain_blocks_of(bad) == (False, ()), what
        child = stabilize(bad, "VIII", {"boundaries": (1, 2)})
        assert _chain_blocks_of(child) == (False, ()), what
        assert vars(child)["_door"] is None and replace(child)._door is None, what


def test_new_block_check_can_fail():
    """The peel checks the child's own block: a child whose new record
    has one image changed fails the chain from a certified parent."""
    from realbook.openbook import _chain_blocks_of

    parent = catalog_fig4(3)
    assert _chain_blocks_of(parent)[0]
    for tag, site in [("VIII", {"boundaries": (1, 2)}), ("IX", {"boundaries": (1, 2)})]:
        child = stabilize(parent, tag, site)
        assert _chain_blocks_of(child)[0]
        rec = child.provenance[-1]
        names = sorted(child.page.alphabet)
        for name, (img, sign) in sorted(rec.images.items()):
            other = next(n for n in names if n != img)
            for image in ((img, -sign), (other, sign)):
                bad = replace(child, provenance=child.provenance[:-1]
                              + (replace(rec, images={**rec.images, name: image}),))
                assert _chain_blocks_of(bad) == (False, ()), (tag, name, image)


def test_lattice_scores_match_the_built_candidates():
    """The quadratic-form scores of the type-VIII walk equal v . w of each
    candidate built as the walk first did (base, then base + sum c_i g_i
    over product(-2..2)), the order in which _solve_viii_data reads the
    candidate of a hit."""
    from itertools import product

    from realbook.stabilization import _lattice_scores

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


def typed_walks(seed, steps):
    """Walks from every catalog book, one per type, each step trying the
    sites of that type first: (label, book) after each step."""
    rng = random.Random(seed)
    for prefer in STAB_TYPES:
        for e in ENTRIES:
            ob = e.build()
            for step in range(steps):
                sites = enumerate_sites(ob)
                rng.shuffle(sites)
                sites.sort(key=lambda ts: ts[0] != prefer)
                for tag, site in sites:
                    try:
                        ob = stabilize(ob, tag, site)
                    except StabilizationError:
                        continue
                    yield f"{prefer}/{e.name}/{step}", ob
                    break


def block_checks_recorded(monkeypatch):
    """The argument tuples (parent, st, page, inv) of every call
    stabilize makes to its block check (stabilization._block_holds)."""
    import realbook.stabilization as stabilization_module

    seen = []
    block_holds = stabilization_module._block_holds

    def recording(*args):
        seen.append(args)
        return block_holds(*args)

    monkeypatch.setattr(stabilization_module, "_block_holds", recording)
    return seen


def test_seeded_validity_equals_a_fresh_validation(monkeypatch):
    """stabilize validates each child of its valid parent from the checks
    of its block (_block_holds) and the structural checks, which open the
    child's door memo.  On every golden book and on walks through
    all nine types, each block check holds, the report it stands for
    (the algebraic checks passing, the structural ones run) equals the
    full report, and each book stabilize made has its door set open, as
    a memo-free copy decides it fresh, reality and every check of
    validate included."""
    from test_golden import golden_books

    from realbook.stabilization import _block_holds
    from realbook.surface import CheckResult, structural_checks

    seen = block_checks_recorded(monkeypatch)
    seeded, tags = 0, set()
    for label, ob in list(golden_books()) + list(typed_walks(seed=3, steps=4)):
        fresh = replace(ob)._door
        if ob.provenance:
            seeded += 1
            tags.add(ob.provenance[-1].tag)
            assert vars(ob)["_door"] is None and fresh is None, label
        else:
            assert ob._door == fresh, label
    assert seeded >= 500 and tags == set(STAB_TYPES)
    for parent, st, page, inv in seen:
        assert _block_holds(parent, st, page, inv)
        assert ([CheckResult("involution", True), CheckResult("anti_symplectic", True)]
                + structural_checks(page, inv)
                + [CheckResult("curve_image", True), CheckResult("boundary_classes", True)]
                ) == validate_involution(page, inv)
    assert len(seen) >= seeded


def test_building_fig5_16_from_the_disk_decides_reality_once(monkeypatch):
    """Only the disk's door decides a verdict: each book stabilize makes
    has its door seeded open, so the 16 moves decide nothing again."""
    import realbook.openbook as openbook_module

    decided = []
    reality_of = openbook_module._reality_of
    monkeypatch.setattr(openbook_module, "_reality_of",
                        lambda ob: decided.append(ob) or reality_of(ob))
    ob = catalog_fig5(16)
    assert [d.page.h1_rank for d in decided] == [0]
    assert vars(ob)["_door"] is None and "_reality" not in vars(ob)


def test_seeded_doors_equal_fresh_ones_along_the_k16_ladders(monkeypatch):
    """Every book of the fig4, fig5 and fig6 ladders to k = 16 has its
    door seeded open, as a memo-free copy of it decides fresh."""
    import realbook.stabilization as stabilization_module

    made = []
    make = stabilization_module.stabilize
    monkeypatch.setattr(stabilization_module, "stabilize",
                        lambda *args: made.append(make(*args)) or made[-1])
    for build in (catalog_fig4, catalog_fig5, catalog_fig6):
        build(16)
    assert len(made) == 16 + 16 + 17
    for ob in made:
        assert vars(ob)["_door"] is None and replace(ob)._door is None, ob.provenance[-1]


def test_children_of_unreduced_words_have_fresh_doors():
    """The door lemma of _finish is about mapping classes, so it holds
    for a parent whose word is not freely reduced: each catalog book
    with c c^-1 prepended to its word, for a curve c of its page, and
    every child stabilize makes of it, whose door is set open as a
    memo-free copy decides it fresh.  The reader reduces the words it
    reads, so the parent is built in memory."""
    children = 0
    for e in ENTRIES:
        ob = e.build()
        if not ob.page.alphabet:
            continue
        name = sorted(ob.page.alphabet)[0]
        parent = replace(ob, monodromy=((name, 1), (name, -1)) + ob.monodromy)
        for tag, site in enumerate_sites(parent):
            try:
                child = stabilize(parent, tag, site)
            except StabilizationError:
                continue
            children += 1
            assert vars(child)["_door"] is None and replace(child)._door is None, (e.name, tag)
            # the child's word is reduced, so it does not continue as the parent's
            assert child.monodromy[len(child.provenance[-1].sigma):] != parent.monodromy
    assert children >= 100


def _with_entries(form, changes):
    """form with each entry (i, j) moved by changes[i, j]."""
    rows = [list(r) for r in as_matrix(form).rows]
    for (i, j), d in changes.items():
        rows[i][j] += d
    return as_rows(IntMatrix(rows))


def _free_coordinate(page):
    """The first coordinate that no boundary class of page uses."""
    coords = {i for p in page.circles.values() for i, _x in entries(p)}
    return next(i for i in range(page.h1_rank) if i not in coords)


def _cross_entry(page, parent):
    """Move the cross-block entry X[i, 0] and its mirror by one, at a
    coordinate no boundary class of the parent uses: the form stays
    antisymmetric and C^T X L = -X breaks.  On type IV, whose births
    rule allows no X != 0, that rule refuses it first."""
    n = parent.page.h1_rank
    i = _free_coordinate(parent.page)
    return _with_entries(page.form, {(i, n): 1, (n, i): -1})


def _mirror_entry(page, parent):
    """Move the entry of the new rows mirroring X[i, 0] alone: the block
    check reads X off the new rows, so it sees X[i, 0] = 1, which the
    births rule of type IV refuses, while the full check finds the form
    no longer antisymmetric."""
    n = parent.page.h1_rank
    i = _free_coordinate(parent.page)
    return _with_entries(page.form, {(n, i): -1})


def _cross_pair_against_a_circle(page, parent):
    """x_0 += e_i and x_1 -= C^T e_i, with mirrors, at the first
    coordinate of the first circle in circle order, which the handle
    leaves alone: C^T X L = -X still holds for L the swap, and X^T q = 0
    breaks for that unchanged circle q, which the block check reads
    before any changed one.  On type IV, whose births rule allows no
    X != 0, that rule refuses it first."""
    n = parent.page.h1_rank
    cid, q = next(iter(page.circles.items()))
    assert not _is_changed(cid, page, parent)
    i = q[0]
    changes = {(i, n): 1, (n, i): -1}
    for j, c in enumerate(as_matrix(parent.real_structure.matrix).rows[i]):
        changes[j, n + 1] = changes.get((j, n + 1), 0) - c
        changes[n + 1, j] = changes.get((n + 1, j), 0) + c
    return _with_entries(page.form, changes)


def _moved_x(page, parent, delta):
    """Move X's column (the first new column) by delta over the old
    basis, with the mirror entries of the new row, so the form stays
    antisymmetric."""
    n = parent.page.h1_rank
    changes = {}
    for u, d in enumerate(delta):
        changes[u, n], changes[n, u] = d, -d
    return _with_entries(page.form, changes)


def _x_against_the_cross_block(page, parent):
    """X moved by (0, 0, -1, -1) on type V after IV: C^T X L = -X
    breaks and no other block check does, and the full check finds the
    new structure neither an involution nor anti-symplectic."""
    return _moved_x(page, parent, (0, 0, -1, -1))


def _x_against_an_unchanged_circle(page, parent):
    """X moved by (0, -1, -1) on type V after II: C^T X L = -X still
    holds, and X^T q = 0 breaks for a circle whose class q the handle
    left alone, which the full check reports as boundary_classes (and
    curve_image, as the twist now moves a curve whose image was kept)."""
    return _moved_x(page, parent, (0, -1, -1))


def _lens_after(tag):
    """lens-3punctured 2 2 1 after one move of type tag at boundary 1,
    shadow 1."""
    return stabilize(catalog_lens_3punctured(2, 2, 1), tag, {"boundary": 1, "shadow": 1})


def _new_image(page, inv, parent):
    """Flip the sign of the first image the parent lacks."""
    name = next(n for n in sorted(inv.curve_image) if n not in parent.real_structure.curve_image)
    img, sign = inv.curve_image[name]
    return page, replace(inv, curve_image={**inv.curve_image, name: (img, -sign)})


def _with_circles(page, changes):
    """page with the class of circle cid moved by the dense changes[cid]."""
    circles = {cid: sparse_add(p, sparse(changes[cid])) if cid in changes else p
               for cid, p in page.circles.items()}
    return replace(page, circles=circles)


def _is_changed(cid, page, parent):
    """Whether the class of circle cid differs from its class on the
    parent (a new circle has none); a sparse class widened by zeros is
    the same tuple."""
    old = parent.page.circles.get(cid)
    return old is None or old != page.circles[cid]


def _changed_circle(page, inv, parent):
    """Move the first coordinate of the first changed circle class."""
    cid = next(cid for cid in page.circles if _is_changed(cid, page, parent))
    return _with_circles(page, {cid: [1] + [0] * (page.h1_rank - 1)}), inv


def _changed_circle_pair(page, inv, parent):
    """Move two changed classes by +-e_i for a non-radical e_i, so the
    classes still sum to zero and only the radical test breaks."""
    j, k = [cid for cid in page.circles if _is_changed(cid, page, parent)][:2]
    i = next(i for i in range(page.h1_rank) if any(r[i] for r in as_matrix(page.form).rows))
    e = [int(t == i) for t in range(page.h1_rank)]
    return _with_circles(page, {j: e, k: [-x for x in e]}), inv


def _moved_unchanged_circle(page, inv, parent):
    """Set the first new coordinate of the first unchanged class, which
    the block check then reads as a changed one: on type III that class
    is still in the radical, and the class sum breaks."""
    n = parent.page.h1_rank
    cid = next(cid for cid in page.circles if not _is_changed(cid, page, parent))
    return _with_circles(page, {cid: [int(t == n) for t in range(page.h1_rank)]}), inv


def _fig5_after_iv():
    """fig5(2) after one type IV move, whose new coordinates no
    boundary class uses."""
    return stabilize(catalog_fig5(2), "IV", {"boundary": 1, "shadow": 1})


IV_SITE = {"boundary": 1, "shadow": 1}


@pytest.mark.parametrize("make, tag, site, corrupt, failing", [
    (_fig5_after_iv, "IV", IV_SITE, _cross_entry, {"anti_symplectic"}),
    (lambda: catalog_fig4(2), "VIII", {"boundaries": (1, 2)}, _cross_entry,
     {"anti_symplectic"}),
    (_fig5_after_iv, "IV", IV_SITE, _mirror_entry, {"anti_symplectic"}),
    (_fig5_after_iv, "IV", IV_SITE, _cross_pair_against_a_circle, {"boundary_classes"}),
    (lambda: catalog_fig5(2), "III", {"boundary": 1}, _new_image, {"curve_image"}),
    (lambda: catalog_fig4(3), "IX", {"boundaries": (1, 2)}, _new_image, {"curve_image"}),
    (lambda: catalog_fig5(2), "III", {"boundary": 1}, _changed_circle, {"boundary_classes"}),
    (lambda: catalog_fig4(3), "VIII", {"boundaries": (1, 2)}, _changed_circle_pair,
     {"boundary_classes"}),
    (lambda: catalog_fig5(2), "III", {"boundary": 1}, _moved_unchanged_circle,
     {"boundary_classes"}),
    (lambda: catalog_fig6(2), "VI", {"boundaries": (2, 3)}, _cross_pair_against_a_circle,
     {"boundary_classes"}),
    (lambda: _lens_after("IV"), "V", {"boundaries": (1, 2)}, _x_against_the_cross_block,
     {"anti_symplectic", "involution"}),
    (lambda: _lens_after("II"), "V", {"boundaries": (1, 4)}, _x_against_an_unchanged_circle,
     {"boundary_classes", "curve_image"}),
], ids=["cross-entry-IV", "cross-entry-VIII", "mirror-entry-IV", "cross-pair-IV",
        "new-image-III", "new-image-IX", "changed-circle-III", "changed-circle-pair-VIII",
        "unchanged-circle-III", "unchanged-circle-VI", "cross-block-V", "unchanged-circle-V"])
def test_a_failing_block_check_refuses_with_the_full_message(make, tag, site, corrupt,
                                                             failing, monkeypatch):
    """One item of the block corrupted as the new book is validated: the
    block check fails, and stabilize refuses with the message of a full
    validation of the corrupted book, each failing check as name:
    detail.  Each corruption breaks the full check that one block check
    stands for and, where it can, no other block check, so each block
    check is shown to fail.  The new structure is rebuilt on a corrupted
    form, C~ Sigma with Sigma's twists read from it, as the lemma
    assumes."""
    import realbook.stabilization as stabilization_module
    from realbook.mcg import times_word

    verdicts, reports = [], []
    block_holds = stabilization_module._block_holds
    full_validation = stabilization_module.validate_book

    def corrupting(parent, st, page, inv):
        if corrupt in (_cross_entry, _mirror_entry, _cross_pair_against_a_circle,
                       _x_against_the_cross_block, _x_against_an_unchanged_circle):
            page = replace(page, form=corrupt(page, parent))
            sigma = tuple((name, 1) for name in page.basis[:parent.page.h1_rank - 1:-1])
            c_naive = stabilization_module._naive_extension(parent.real_structure.matrix,
                                                            STAB_TYPES[tag])
            inv = replace(inv, matrix=times_word(c_naive, page, sigma))
        else:
            page, inv = corrupt(page, inv, parent)
        reports.append(validate_involution(page, inv))
        verdicts.append(block_holds(parent, st, page, inv))
        return verdicts[-1]

    def validating_the_corrupted_book(ob):
        return {**full_validation(ob), "involution": reports[-1]}

    parent = make()
    assert parent._door is None
    monkeypatch.setattr(stabilization_module, "_block_holds", corrupting)
    monkeypatch.setattr(stabilization_module, "validate_book", validating_the_corrupted_book)
    with pytest.raises(StabilizationError) as refused:
        stabilize(parent, tag, site)
    assert verdicts == [False]
    bad = [r for r in reports[0] if not r.ok]
    assert failing <= {r.name for r in bad}
    at = stabilization_module._parse_site(parent, STAB_TYPES[tag], site)
    assert str(refused.value) == (f"type {tag} at {at}: inconsistent data: "
                                  + "; ".join(f"{r.name}: {r.detail}" for r in bad))


@pytest.mark.parametrize("make, tag, site, flag", [
    (lambda: catalog_fig4(2), "VIII", {"boundaries": (1, 2)}, "disjoint_old"),
    (lambda: catalog_fig5(2), "IV", IV_SITE, "disjoint_mutual"),
], ids=["crossing-old-VIII", "crossing-pair-IV"])
def test_the_block_check_holds_the_born_pairs_to_the_page_check(make, tag, site, flag,
                                                                monkeypatch):
    """A type whose rule claimed a pair its handle crosses: VIII's new
    curves pair with older ones (X != 0), and IV's chords cross
    (<a, ca> = 1).  The involution checks all pass, the block check
    fails on the born pairs, and stabilize refuses the book naming
    validate_page's disjoint check."""
    import realbook.stabilization as stabilization_module

    parent = make()
    monkeypatch.setitem(STAB_TYPES, tag, replace(STAB_TYPES[tag], **{flag: True}))
    with pytest.raises(StabilizationError) as refused:
        stabilize(parent, tag, site)
    at = stabilization_module._parse_site(parent, STAB_TYPES[tag], site)
    assert str(refused.value).startswith(
        f"type {tag} at {at}: inconsistent data: disjoint: disjoint pair (")


def test_a_child_whose_plus_arcs_miss_its_points_is_refused(monkeypatch):
    """stabilize checks the ends of each new book's plus arcs: with the
    join of the plus arcs through the handle core skipped, type I on
    the disk leaves its plus arc on real points the new book lacks."""
    import realbook.stabilization as stabilization_module

    monkeypatch.setattr(stabilization_module, "_plus_join", lambda b, *ends: None)
    with pytest.raises(StabilizationError) as refused:
        stabilize(catalog_s3_disk(), "I", {"boundary": 1})
    assert str(refused.value) == ("type I at (1,): inconsistent data: arc_endpoints: "
                                  "used [(1, 1), (1, 2)] vs declared []")


def test_every_type_declares_a_core_that_reverses_its_handles():
    """The lemma of _block_holds needs C~ = C (+) L to map each new curve
    to +-its mirror with L^2 = I, which every type's table entry gives:
    a core sign of +-1 on one handle or a pair."""
    for tag, st in STAB_TYPES.items():
        assert st.core_sign in (1, -1) and st.handle_count in (1, 2), tag


def test_a_sign_flipped_image_fails_in_each_caller_of_image_holds(monkeypatch):
    """An image name -> (img, s) with s negated fails the curve_image
    check of a full validation, the block check of a stabilization and
    the peel of a provenance block: the three callers of image_holds."""
    from realbook.openbook import _chain_blocks_of
    from realbook.stabilization import _block_holds

    def flipped(images, name):
        img, sign = images[name]
        return {**images, name: (img, -sign)}

    ob = catalog_fig5(2)
    inv = ob.real_structure
    name = next(n for n in sorted(inv.curve_image) if any(ob.page.curve(n)))
    report = {r.name: r.ok for r in validate_involution(ob.page, inv)}
    assert report["curve_image"]
    bad = replace(inv, curve_image=flipped(inv.curve_image, name))
    report = {r.name: r.ok for r in validate_involution(ob.page, bad)}
    assert not report["curve_image"] and all(ok for n, ok in report.items() if n != "curve_image")

    seen = block_checks_recorded(monkeypatch)
    child = stabilize(ob, "III", {"boundary": 1})
    (parent, st, page, new_inv), = seen
    new = sorted(set(new_inv.curve_image) - set(inv.curve_image))
    assert new and _block_holds(parent, st, page, new_inv)
    for name in new:
        assert not _block_holds(
            parent, st, page,
            replace(new_inv, curve_image=flipped(new_inv.curve_image, name))), name

    rec = child.provenance[-1]
    assert _chain_blocks_of(child)[0]
    for name in rec.images:
        tampered = replace(rec, images=flipped(rec.images, name))
        assert _chain_blocks_of(replace(child, provenance=child.provenance[:-1] + (tampered,))) \
            == (False, ()), name


def test_a_sign_flipped_pattern_row_refuses_type_v(monkeypatch):
    """Type V accepts the consumed arc only in an orientation that meets
    the attachment pattern; with the sign of P_j . v flipped, neither
    orientation does."""
    import realbook.stabilization as stabilization_module

    sites = [(e.build(), site) for e in ENTRIES
             for tag, site in enumerate_sites(e.build()) if tag == "V"]
    accepted = []
    for ob, site in sites:
        try:
            accepted.append((ob, site, stabilize(ob, "V", site)))
        except StabilizationError:
            pass
    assert accepted
    pattern = stabilization_module._attachment_pattern

    def flipped(ob, j, k):
        (pj, want), *rest = pattern(ob, j, k)
        return [(pj, -want), *rest]

    monkeypatch.setattr(stabilization_module, "_attachment_pattern", flipped)
    for ob, site, _out in accepted:
        with pytest.raises(StabilizationError, match="violates the boundary pattern"):
            stabilize(ob, "V", site)


def test_a_boundary_transport_mismatch_is_not_real():
    """The witness of _arc_identity_holds: fig5(2) with one more twist
    along s1 and its provenance dropped has C F C = F^-1 on H1, but its
    reference arc to boundary 2 breaks the boundary-transport identity,
    so the book is NotReal with that arc as witness, not
    HomologicallyReal."""
    from realbook.mcg import concat, invert, word_matrix

    ob = catalog_fig5(2)
    bad = replace(ob, monodromy=concat(ob.monodromy, word([("s1", 1)])), provenance=())
    c, f = as_matrix(bad.real_structure.matrix), as_matrix(bad.monodromy_matrix)
    assert c @ f @ c == as_matrix(word_matrix(bad.page, invert(bad.monodromy)))
    status = check_reality(bad)
    assert status.kind is Reality.NOT_REAL
    assert status.witness == {"boundary": 2, "lhs": (-2, 0, 0, 0), "rhs": (-1, 0, 0, 0)}


def hopf_swap_opposite():
    """tests/fixtures/hopf-swap-opposite.json: the hopf-swap book with its
    two pages exchanged, so its fixed circle is on the minus side, where
    no catalog root and no stabilization puts one."""
    return loads((Path(__file__).parent / "fixtures" / "hopf-swap-opposite.json").read_text())


def test_the_opposite_hopf_swap_book_is_the_swapped_pages():
    ob = catalog_hopf("swap")
    inv = ob.real_structure
    opposite = hopf_swap_opposite()
    assert opposite == replace(ob, real_structure=replace(inv, fixed_set=ob.fix_plus),
                               fix_plus=inv.fixed_set)
    assert opposite.real_structure.fixed_set.circles and not ob.real_structure.fixed_set.circles
    assert all(r.ok for section in validate_book(opposite).values() for r in section)
    assert loads(dumps(opposite)) == opposite
    assert check_reality(opposite).kind is Reality.CERTIFIED_REAL


@pytest.mark.parametrize("tag, site", [("VII", {"boundaries": [1, 2], "cross": 0}),
                                       ("VIII", {"boundaries": [1, 2]}),
                                       ("IX", {"boundaries": [1, 2]})])
def test_a_fixed_circle_on_the_minus_side_stabilizes(tag, site):
    """Types VII, VIII and IX on the opposite hopf-swap book: the child
    validates, keeps H1 = 0 and one real component, and round-trips.
    Type VII's closing chord crosses the minus circle, which the strand
    switch opens into a minus arc at the new fixed points.  The VII and
    VIII children are HomologicallyReal, not CertifiedReal: the base
    book's certificate is lost along the chain (ROADMAP item 2), so only
    "not NotReal" is asserted."""
    parent = hopf_swap_opposite()
    child = stabilize(parent, tag, site)
    assert all(r.ok for section in validate_book(child).values() for r in section)
    assert is_trivial(h1_of_manifold(child))
    assert real_part(child).count == 1
    back = loads(dumps(child))
    assert back == child and dumps(back) == dumps(child)
    assert check_reality(child).kind is not Reality.NOT_REAL
    if tag == "VII":
        from realbook.stabilization import _parse_site

        j, _k, _cross = _parse_site(parent, STAB_TYPES[tag], site)
        minus = child.real_structure.fixed_set
        assert not minus.circles
        assert [arc.ends for arc in minus.arcs] == [
            tuple((j, p) for p in child.real_structure.fixed_points[j])]


def test_a_site_left_out_takes_the_basepoint():
    ob = catalog_lens_3punctured(2, 2, 1)
    bp = ob.page.basepoint
    out = stabilize(ob, "III")
    assert out.provenance[-1].site == (bp,)
    assert dumps(out) == dumps(stabilize(ob, "III", {"boundary": bp}))
    assert dumps(out) != dumps(stabilize(ob, "III", {"boundary": bp + 1}))
