"""A stabilization pays for its handle: what a step reads of its parent
instead of rebuilding is what a fresh build would give.

* A stabilized page inherits its parent's curve vectors for the curves
  whose class it keeps (SurfaceModel.inherit_curve_vectors); every
  entry of a page's cache equals the vectors computed fresh on it.
* The reference-arc residuals of a step are read only at the arcs and
  circles its handle changed (stabilization._ref_residuals); at every
  step they agree with surface.crossing_residuals over all arcs and
  circles.
* Type VIII tries its particular point first
  (stabilization._solve_viii_data) and returns what the full walk of
  its lattice returned (oracles.full_walk_viii_search).

The books are those of tests/test_walks.py's walks, the fig4/fig5/fig6
ladders to k = 16 and the golden books (catalog, ladders and seeded
walks).
"""

import gc
import weakref
from pathlib import Path

import pytest

import realbook.stabilization as stabilization
from realbook.catalog import build, catalog_fig4, catalog_fig5
from realbook.errors import StabilizationError
from realbook.jsonio import loads
from realbook.openbook import STAB_TYPES, enumerate_sites, stabilize
from realbook.records import replace
from realbook.surface import (
    CurveVectors,
    arc_endpoints_check,
    crossing_residuals,
    failures,
    validate_involution,
    validate_page,
)
from oracles import full_walk_viii_search
from test_golden import golden_books
from test_walks import walk_steps

LADDER_TOP = 16
FIXTURE = Path(__file__).parent / "fixtures" / "hopf-swap-opposite.json"


def books():
    """(label, book) for every book of the walks, the ladders and the
    golden books, in the order they are made."""
    for (root, walk, i, tag), _start, ob in walk_steps():
        yield f"walk/{'-'.join(root)}/{walk}/{i}/{tag}", ob
    for family in ("fig4", "fig5", "fig6"):
        yield f"{family}-{LADDER_TOP}", build(family, LADDER_TOP)
    yield from golden_books()


@pytest.fixture(scope="module")
def made():
    """The books, each made with its step's residuals compared: every
    arc _ref_residuals yields has the residuals crossing_residuals gives
    it, and every arc with a nonzero residual there is yielded.  Returns
    the books and one (arcs with a nonzero residual whose row is the
    parent's, mismatches) pair per step."""
    steps = []
    fix = stabilization._fix_ref_rows

    def comparing(b, new_idx, old):
        full = dict(crossing_residuals(b.circles, b.arcs_rows))
        local = dict(stabilization._ref_residuals(b, old))
        bad = [l for l in full if local.get(l, [0] * len(full[l])) != full[l]]
        kept = sum(1 for l, r in local.items() if any(r) and b.arcs_rows[l] is old.ref_arcs.get(l))
        steps.append((kept, bad))
        return fix(b, new_idx, old)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stabilization, "_fix_ref_rows", comparing)
        made = list(books())
    return made, steps


def test_local_residuals_equal_the_full_ones_at_every_step(made):
    books_made, steps = made
    assert len(steps) >= 800
    assert [bad for _kept, bad in steps if bad] == []
    # an arc whose row the handle left alone meets a changed circle on
    # some steps, so the local residuals are read, not only skipped
    assert sum(kept for kept, _bad in steps) >= 100


def test_a_moved_basepoint_reads_every_residual(monkeypatch):
    """No stabilization moves the basepoint, so the branch is driven by
    a parent page with a lower circle id: every arc then gets its full
    residual, zero or not."""
    seen = []
    fix = stabilization._fix_ref_rows

    def recording(b, new_idx, old):
        seen.append((b, old))
        return fix(b, new_idx, old)

    fig5, fig4 = catalog_fig5(2), catalog_fig4(3)
    monkeypatch.setattr(stabilization, "_fix_ref_rows", recording)
    stabilize(fig5, "III", {"boundary": 1})
    stabilize(fig4, "VIII", {"boundaries": (1, 2)})
    assert len(seen) == 2
    for b, old in seen:
        moved = replace(old, circles={min(old.circles) - 1: (), **old.circles})
        assert list(stabilization._ref_residuals(b, moved)) == list(
            crossing_residuals(b.circles, b.arcs_rows))


def fresh_vectors(page, name):
    return CurveVectors(page.curve(name), page.form)


def test_inherited_curve_vectors_equal_fresh_ones(made):
    books_made, _steps = made
    inherited = 0
    for label, ob in books_made:
        cache = vars(ob.page).get("_curve_vectors", {})
        for name, vecs in cache.items():
            fresh = fresh_vectors(ob.page, name)
            assert (vecs.a, vecs.ja, vecs.jta, vecs.at) == (
                fresh.a, fresh.ja, fresh.jta, fresh.at), (label, name)
            assert vecs.a is ob.page.alphabet[name], (label, name)
        inherited += bool(ob.provenance) and len(cache)
    assert inherited >= 1000


def test_a_child_keeps_no_reference_to_its_parent():
    """The vectors are copied as the child is made: the parent page is
    freed once nothing else holds it."""
    parent = stabilize(catalog_fig4(3), "VIII", {"boundaries": (1, 2)})
    child = stabilize(parent, "IX", {"boundaries": (1, 2)})
    assert vars(child.page)["_curve_vectors"].keys() & vars(parent.page)["_curve_vectors"].keys()
    page = weakref.ref(parent.page)
    del parent
    gc.collect()
    assert page() is None


def test_a_refused_step_names_what_fresh_vectors_give(monkeypatch):
    """A step refused by its block check words the full validation of
    the book it made; with the disjoint rule of type VIII widened to
    its old curves, the disjoint check's pairing <a, b> is read off the
    inherited vectors, and the message is the one a copy of the page
    with no cache gives."""
    parent = catalog_fig4(4)
    assert vars(parent.page)["_curve_vectors"]
    seen = []
    block_holds = stabilization._block_holds
    monkeypatch.setattr(stabilization, "_block_holds",
                        lambda *args: seen.append(args) or block_holds(*args))
    monkeypatch.setitem(STAB_TYPES, "VIII", replace(STAB_TYPES["VIII"], disjoint_old=True))
    with pytest.raises(StabilizationError) as refused:
        stabilize(parent, "VIII", {"boundaries": (1, 2)})
    (_parent, _st, page, inv), = seen
    assert vars(page)["_curve_vectors"]
    fresh = replace(page)
    assert "_curve_vectors" not in vars(fresh)
    plus = [arc_endpoints_check(inv.fixed_points, parent.fix_plus.arcs)] if parent.fix_plus else []
    want = failures(validate_involution(fresh, inv) + validate_page(fresh) + plus)
    assert want.startswith("disjoint: disjoint pair (")
    assert str(refused.value) == "type VIII at (1, 2): inconsistent data: " + want


def viii_sites(ob):
    for tag, site in enumerate_sites(ob):
        if tag == "VIII":
            j, k = sorted(site["boundaries"])
            yield (stabilization._attachment_pattern(ob, j, k), ob.real_structure.matrix,
                   ob.page.form)


def outcome(search, *args):
    try:
        return search(*args)
    except StabilizationError as e:
        return ("refused", str(e))


def test_viii_solves_match_the_full_lattice_walk(made, monkeypatch):
    """On every type-VIII site of the books, of the fig4 ladder's books
    and of the swap book with its pages exchanged, the point-first solve
    returns the full walk's (v, w, x, m); some solves return their
    particular point with no kernel generator read, and others walk."""
    from realbook.intalg import SmithForm

    books_made, _steps = made
    fig4 = [catalog_fig4(k) for k in range(1, LADDER_TOP + 1)]
    walked = []
    kernel = SmithForm.kernel
    monkeypatch.setattr(SmithForm, "kernel", lambda snf: walked.append(1) or kernel(snf))
    solves = point_first = 0
    for ob in [ob for _label, ob in books_made] + fig4 + [loads(FIXTURE.read_text())]:
        for args in viii_sites(ob):
            before = len(walked)
            got = outcome(stabilization._solve_viii_data, *args)
            point_first += len(walked) == before and got[0] != "refused"
            assert got == outcome(full_walk_viii_search, *args)
            solves += 1
    assert solves >= 500 and 0 < point_first < solves


def test_fig4_22_still_has_no_viii_point():
    """The fig4 ladder ends at k = 21: at k = 22 no lattice point of
    either x meets v . w = x m, in the point-first solve as in the full
    walk."""
    from realbook.catalog import _swap_pair_ids

    ob = catalog_fig4(21)
    j, k = _swap_pair_ids(ob)
    args = (stabilization._attachment_pattern(ob, j, k), ob.real_structure.matrix, ob.page.form)
    message = "type VIII: no consistent boundary class at this site"
    assert outcome(full_walk_viii_search, *args) == ("refused", message)
    with pytest.raises(StabilizationError, match=message):
        catalog_fig4(22)


def test_a_unit_minus_row_is_built_canonical_in_one_pass():
    """The rows of 1 - C and x (1 - C^T) in the type-VIII system are
    built in one pass each: s (e_i - r), indices moved up, equal to the
    sum, scaling and shift done apart, with no zero entry where r_i = 1."""
    import random

    from realbook.surface import sparse, sparse_add, sparse_scale

    rng = random.Random(61)
    for _ in range(400):
        n = rng.randint(1, 6)
        r = sparse([rng.choice([0, 0, 1, -1, 2]) for _ in range(n)])
        i, s, by = rng.randrange(n), rng.choice([1, -1]), rng.choice([0, n])
        want = sparse_scale(s, sparse_add((i, 1), r, -1))
        assert stabilization._unit_minus(i, r, s, by) == stabilization._shifted(want, by), (i, r)
