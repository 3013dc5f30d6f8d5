import pytest

from realbook.catalog import ENTRIES, build, catalog_hopf, catalog_lens_3punctured
from realbook.heegaard import heegaard_data, is_maximal, real_part
from realbook.intalg import AbelianGroup, IntMatrix, cokernel
from realbook.openbook import Reality, check_reality, h1_of_manifold
from oracles import as_rows, is_trivial


def test_every_entry_certified_real():
    for e in ENTRIES:
        assert check_reality(e.build()).kind is Reality.CERTIFIED_REAL, e.name


def test_every_entry_matches_recorded_invariants():
    for e in ENTRIES:
        ob = e.build()
        assert h1_of_manifold(ob) == e.h1, e.name
        hd = heegaard_data(ob)
        assert hd.genus == e.heegaard_genus, e.name
        if e.real_components is not None or e.separating is not None or e.maximal is not None:
            rp = real_part(ob)
            if e.real_components is not None:
                assert rp.count == e.real_components, e.name
            if e.separating is not None:
                assert rp.separating_flags() == e.separating, e.name
            if e.maximal is not None:
                assert is_maximal(hd, rp) == e.maximal, e.name


def test_hopf_variants_differ_in_boundary_action():
    conj = catalog_hopf("conjugation")
    perm = conj.real_structure.boundary_perm
    assert perm == {1: 1, 2: 2}
    assert set(conj.real_structure.fixed_points) == {1, 2}
    swap = catalog_hopf("swap")
    assert swap.real_structure.boundary_perm == {1: 2, 2: 1}
    assert swap.real_structure.fixed_points == {}
    with pytest.raises(ValueError):
        catalog_hopf("nope")


def test_lens_3punctured_hand_presentation():
    """Independent presentation for exponents (2, 2, 1): relations
    -p d1 + q d2 and -(p+r) d1 - r d2 on two generators."""
    p, q, r = 2, 2, 1
    ob = catalog_lens_3punctured(p, q, r)
    rel = IntMatrix([[-p, -(p + r)], [q, -r]])
    assert h1_of_manifold(ob) == cokernel(as_rows(rel)) == AbelianGroup(0, (8,))


def test_lens_3punctured_various_exponents():
    for (p, q, r) in [(1, 1, 1), (3, 1, 2), (2, 3, 5)]:
        ob = catalog_lens_3punctured(p, q, r)
        order = p * q + q * r + r * p
        got = h1_of_manifold(ob)
        if order == 1:
            assert is_trivial(got)
        else:
            size = 1
            for t in got.torsion:
                size *= t
            assert got.free_rank == 0 and size == order


def test_build_dispatch():
    assert build("disk").page.boundary_count == 1
    assert build("fig4", 2).page.genus == 1
    assert build("lens-annulus", 5).monodromy == (("d1", 5),)
    with pytest.raises(ValueError, match="unknown catalog book 'nonsense'; known books: disk, "):
        build("nonsense")


def test_bad_parameters():
    with pytest.raises(ValueError):
        build("fig4", 0)
    with pytest.raises(ValueError):
        build("lens-annulus", 0)
