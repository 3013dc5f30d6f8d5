"""Dense IntMatrix arithmetic runs only inside realbook.intalg.

A stabilization builds each Smith system's input through
surface.dense_matrix and does every other step on the page's sparse
rows; arc transport expands each pairing row into its own buffer; the
query side and the check reports read sparse rows only.  Here each
dense operation of IntMatrix raises while the fig ladders are built to
k = 16, the seeded walks of test_walks run, every golden book answers
the benchmark's invariant query (H1, reality, Heegaard data and checks,
real part, JSON round trip), NotReal books report their witnesses and
validate reports a failing involution.
"""

import pytest

import test_walks
from test_golden import golden_books
from realbook.catalog import ENTRIES, catalog_fig4, catalog_fig5, catalog_fig6
from realbook.heegaard import heegaard_data, real_part, validate_heegaard
from realbook.intalg import AbelianGroup, IntMatrix
from realbook.jsonio import dumps, loads
from realbook.mcg import concat, word
from realbook.openbook import Reality, check_reality, h1_of_manifold
from realbook.records import replace
from realbook.surface import sparse_add, validate_involution

DENSE_ARITHMETIC = ("__matmul__", "__add__", "__sub__", "__neg__", "transpose", "apply",
                    "identity")


@pytest.fixture
def no_dense_arithmetic(monkeypatch):
    def refuse(*_args):
        raise AssertionError("IntMatrix arithmetic outside realbook.intalg")

    for name in DENSE_ARITHMETIC:
        monkeypatch.setattr(IntMatrix, name,
                            staticmethod(refuse) if name == "identity" else refuse)


def query(ob):
    """The benchmark's invariant report of a book read back from its
    JSON: (H1, reality, Heegaard genus, real components)."""
    back = loads(dumps(ob))
    assert back == ob and dumps(back) == dumps(ob)
    status = check_reality(back)
    hd = heegaard_data(back)
    assert all(ok for _name, ok in validate_heegaard(hd, back))
    return h1_of_manifold(back), status.kind, hd.genus, real_part(back).count


def test_ladders_and_queries_run_without_dense_arithmetic(no_dense_arithmetic):
    """Every golden book (the catalog, the ladders to k = 10 and the
    seeded walks of test_golden) is built and queried, then the k = 16
    ladders."""
    expected = {e.name: (e.h1, e.heegaard_genus) for e in ENTRIES}
    for label, ob in golden_books():
        h1, kind, genus, _count = query(ob)
        assert kind is not Reality.NOT_REAL, label
        assert expected.get(label, (h1, genus)) == (h1, genus), label
    for build, genus in ((catalog_fig4, 31), (catalog_fig5, 32), (catalog_fig6, 32)):
        assert query(build(16)) == (AbelianGroup(0), Reality.CERTIFIED_REAL, genus, 1)


def test_walks_run_without_dense_arithmetic(no_dense_arithmetic):
    test_walks.test_walks_keep_h1_and_the_real_part()


def test_not_real_witnesses_without_dense_arithmetic(no_dense_arithmetic):
    """A homology witness (one twist fewer) and a boundary-transport
    witness (one twist more, provenance dropped)."""
    fig4, fig5 = catalog_fig4(2), catalog_fig5(2)
    status = check_reality(replace(fig4, monodromy=fig4.monodromy[1:]))
    assert status.kind is Reality.NOT_REAL
    assert set(status.witness) == {"vector", "cfc", "f_inverse"}
    bad = replace(fig5, monodromy=concat(fig5.monodromy, word([("s1", 1)])), provenance=())
    status = check_reality(bad)
    assert status.kind is Reality.NOT_REAL and status.witness["boundary"] == 2
    h1_of_manifold(bad)


def test_failing_validation_reports_without_dense_arithmetic(no_dense_arithmetic):
    ob = catalog_fig4(3)
    c = list(ob.real_structure.matrix)
    c[0] = sparse_add(c[0], (0, 1))
    report = {r.name: r for r in validate_involution(
        ob.page, replace(ob.real_structure, matrix=tuple(c)))}
    assert report["involution"].detail.startswith("C^2 = ((")
    assert report["anti_symplectic"].detail.startswith("C^T J C = ((")
