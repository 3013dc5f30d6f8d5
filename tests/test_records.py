"""The records of realbook behave as the frozen dataclasses they replace.

Each record class is checked on an instance taken from a catalog book
(or from the contact model), against a frozen dataclass with the same
name and fields built from the same values.
"""

import dataclasses
from itertools import combinations

import pytest

from realbook import catalog, contact, heegaard, intalg, openbook, stabilization, surface
from realbook.catalog import ENTRIES
from realbook.contact import ContactModelError, FormSampler
from realbook.intalg import AbelianGroup
from realbook.records import record, replace

MODULES = (catalog, contact, heegaard, intalg, openbook, stabilization, surface)


def _book(name):
    return next(e for e in ENTRIES if e.name == name).build()


def _instances() -> list:
    ob = _book("fig4-2")   # the fig4 books have a fixed circle, no fixed arc
    page, inv = ob.page, ob.real_structure
    rp = heegaard.real_part(ob)
    pf = contact.build_profiles(10.0, 0.1)
    return [
        ob, page, inv, inv.fixed_set, _book("fig6-2").real_structure.fixed_set.arcs[0],
        ob.provenance[0], openbook.STAB_TYPES["VIII"], openbook.check_reality(ob),
        surface.validate_involution(page, inv)[0],
        intalg.factor(page.form, page.h1_rank), openbook.h1_of_manifold(ob),
        heegaard.heegaard_data(ob), rp, rp.components[0],
        FormSampler(family=1, k=10.0, resolution=5), pf,
        contact.solid_torus_extension_check(FormSampler(family=1, k=10.0), pf, resolution=5),
        ENTRIES[0],
    ]


INSTANCES = _instances()


def _twin(x):
    """The frozen dataclass of x's name and fields, holding x's values."""
    cls = type(x)
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    return twin(*(getattr(x, name) for name in cls._fields))


def _is_hashable(x) -> bool:
    try:
        hash(x)
    except TypeError:
        return False
    return True


def test_every_record_class_is_covered():
    classes = {v for m in MODULES for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__ and "_fields" in vars(v)}
    assert classes == {type(x) for x in INSTANCES}
    assert len(classes) == len(INSTANCES) == 18


@pytest.mark.parametrize("x", INSTANCES, ids=lambda x: type(x).__name__)
def test_repr_is_the_dataclass_repr(x):
    assert repr(x) == repr(_twin(x))
    assert repr(x).startswith(f"{type(x).__name__}({type(x)._fields[0]}=")


@pytest.mark.parametrize("x", INSTANCES, ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned_or_deleted(x):
    name = type(x)._fields[0]
    value = getattr(x, name)
    with pytest.raises(AttributeError):
        setattr(x, name, value)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert getattr(x, name) is value


@pytest.mark.parametrize("x", INSTANCES, ids=lambda x: type(x).__name__)
def test_equal_records_hash_equal(x):
    y = replace(x)
    assert y is not x and y == x and not y != x
    twin = _twin(x)
    assert _is_hashable(x) == _is_hashable(twin)
    if _is_hashable(x):
        assert hash(y) == hash(x) == hash(twin)


@record
class CheckResult:
    """A look-alike of surface.CheckResult: same name, same fields."""

    name: str
    ok: bool
    detail: str = ""


def test_records_of_different_classes_are_never_equal():
    for a, b in combinations(INSTANCES, 2):
        assert a != b and b != a

    check = next(x for x in INSTANCES if isinstance(x, surface.CheckResult))
    look_alike = CheckResult(check.name, check.ok, check.detail)
    assert repr(look_alike) == repr(check)
    assert look_alike != check and check != look_alike


def test_replace_runs_post_init_again():
    with pytest.raises(ValueError, match="torsion entries must be >= 2"):
        replace(AbelianGroup(1, (2,)), torsion=(1,))
    with pytest.raises(ContactModelError, match="resolution must be at least 2"):
        replace(FormSampler(family=1, k=10.0), resolution=1)
    assert replace(AbelianGroup(1, (2,)), free_rank=0) == AbelianGroup(0, (2,))


def test_pair_arcs_default_is_a_fresh_dict():
    a = surface.FixArc(ends=((1, 1), (1, 2)), pair_curves=(0,))
    b = surface.FixArc(ends=((1, 1), (1, 2)), pair_curves=(0,))
    assert a.pair_arcs == b.pair_arcs == {}
    assert a.pair_arcs is not b.pair_arcs
    a.pair_arcs[1] = 1
    assert b.pair_arcs == {}
