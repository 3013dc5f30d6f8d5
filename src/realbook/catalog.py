"""Worked example books: disk and Hopf books, the three stabilization
families over the round 3-sphere, and the lens-space books.

Every constructor returns a fully tracked book (both fixed sets
populated), certified real, with the expected invariants recorded in
ENTRIES for the verification suites.
"""

from __future__ import annotations

from typing import Callable

from .intalg import AbelianGroup
from .mcg import word
from .openbook import OpenBook
from .records import record
from .stabilization import stabilize
from .surface import (
    FixArc,
    FixedSet,
    entries,
    standard_involution,
    standard_surface,
)


def catalog_s3_disk() -> OpenBook:
    """Disk page, identity monodromy: the round real 3-sphere."""
    page = standard_surface(0, 1)
    inv = standard_involution(page, "disk-reflection")
    return OpenBook(page=page, monodromy=(), real_structure=inv,
                    fix_plus=inv.fixed_set)


def catalog_hopf(variant: str) -> OpenBook:
    """Positive Hopf band book of the 3-sphere, one twist on the annulus.

    variant "conjugation": the involution preserves each binding circle,
    so the page structure is the reflection across the spanning arcs.
    variant "swap": the involution exchanges the binding circles and
    acts freely on this page; the opposite page holds the fixed core.
    """
    page = standard_surface(0, 2)
    mono = word([("d1", 1)])
    if variant == "conjugation":
        inv = standard_involution(page, "annulus-reflection")
        # opposite page: reflection twisted once; the strands reconnect
        # across the core and one of them crosses the reference arc
        plus = FixedSet(arcs=(
            FixArc(ends=((1, 1), (2, 4)), pair_curves=(1,), pair_arcs={2: 1}),
            FixArc(ends=((1, 2), (2, 3)), pair_curves=(-1,), pair_arcs={2: 0}),
        ))
        return OpenBook(page=page, monodromy=mono, real_structure=inv, fix_plus=plus)
    if variant == "swap":
        inv = standard_involution(page, "boundary-swap")
        plus = FixedSet(circles=((1,),))
        return OpenBook(page=page, monodromy=mono, real_structure=inv, fix_plus=plus)
    raise ValueError(f"unknown Hopf variant {variant!r}")


def catalog_lens_annulus(n: int) -> OpenBook:
    """Annulus book with n boundary twists: the lens space L(n, n-1).

    The reflection across the spanning arcs makes any power of the core
    twist real.  The opposite page carries the n-fold twisted strands:
    their endpoint pattern depends on the parity of n and one strand
    crosses the reference arc ceil(n/2) times, the other floor(n/2).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    page = standard_surface(0, 2)
    inv = standard_involution(page, "annulus-reflection")
    mono = word([("d1", n)])
    if n % 2 == 1:
        ends = (((1, 1), (2, 4)), ((1, 2), (2, 3)))
    else:
        ends = (((1, 1), (2, 3)), ((1, 2), (2, 4)))
    plus = FixedSet(arcs=(
        FixArc(ends=ends[0], pair_curves=(1,), pair_arcs={2: (n + 1) // 2}),
        FixArc(ends=ends[1], pair_curves=(-1,), pair_arcs={2: n // 2}),
    ))
    return OpenBook(page=page, monodromy=mono, real_structure=inv, fix_plus=plus)


def catalog_lens_3punctured(p: int, q: int, r: int) -> OpenBook:
    """Thrice punctured sphere with boundary twists tau1^p tau2^q tau3^r.

    Boundary-parallel curves are invariant under the planar reflection,
    so these books are real for any exponents.
    """
    page = standard_surface(0, 3)
    inv = standard_involution(page, "planar-reflection")
    mono = word([("d1", p), ("d2", q), ("d3", r)])
    # the opposite page differs by boundary twists, which drag each chain
    # arc around the circles it touches; endpoints and the chain pattern
    # survive, crossing data shifts by the boundary classes
    exps = {1: p, 2: q, 3: r}
    plus_arcs = []
    for arc in inv.fixed_set.arcs:
        pc = list(arc.pair_curves)
        pa = dict(arc.pair_arcs)
        for cid, _pid in arc.ends:
            w = exps[cid]
            name = f"d{cid}"
            for i, x in entries(page.curve_vectors(name).jta):
                pc[i] += w * x
            for tgt, cross in zip(sorted(page.ref_arcs), page.curve_tables(name)[1]):
                pa[tgt] = pa.get(tgt, 0) - w * cross
        plus_arcs.append(FixArc(ends=arc.ends, pair_curves=tuple(pc), pair_arcs=pa))
    plus = FixedSet(arcs=tuple(plus_arcs))
    return OpenBook(page=page, monodromy=mono, real_structure=inv, fix_plus=plus)


def catalog_fig4(k: int) -> OpenBook:
    """Odd-genus splitting family: one type I then k-1 type VIII moves."""
    if k < 1:
        raise ValueError("need k >= 1")
    ob = stabilize(catalog_s3_disk(), "I", {"boundary": 1})
    for _ in range(k - 1):
        pair = _swap_pair_ids(ob)
        ob = stabilize(ob, "VIII", {"boundaries": pair})
    return ob


def catalog_fig5(k: int) -> OpenBook:
    """Even-genus splitting family with separating real part: k type III."""
    if k < 1:
        raise ValueError("need k >= 1")
    ob = catalog_s3_disk()
    for _ in range(k):
        ob = stabilize(ob, "III", {"boundary": 1})
    return ob


def catalog_fig6(k: int) -> OpenBook:
    """Even-genus splitting family with nonseparating real part:
    two type II moves, then k-1 type III."""
    if k < 1:
        raise ValueError("need k >= 1")
    ob = stabilize(catalog_s3_disk(), "II", {"boundary": 1})
    shadow = max(ob.real_structure.fixed_points[1])
    ob = stabilize(ob, "II", {"boundary": 1, "shadow": shadow})
    for _ in range(k - 1):
        ob = stabilize(ob, "III", {"boundary": 1})
    return ob


def _swap_pair_ids(ob: OpenBook) -> tuple[int, int]:
    perm = ob.real_structure.boundary_perm
    for cid in sorted(perm):
        if perm[cid] != cid:
            return (cid, perm[cid])
    raise ValueError("book has no swapped boundary pair")


@record
class CatalogEntry:
    name: str
    build: Callable[[], OpenBook]
    h1: AbelianGroup
    heegaard_genus: int
    real_components: int | None = None
    separating: tuple[bool, ...] | None = None
    maximal: bool | None = None


ENTRIES: list[CatalogEntry] = [
    CatalogEntry("disk", catalog_s3_disk, AbelianGroup(0), 0,
                 real_components=1, separating=(True,), maximal=True),
    CatalogEntry("hopf-conjugation", lambda: catalog_hopf("conjugation"),
                 AbelianGroup(0), 1, real_components=1, separating=(False,), maximal=False),
    CatalogEntry("hopf-swap", lambda: catalog_hopf("swap"),
                 AbelianGroup(0), 1, real_components=1, separating=(False,), maximal=False),
    CatalogEntry("fig4-1", lambda: catalog_fig4(1), AbelianGroup(0), 1,
                 real_components=1, separating=(False,)),
    CatalogEntry("fig4-2", lambda: catalog_fig4(2), AbelianGroup(0), 3),
    CatalogEntry("fig4-3", lambda: catalog_fig4(3), AbelianGroup(0), 5),
    CatalogEntry("fig5-1", lambda: catalog_fig5(1), AbelianGroup(0), 2,
                 real_components=1, separating=(True,)),
    CatalogEntry("fig5-2", lambda: catalog_fig5(2), AbelianGroup(0), 4),
    CatalogEntry("fig6-1", lambda: catalog_fig6(1), AbelianGroup(0), 2,
                 real_components=1, separating=(False,)),
    CatalogEntry("fig6-2", lambda: catalog_fig6(2), AbelianGroup(0), 4),
    CatalogEntry("lens-annulus-3", lambda: catalog_lens_annulus(3),
                 AbelianGroup(0, (3,)), 1),
    CatalogEntry("lens-annulus-7", lambda: catalog_lens_annulus(7),
                 AbelianGroup(0, (7,)), 1),
    CatalogEntry("lens-3punctured-2-2-1", lambda: catalog_lens_3punctured(2, 2, 1),
                 AbelianGroup(0, (8,)), 2),
]


def build(name: str, *params: int | str) -> OpenBook:
    """CLI entry: construct a catalog book by name.

    Every parameter has a default, and each is an integer but hopf's
    kind.  An unknown name, too many parameters or a parameter that is
    no integer raises ValueError naming the book (CLI exit 2).
    """
    table = {
        "disk": lambda: catalog_s3_disk(),
        "hopf": lambda kind="conjugation": catalog_hopf(str(kind)),
        "fig4": lambda k=1: catalog_fig4(k),
        "fig5": lambda k=1: catalog_fig5(k),
        "fig6": lambda k=1: catalog_fig6(k),
        "lens-annulus": lambda n=1: catalog_lens_annulus(n),
        "lens-3punctured": lambda p=1, q=1, r=1: catalog_lens_3punctured(p, q, r),
    }
    if name not in table:
        raise ValueError(f"unknown catalog book {name!r}; known books: {', '.join(sorted(table))}")
    make = table[name]
    takes = make.__code__.co_varnames[:make.__code__.co_argcount]
    if len(params) > len(takes):
        allowed = (f"at most {len(takes)} parameter{'s' * (len(takes) > 1)}: {' '.join(takes)}"
                   if takes else "no parameters")
        raise ValueError(f"catalog book {name!r} takes {allowed}; got {len(params)}")
    return make(*(value if key == "kind" else _integer_param(name, key, value)
                  for key, value in zip(takes, params)))


def _integer_param(book: str, key: str, value: int | str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"catalog book {book!r} parameter {key} must be an integer, "
                         f"got {value!r}") from None
