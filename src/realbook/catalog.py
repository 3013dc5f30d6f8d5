"""Worked example books: disk and Hopf books, the three stabilization
families over the round 3-sphere, and the lens-space books.

Every constructor returns a fully tracked book (both fixed sets
populated), certified real, with the expected invariants recorded in
ENTRIES for the verification suites.  The root books start from the
standard pages (standard_surface) and their documented involutions
(standard_involution), which are built here and nowhere else.  Only the
fig4, fig5 and fig6 ladders stabilize, so only they load
realbook.stabilization; a process that builds a root book does not
compile it.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable

from .intalg import AbelianGroup
from .mcg import word
from .openbook import OpenBook
from .records import record
from .surface import (
    FixArc,
    FixedSet,
    Involution,
    Rows,
    Sparse,
    SurfaceModel,
    sparse,
    sparse_add,
    sparse_scale,
    sparse_transpose,
)


def _symplectic_block(g: int, extra: int) -> Rows:
    """The form of the standard basis, as sparse rows: <a_i, b_i> = +1,
    and the extra boundary classes pair with nothing."""
    pairs = (((2 * i + 1, 1), (2 * i, -1)) for i in range(g))
    return tuple(chain.from_iterable(pairs)) + ((),) * extra


def standard_surface(g: int, b: int) -> SurfaceModel:
    """Standard page of genus g with b boundary circles.

    Basis: symplectic pairs (a_i, b_i) with <a_i, b_i> = +1 followed by
    the boundary-parallel classes d_1 .. d_{b-1}.  The alphabet holds
    curves realizing every basis class plus d_b (the negated sum), and a
    reference arc runs from boundary 1 to each other boundary.
    """
    if b < 1:
        raise ValueError("open book pages need binding: b >= 1")
    if g < 0:
        raise ValueError("genus must be >= 0")
    rank = 2 * g + b - 1
    basis: list[str] = []
    for i in range(1, g + 1):
        basis.extend((f"a{i}", f"b{i}"))
    basis.extend(f"d{j}" for j in range(1, b))
    form = _symplectic_block(g, b - 1)

    alphabet: dict[str, Sparse] = {name: (idx, 1) for idx, name in enumerate(basis)}
    # the last boundary curve is determined by the others
    alphabet[f"d{b}"] = tuple(chain.from_iterable((2 * g + j, -1) for j in range(b - 1)))

    # reference arc pairing rows, one per boundary 2..b, indexed by basis
    ref_arcs: dict[int, Sparse] = {}
    for i in range(2, b + 1):
        row = [0] * rank
        row[2 * g] -= 1
        if i <= b - 1:
            row[2 * g + i - 1] += 1
        # for i == b the +1 crossing sits on d_b, which is not a basis
        # vector; linearity over the basis already encodes it
        ref_arcs[i] = sparse(row)

    circles = {i: alphabet[f"d{i}"] for i in range(1, b + 1)}

    # every standard pair of curves is disjoint except the dual pairs (a_i, b_i)
    def dual_pair(x: str, y: str) -> bool:
        return x[0] in "ab" and y[0] in "ab" and x[0] != y[0] and x[1:] == y[1:]

    names = list(alphabet)
    disjoint = set()
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            if not dual_pair(x, y):
                disjoint.add(frozenset((x, y)))

    return SurfaceModel(
        circles=circles,
        basis=tuple(basis),
        form=form,
        alphabet=alphabet,
        ref_arcs=ref_arcs,
        disjoint=frozenset(disjoint),
    )


def standard_involution(model: SurfaceModel, kind: str) -> Involution:
    """Construct one of the documented involutions on a standard page.

    Descriptors cover exactly the real structures used by the worked
    examples; adding a new conjugacy class means adding a branch here.

      disk-reflection            (0,1)  one fixed diameter
      annulus-reflection         (0,2)  c(core) = -core, two fixed arcs
      planar-reflection          (0,b)  reflection fixing every boundary
      boundary-swap              (0,2k) free involution swapping circles
                                        i <-> i+k
    """
    g, b = model.genus, model.boundary_count
    rank = model.h1_rank

    if kind in ("disk-reflection", "planar-reflection"):
        if g != 0:
            raise ValueError(f"{kind} needs a planar page")
        if kind == "disk-reflection" and b != 1:
            raise ValueError("disk-reflection needs b = 1")
        c = tuple((i, -1) for i in range(rank))
        perm = {i: i for i in range(1, b + 1)}
        fixed_points = {i: (2 * i - 1, 2 * i) for i in range(1, b + 1)}
        arcs = []
        if b == 1:
            arcs.append(FixArc(ends=((1, 1), (1, 2)), pair_curves=()))
        else:
            for i in range(1, b + 1):
                j = i + 1 if i < b else 1
                row = [0] * rank
                if i <= b - 1:
                    row[2 * g + i - 1] -= 1
                if j <= b - 1:
                    row[2 * g + j - 1] += 1
                arcs.append(
                    FixArc(ends=((i, fixed_points[i][1]), (j, fixed_points[j][0])), pair_curves=sparse(row))
                )
        image = {f"d{i}": (f"d{i}", -1) for i in range(1, b + 1)}
        return Involution(
            matrix=c,
            boundary_perm=perm,
            fixed_points=fixed_points,
            fixed_set=FixedSet(arcs=tuple(arcs)),
            curve_image=image,
        )

    if kind == "annulus-reflection":
        if (g, b) != (0, 2):
            raise ValueError("annulus-reflection needs (g, b) = (0, 2)")
        c = ((0, -1),)
        fixed_points = {1: (1, 2), 2: (3, 4)}
        arcs = (
            FixArc(ends=((1, 1), (2, 3)), pair_curves=(0, 1), pair_arcs={2: 0}),
            FixArc(ends=((1, 2), (2, 4)), pair_curves=(0, -1), pair_arcs={2: 0}),
        )
        image = {"d1": ("d1", -1), "d2": ("d2", -1)}
        return Involution(
            matrix=c,
            boundary_perm={1: 1, 2: 2},
            fixed_points=fixed_points,
            fixed_set=FixedSet(arcs=arcs),
            curve_image=image,
        )

    if kind == "boundary-swap":
        if g != 0 or b % 2 != 0 or b < 2:
            raise ValueError("boundary-swap needs a planar page with an even number of circles")
        k = b // 2
        perm = {}
        for i in range(1, k + 1):
            perm[i] = i + k
            perm[i + k] = i
        c = sparse_transpose([sparse_scale(-1, model.curve(f"d{perm[i]}")) for i in range(1, b)])
        image = {f"d{i}": (f"d{perm[i]}", -1) for i in range(1, b + 1)}
        if b == 2:
            # on the annulus every essential circle is isotopic to the core,
            # so the free involution fixes each curve up to isotopy
            image = {"d1": ("d1", 1), "d2": ("d2", 1)}
        return Involution(
            matrix=c,
            boundary_perm=perm,
            fixed_points={},
            fixed_set=FixedSet(),
            curve_image=image,
        )

    raise ValueError(f"unknown involution descriptor {kind!r}")



def catalog_s3_disk() -> OpenBook:
    """Disk page, identity monodromy: the round real 3-sphere."""
    page = standard_surface(0, 1)
    inv = standard_involution(page, "disk-reflection")
    return OpenBook(page=page, monodromy=(), real_structure=inv,
                    fix_plus=inv.fixed_set)


def catalog_hopf(variant: str) -> OpenBook:
    """Positive Hopf band book of the 3-sphere, one twist on the annulus.

    variant "conjugation": the involution preserves each binding circle,
    so the page structure is the reflection across the spanning arcs;
    this is catalog_lens_annulus(1), as L(1, 0) = S^3.
    variant "swap": the involution exchanges the binding circles and
    acts freely on this page; the opposite page holds the fixed core.
    """
    if variant == "conjugation":
        return catalog_lens_annulus(1)
    if variant == "swap":
        page = standard_surface(0, 2)
        inv = standard_involution(page, "boundary-swap")
        return OpenBook(page=page, monodromy=word([("d1", 1)]), real_structure=inv,
                        fix_plus=FixedSet(circles=((0, 1),)))
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
        FixArc(ends=ends[0], pair_curves=(0, 1), pair_arcs={2: (n + 1) // 2}),
        FixArc(ends=ends[1], pair_curves=(0, -1), pair_arcs={2: n // 2}),
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
        pc = arc.pair_curves
        pa = dict(arc.pair_arcs)
        for cid, _pid in arc.ends:
            w = exps[cid]
            name = f"d{cid}"
            pc = sparse_add(pc, page.curve_vectors(name).jta, w)
            for tgt, cross in zip(sorted(page.ref_arcs), page.curve_tables(name)[1]):
                pa[tgt] = pa.get(tgt, 0) - w * cross
        plus_arcs.append(FixArc(ends=arc.ends, pair_curves=pc, pair_arcs=pa))
    plus = FixedSet(arcs=tuple(plus_arcs))
    return OpenBook(page=page, monodromy=mono, real_structure=inv, fix_plus=plus)


def catalog_fig4(k: int) -> OpenBook:
    """Odd-genus splitting family: one type I then k-1 type VIII moves."""
    from .stabilization import stabilize

    if k < 1:
        raise ValueError("need k >= 1")
    ob = stabilize(catalog_s3_disk(), "I", {"boundary": 1})
    for _ in range(k - 1):
        pair = _swap_pair_ids(ob)
        ob = stabilize(ob, "VIII", {"boundaries": pair})
    return ob


def catalog_fig5(k: int) -> OpenBook:
    """Even-genus splitting family with separating real part: k type III."""
    from .stabilization import stabilize

    if k < 1:
        raise ValueError("need k >= 1")
    ob = catalog_s3_disk()
    for _ in range(k):
        ob = stabilize(ob, "III", {"boundary": 1})
    return ob


def catalog_fig6(k: int) -> OpenBook:
    """Even-genus splitting family with nonseparating real part:
    two type II moves, then k-1 type III."""
    from .stabilization import stabilize

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
    kind.  An unknown name, too many parameters, a parameter that is no
    integer, a k or n below 1 or a kind other than HOPF_KINDS raises
    ValueError naming the book and the parameter (CLI exit 2).
    """
    table = {
        "disk": lambda: catalog_s3_disk(),
        "hopf": lambda kind="conjugation": catalog_hopf(kind),
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
    return make(*(_param(name, key, value) for key, value in zip(takes, params)))


HOPF_KINDS = ("conjugation", "swap")


def _param(book: str, key: str, value: int | str) -> int | str:
    """A parameter of a catalog book, checked: hopf's kind is one of
    HOPF_KINDS, a ladder's k and a lens space's n are integers of at
    least 1, and lens-3punctured's exponents any integers."""
    if key == "kind":
        if value not in HOPF_KINDS:
            raise ValueError(f"catalog book {book!r} parameter kind must be "
                             f"{' or '.join(HOPF_KINDS)}, got {value!r}")
        return value
    try:
        value = int(value)
    except ValueError:
        raise ValueError(f"catalog book {book!r} parameter {key} must be an integer, "
                         f"got {value!r}") from None
    if key in ("k", "n") and value < 1:
        raise ValueError(f"catalog book {book!r} parameter {key} must be at least 1, "
                         f"got {value}")
    return value
