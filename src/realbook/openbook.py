"""The central object (page, monodromy, involution) and what is read
off it: the reality check as a tri-state, and first homology of the
underlying closed 3-manifold.

The nine positive real stabilizations live in realbook.stabilization,
which a process that only reads a book never loads.  stabilize,
enumerate_sites and _stab_{T} still resolve here (module __getattr__):
the first lookup loads that module and binds the name in this one.
stabilize reads a book's door memo (OpenBook._door), and opens the door
of each book it makes once that book's new block passes its block check;
any other book decides its door here.  The stabilization chain of a
book's provenance is peeled here, through mcg.times_word, when its
verdict is first asked for.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from functools import cached_property, partial
from typing import Mapping, Sequence

from .errors import StabilizationError  # noqa: F401  (re-exported for callers of stabilize)
from .intalg import AbelianGroup, cokernel
from .mcg import (
    TwistWord,
    conjugate,
    invert,
    times_word,
    transport_arcs,
    word_matrix,
    words_equal,
)
from .records import record, replace
from .surface import (
    CheckResult,
    FixedSet,
    Involution,
    Rows,
    Sparse,
    SurfaceModel,
    arc_endpoints_check,
    dense,
    entries,
    failures,
    image_holds,
    sparse,
    sparse_column,
    sparse_combine,
    sparse_scale,
    sparse_transpose,
    validate_involution,
    validate_page,
)


class Reality(enum.Enum):
    CERTIFIED_REAL = "CertifiedReal"
    HOMOLOGICALLY_REAL = "HomologicallyReal"
    NOT_REAL = "NotReal"


@record
class RealityStatus:
    kind: Reality
    witness: object = None


@record
class StabRecord:
    """Provenance of one stabilization, enough to re-verify the word
    certificate (f~ o sigma)^-1 = (c~ o sigma)(f~ o sigma)(c~ o sigma)."""

    tag: str
    site: tuple
    sigma: TwistWord
    images: Mapping[str, tuple[str, int]]  # curve images under the naive extension c~


@record
class StabType:
    """One positive real stabilization type.  Its handles are attached in
    a collar of the binding, so its new curves miss every older curve
    when disjoint_old holds, and each other when disjoint_mutual holds
    (type IV's two chords cross); these two flags are the whole rule for
    the disjoint pairs of a stabilized page (SurfaceModel.births)."""

    tag: str
    handle_count: int
    boundary_kind: str       # "reflection" | "swap"
    boundary_delta: int
    core_sign: int           # c~ maps each new curve to core_sign times its mirror
    site_keys: tuple[str, ...]  # the keys of a site that the type reads
    description: str
    disjoint_old: bool = False
    disjoint_mutual: bool = False


STAB_TYPES: dict[str, StabType] = {
    "I": StabType("I", 1, "reflection", +1, +1, ("boundary",),
                  "handle at the two real points of one boundary circle"),
    "II": StabType("II", 1, "reflection", +1, -1, ("boundary", "shadow"),
                   "handle at a swapped interval pair on one boundary circle",
                   disjoint_old=True, disjoint_mutual=True),
    "III": StabType("III", 2, "reflection", +2, +1, ("boundary",),
                    "mirror handle pair, both chords in one complementary arc",
                    disjoint_old=True, disjoint_mutual=True),
    "IV": StabType("IV", 2, "reflection", 0, +1, ("boundary", "shadow"),
                   "mirror handle pair with crossing chords on one circle",
                   disjoint_old=True),
    "V": StabType("V", 1, "reflection", -1, +1, ("boundaries",),
                  "handle at real points on two circles joined by a fixed arc"),
    "VI": StabType("VI", 2, "reflection", 0, +1, ("boundaries",),
                   "mirror handle pair connecting two reflection circles"),
    "VII": StabType("VII", 1, "swap", -1, -1, ("boundaries", "cross"),
                    "single handle connecting a swapped circle pair"),
    "VIII": StabType("VIII", 2, "swap", 0, +1, ("boundaries",),
                     "handle pair, each connecting both circles of a swapped pair"),
    "IX": StabType("IX", 2, "swap", +2, +1, ("boundaries",),
                   "handle pair, one handle on each circle of a swapped pair",
                   disjoint_old=True, disjoint_mutual=True),
}


def recorded_births(provenance: Sequence[StabRecord]) -> dict[str, tuple[int, StabType]]:
    """The births a provenance records, as the book reader derives them:
    record i makes the curves its sigma names at step i."""
    return {name: (i, STAB_TYPES[rec.tag])
            for i, rec in enumerate(provenance) for name, _ in rec.sigma}


def _with_recorded_births(page: SurfaceModel, provenance: Sequence[StabRecord]) -> SurfaceModel:
    """The page with the births its provenance records: the page itself
    when it has them; when the records are its last steps, a copy whose
    pairs that name no recorded curve are root pairs, as the reader
    reads its text back; else the page itself, which the writer
    refuses."""
    births = recorded_births(provenance)
    if births == page.births:
        return page
    steps = [(st, set(names)) for st, names in page.birth_steps()]
    mine = [(STAB_TYPES[rec.tag], {name for name, _ in rec.sigma})
            for rec in provenance if rec.sigma]
    if steps[len(steps) - len(mine):] != mine:
        return page
    made = births.keys()
    return replace(page, births=births, disjoint=frozenset(
        frozenset(pair) for pair in page.disjoint_pairs() if made.isdisjoint(pair)))


@record
class OpenBook:
    """A real open book.  Frozen: the verdict of check_reality and the
    monodromy matrix are memoized on the instance, outside the fields,
    so they take no part in ==, repr or JSON, and a book made with
    records.replace starts without them.  Its page holds the births its
    provenance records (_with_recorded_births)."""

    page: SurfaceModel
    monodromy: TwistWord
    real_structure: Involution
    fix_plus: FixedSet | None = None
    provenance: tuple[StabRecord, ...] = ()

    def __post_init__(self):
        self.__dict__["page"] = _with_recorded_births(self.page, self.provenance)

    @cached_property
    def _reality(self) -> RealityStatus:
        return _reality_of(self)

    @cached_property
    def _door(self) -> str | None:
        """Why stabilize refuses this book, or None: a NotReal verdict,
        then the failing checks of validate_book, the involution's
        first.  A book stabilize makes has it set None by the block check
        of its new block (stabilization._finish)."""
        if check_reality(self).kind is Reality.NOT_REAL:
            return "refusing to stabilize a NotReal book"
        checks = validate_book(self)
        failed = failures(checks["involution"])
        if failed:
            return f"refusing to stabilize a book whose involution fails validation: {failed}"
        failed = failures(checks["page"] + checks["plus"])
        return f"refusing to stabilize a book that fails validation: {failed}" if failed else None

    @cached_property
    def monodromy_matrix(self) -> Rows:
        """F, the action of the monodromy on H1 of the page, as sparse
        rows."""
        return word_matrix(self.page, self.monodromy)


def validate_book(ob: OpenBook) -> dict[str, list[CheckResult]]:
    """The checks of a book by section, as validate reports them: the
    involution's (validate_involution), the page's (validate_page), and
    the plus side's: the opposite page's fixed arcs, when tracked, end
    on the same binding fixed points as the page's own."""
    plus = [] if ob.fix_plus is None else [
        arc_endpoints_check(ob.real_structure.fixed_points, ob.fix_plus.arcs)]
    return {"involution": validate_involution(ob.page, ob.real_structure),
            "page": validate_page(ob.page), "plus": plus}


# ---------------------------------------------------------------------------
# reality


def _mirror_functional(c: Rows, v: Sparse) -> Sparse:
    """-C^T v = -sum_i v_i row_i(C), over the nonzeros of v and of those
    sparse rows: the pairing row of the mirror c(gamma) of an arc or
    curve whose sparse row is v (the reference arcs here, the new curve
    of types VI and VIII)."""
    return sparse_scale(-1, sparse_combine(v, c))


def _arc_identity_holds(ob: OpenBook, f_inv: Rows) -> tuple[bool, object]:
    """Boundary-transport part of f^-1 = c f c on declared data, given
    the sparse rows of F^-1.

    For every reference arc gamma:  -F^-1 (f(gamma) - gamma)  must equal
    C applied to the transport defect of c(gamma), whose pairing row is
    -C^T (row of gamma).  The arcs and their mirrors go through the
    word in one pass.
    """
    model, w = ob.page, ob.monodromy
    c = ob.real_structure.matrix
    cids = sorted(model.ref_arcs)
    rows = [model.ref_arcs[cid] for cid in cids]
    moved = transport_arcs(model, w, rows + [_mirror_functional(c, row) for row in rows])
    for cid, (cls, _row), (cls_mirrored, _row_mirrored) in zip(cids, moved, moved[len(cids):]):
        lhs = tuple(-sum([x * cls[i] for i, x in entries(r)]) for r in f_inv)
        rhs = tuple(sum([x * cls_mirrored[i] for i, x in entries(r)]) for r in c)
        if lhs != rhs:
            return False, {"boundary": cid, "lhs": lhs, "rhs": rhs}
    return True, None


def _chain_blocks_of(ob: OpenBook) -> tuple[bool, TwistWord]:
    """Peel every provenance block, newest first: whether all certify,
    and the base word left; (False, ()) at the first that fails.

    A block's sigma must open the word and conjugate letterwise to its
    own inverse under the recorded c~ images.  The rows are those of the
    real structure as it stands with the block applied, C~ Sigma; the
    twists of Sigma^-1 take them to the rows of C~ (mcg.times_word,
    which rewrites only the rows a letter moves), and the recorded
    images must agree with C~ (surface.image_holds, sparse per image,
    on the columns of those rows at the nonzeros of each imaged class).
    """
    model = ob.page
    rows: Rows = ob.real_structure.matrix
    w = ob.monodromy
    for rec in reversed(ob.provenance):
        if w[:len(rec.sigma)] != rec.sigma or conjugate(rec.images, rec.sigma) != invert(rec.sigma):
            return False, ()
        rows = times_word(rows, model, invert(rec.sigma))
        column = partial(sparse_column, rows)
        if not all(image_holds(model, column, name, img, s)
                   for name, (img, s) in rec.images.items()):
            return False, ()
        w = w[len(rec.sigma):]
    return True, w


def _provenance_certificate(ob: OpenBook) -> bool:
    """Word-level certificate threaded through the stabilization records.

    Each stabilization contributes the displayed identity: its sigma
    block conjugates letterwise to its own inverse under the recorded
    c~ images (_chain_blocks_of).  Peeling blocks reduces to the base
    book, which must certify letterwise with the inherited curve images.
    It runs at most once per book, under the memo of its verdict.
    """
    ok, w = _chain_blocks_of(ob)
    if not ok:
        return False
    cw = conjugate(ob.real_structure.curve_image, w)
    return cw is not None and words_equal(ob.page, cw, invert(w))


def check_reality(ob: OpenBook) -> RealityStatus:
    """Tri-state reality of the monodromy against the real structure.

    Word level first: sound, and complete for free reduction plus
    commutation of disjoint curves (mcg.words_equal), but blind to every
    other relation, braid and lantern ones included; the homology level
    is necessary but not sufficient, so a clean pass there reports
    HomologicallyReal.  NotReal is definitive and carries a witness.
    Computed once per book and memoized on it.
    """
    return ob._reality


def _reality_of(ob: OpenBook) -> RealityStatus:
    model, w = ob.page, ob.monodromy
    inv = ob.real_structure
    cw = conjugate(inv.curve_image, w)
    if cw is not None:
        if words_equal(model, cw, invert(w)):
            return RealityStatus(Reality.CERTIFIED_REAL, witness=cw)
    if ob.provenance and _provenance_certificate(ob):
        return RealityStatus(Reality.CERTIFIED_REAL, witness="stabilization chain")

    # C F C against F^-1 row by row: row i of C F C is row i of C
    # combined over the rows of F, then over the rows of C
    f, c = ob.monodromy_matrix, inv.matrix
    f_inv = word_matrix(model, invert(w))
    cfc = tuple(sparse_combine(sparse_combine(r, f), c) for r in c)
    if cfc != f_inv:
        # the first basis vector e_j they move apart: column j of each
        n = model.h1_rank
        for j, (x, y) in enumerate(zip(sparse_transpose(cfc), sparse_transpose(f_inv))):
            if x != y:
                return RealityStatus(
                    Reality.NOT_REAL,
                    witness={"vector": tuple(dense((j, 1), n)), "cfc": tuple(dense(x, n)),
                             "f_inverse": tuple(dense(y, n))},
                )
    ok, wit = _arc_identity_holds(ob, f_inv)
    if not ok:
        return RealityStatus(Reality.NOT_REAL, witness=wit)
    return RealityStatus(Reality.HOMOLOGICALLY_REAL)


# ---------------------------------------------------------------------------
# first homology of the underlying 3-manifold


def h1_of_manifold(ob: OpenBook) -> AbelianGroup:
    """H1 of the closed manifold described by the open book.

    Generators H1(page) + Z<t>; relations im(F - I) together with
    t + delta_i = 0 per boundary, delta at the basepoint boundary being
    zero and the others the transported reference-arc classes, one per
    column.  Row i of the relation matrix is row i of F with 1
    subtracted at i in place, then the 0 of t's column, then the
    nonzeros at i of the transported classes, collected for every i in
    one pass over the classes; the last row is t's.  The rows are
    sparse, and cokernel eliminates their unit entries before any Smith
    form.  Every reference arc is transported in one pass of the word.
    """
    model = ob.page
    rank = model.h1_rank
    bp = model.basepoint
    others = sorted(cid for cid in model.circles if cid != bp)
    moved = transport_arcs(model, ob.monodromy, [model.ref_arcs[cid] for cid in others])
    at: list[list[int]] = [[] for _ in range(rank)]
    for col, (cls, _row) in enumerate(moved, rank + 1):
        for i, x in entries(sparse(cls)):
            at[i] += (col, x)
    rel = [_less_unit(row, i) + tuple(at_i)
           for i, (row, at_i) in enumerate(zip(ob.monodromy_matrix, at))]
    rel.append(sparse([1] * (1 + len(moved)), rank))
    return cokernel(rel)


def _less_unit(row: Sparse, i: int) -> Sparse:
    """row - e_i, sparse: the entry at i, found by bisection of the
    row's indices, less 1."""
    idx = row[::2]
    k = bisect_left(idx, i)
    if k < len(idx) and idx[k] == i:
        x = row[2 * k + 1] - 1
        return row[:2 * k] + ((i, x) if x else ()) + row[2 * k + 2:]
    return row[:2 * k] + (i, -1) + row[2 * k:]


# ---------------------------------------------------------------------------
# stabilization, loaded on first use


_STABILIZATION_NAMES = frozenset(
    ["stabilize", "enumerate_sites"] + [f"_stab_{tag}" for tag in STAB_TYPES])


def __getattr__(name: str):
    """PEP 562: openbook.stabilize, openbook.enumerate_sites and
    openbook._stab_{T} are the functions of realbook.stabilization,
    loaded when one is first asked for and then bound here, so a wrapper
    set on either module's name (as the benchmark's tracer sets on every
    module that binds the function) is the one stabilize dispatches to."""
    if name not in _STABILIZATION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import stabilization

    value = globals()[name] = getattr(stabilization, name)
    return value
