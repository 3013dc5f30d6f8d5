"""The central object (page, monodromy, involution) and what is read
off it: the reality check as a tri-state, and first homology of the
underlying closed 3-manifold.

The nine positive real stabilizations live in realbook.stabilization,
which a process that only reads a book never loads.  stabilize,
enumerate_sites and _stab_{T} still resolve here (module __getattr__):
the first lookup loads that module and binds the name in this one.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Mapping, Sequence

from .errors import StabilizationError  # noqa: F401  (re-exported for callers of stabilize)
from .intalg import IntMatrix, AbelianGroup, cokernel
from .mcg import (
    TwistWord,
    conjugate,
    invert,
    transport_arcs,
    transvect,
    word_matrix,
    words_equal,
)
from .records import record
from .surface import (
    FixedSet,
    Involution,
    SurfaceModel,
    combine,
    image_holds,
    involution_is_valid,
    unit,
    vec_scale,
)


class Reality(enum.Enum):
    CERTIFIED_REAL = "CertifiedReal"
    HOMOLOGICALLY_REAL = "HomologicallyReal"
    NOT_REAL = "NotReal"


@record
class RealityStatus:
    kind: Reality
    witness: object = None

    def __bool__(self) -> bool:
        return self.kind is not Reality.NOT_REAL


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


@record
class OpenBook:
    """A real open book.  Frozen: the verdict of check_reality and the
    monodromy matrix are memoized on the instance, outside the fields,
    so they take no part in ==, repr or JSON, and a book made with
    records.replace starts without them."""

    page: SurfaceModel
    monodromy: TwistWord
    real_structure: Involution
    fix_plus: FixedSet | None = None
    provenance: tuple[StabRecord, ...] = ()

    @cached_property
    def _reality(self) -> RealityStatus:
        return _reality_of(self)

    @cached_property
    def _chain_blocks(self) -> tuple[bool, TwistWord]:
        """Whether every recorded provenance block certifies, and the base
        word left when they are peeled; (False, ()) when one fails.  A book
        made by stabilize has it seeded from its parent (_seed_chain_blocks)."""
        return _chain_blocks_of(self)

    @cached_property
    def _involution_valid(self) -> bool:
        """Whether every check of validate_involution passes.  A book made
        by stabilize has it seeded True, as stabilize refuses any other."""
        return involution_is_valid(self.page, self.real_structure)

    @cached_property
    def monodromy_matrix(self) -> IntMatrix:
        """F, the action of the monodromy on H1 of the page."""
        return word_matrix(self.page, self.monodromy)


# ---------------------------------------------------------------------------
# reality


def _mirror_functional(c: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    """-C^T v = -sum_i v_i row_i(C), over the nonzeros of v: the pairing
    row of the mirror c(gamma) of an arc or curve whose row is v (the
    reference arcs here, the new curve of types VI and VIII)."""
    return tuple(-x for x in combine(((i, x) for i, x in enumerate(v) if x), c.rows, c.ncols))


def _arc_identity_holds(ob: OpenBook, f_inv: IntMatrix) -> tuple[bool, object]:
    """Boundary-transport part of f^-1 = c f c on declared data, given
    F^-1.

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
        lhs = vec_scale(-1, f_inv.apply(cls))
        rhs = c.apply(cls_mirrored)
        if tuple(lhs) != tuple(rhs):
            return False, {"boundary": cid, "lhs": tuple(lhs), "rhs": tuple(rhs)}
    return True, None


def _peel_block(model: SurfaceModel, rec: StabRecord, w: TwistWord,
                cols: list[list[int]]) -> bool:
    """Check one provenance block at the front of w, and peel it.

    The block's sigma must open w and conjugate letterwise to its own
    inverse under the recorded c~ images.  cols are the columns of the
    real structure as it stands with the block applied, C~ Sigma; they
    are updated in place by the transposed transvections of Sigma^-1,
    so they become the columns of C~ and no block pays a dense product.
    The recorded images must agree with C~ (surface.image_holds, sparse
    per image).
    """
    if w[:len(rec.sigma)] != rec.sigma or conjugate(rec.images, rec.sigma) != invert(rec.sigma):
        return False
    transvect(model, invert(rec.sigma)[::-1], cols, transposed=True)
    return all(image_holds(model, cols, name, img, s) for name, (img, s) in rec.images.items())


def _chain_blocks_of(ob: OpenBook) -> tuple[bool, TwistWord]:
    """Peel every provenance block, newest first (see _peel_block): whether
    all certify, and the base word left; (False, ()) at the first that
    fails."""
    cols = [list(col) for col in ob.real_structure.matrix.transpose().rows]
    w = ob.monodromy
    for rec in reversed(ob.provenance):
        if not _peel_block(ob.page, rec, w, cols):
            return False, ()
        w = w[len(rec.sigma):]
    return True, w


def _seed_chain_blocks(parent: OpenBook, child: OpenBook) -> None:
    """Set the chain memo of a book made from parent by one stabilization:
    the parent's memo and a check of the new block alone.

    Lemma: peeling the child's blocks below the new one repeats the
    parent's peel.  After the new block is peeled, the columns are those
    of the naive extension C~, and the word is the parent's.  Then:
      * C~ acts as C on the old classes, so its old columns are C's
        widened by zeros;
      * old curve classes are extended by zeros, and so is J a for an
        old curve a on the old coordinates;
      * earlier blocks read only old coordinates: a transvection by an
        old curve reads the columns at the nonzeros of a, and the image
        checks read those at the nonzeros of old classes, so what it
        writes into the new columns is never read, and the old columns
        keep zero new coordinates;
      * curve_image gains only new names, and the page's disjointness
        changes only for pairs that name a new curve: the root's pairs
        are the parent's object, and a new curve's pairs follow from its
        birth (SurfaceModel.births).  The block checks read neither
        (only the base-word check does, and it stays fresh in
        _provenance_certificate).
    So each earlier block certifies on the child exactly when it does on
    the parent.  The new block is checked by _peel_block on the columns
    of the child's C~ Sigma, transvected by Sigma^-1 and compared with
    its images.  The new names are fresh, as _start_builder picks names
    the parent's page lacks.  When the word does not continue as the
    parent's (an unreduced word read from JSON), nothing is seeded and
    the memo is peeled fresh when asked for.
    """
    rec = child.provenance[-1]
    if child.monodromy[len(rec.sigma):] != parent.monodromy:
        return
    ok, base = parent._chain_blocks
    if ok:
        cols = [list(col) for col in child.real_structure.matrix.transpose().rows]
        ok = _peel_block(child.page, rec, child.monodromy, cols)
    vars(child)["_chain_blocks"] = (True, base) if ok else (False, ())


def _provenance_certificate(ob: OpenBook) -> bool:
    """Word-level certificate threaded through the stabilization records.

    Each stabilization contributes the displayed identity: its sigma
    block conjugates letterwise to its own inverse under the recorded
    c~ images (the memo _chain_blocks, seeded from the parent for a
    stabilized book).  Peeling blocks reduces to the base book, which
    must certify letterwise with the inherited curve images; that check
    is made fresh.
    """
    ok, w = ob._chain_blocks
    if not ok:
        return False
    cw = conjugate(ob.real_structure.curve_image, w)
    return cw is not None and words_equal(ob.page, cw, invert(w))


def check_reality(ob: OpenBook) -> RealityStatus:
    """Tri-state reality of the monodromy against the real structure.

    Word level first (sound, incomplete); the homology level is
    necessary but not sufficient, so a clean pass there reports
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

    f = ob.monodromy_matrix
    f_inv = word_matrix(model, invert(w))
    c = inv.matrix
    lhs = c @ f @ c
    if lhs != f_inv:
        # the first basis vector e_j they move apart: column j of each
        for j, (cfc, f_inverse) in enumerate(zip(lhs.transpose().rows, f_inv.transpose().rows)):
            if cfc != f_inverse:
                return RealityStatus(
                    Reality.NOT_REAL,
                    witness={"vector": unit(model.h1_rank, j), "cfc": cfc, "f_inverse": f_inverse},
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
    zero and the others the transported reference-arc classes.  The
    columns of F are the rows of its transpose, and every reference arc
    is transported in one pass of the word.
    """
    model = ob.page
    rank = model.h1_rank
    cols: list[list[int]] = []
    for j, row in enumerate(ob.monodromy_matrix.transpose().rows):
        col = list(row)
        col[j] -= 1
        cols.append(col + [0])
    bp = model.basepoint
    others = sorted(cid for cid in model.circles if cid != bp)
    moved = transport_arcs(model, ob.monodromy, [model.ref_arcs[cid] for cid in others])
    cols.append([0] * rank + [1])
    cols.extend(list(cls) + [1] for cls, _row in moved)
    rel = IntMatrix.from_columns(cols, rank + 1)
    return cokernel(rel)


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
