"""Versioned JSON schema for open books (written as schema 3).

Books are shareable fixtures: the schema covers the page (genus,
boundary circles with their pushoff classes), the curve alphabet with
classes and involution images, reference arcs, the twist word, the
involution (matrix, boundary permutation, fixed points, fixed set), the
tracked opposite-page fixed set, the disjoint pairs no provenance
record gives, and the stabilization provenance.  parse(dump(book))
reproduces the book structurally.  The reader builds the page's
mappings as it parses (boundary id -> pushoff class in file order,
curve name -> class), and the writer writes the circles in that stored
order and the curves by name, so `new` gives back a written file's own
bytes whatever the order of its circle ids.  A file writes every class
and row dense, of the basis size, the rows of `page.form` and
`involution.matrix` too; the page and the involution store them sparse
(surface.Sparse, surface.Rows), so the reader converts each row once,
in the call that checks it (_row), and the writer renders each one's
text from its nonzeros (_row_writer), with no dense list between.

A file holds only what the reader cannot derive, but for `page.genus`
(SurfaceModel derives it from 2g + b - 1 = rank H1): the writer writes
the derived genus, and the reader refuses a negative one and one that
breaks that identity.  Schema 2 is schema 3 plus derived data: each
reference arc's `current_class`, its transport defect, zero on every
page, and the disjoint pairs that `provenance` gives.  Schema 1 is
schema 2 plus a curve's pairing tables, `pairings` (J times its class)
and `arc_pairings` (its crossing with each reference arc), on every
curve.  One parser reads all three with no branch on the version: each
derived field is optional, and one that is present is checked (a zero
`current_class`, tables equal to SurfaceModel.curve_tables, pairs the
rule gives).  The reader also rejects a form that is not antisymmetric
(its sparse rows against those of its transpose) and any class, pushoff
class, crossing vector or reference-arc row whose length is not the
basis size, a page without boundary circles, a repeated circle id,
reference arcs that are not one arc to each circle but the basepoint
(the least id), a reference-arc row off the boundary crossing pattern
(surface.crossing_residuals: the arc to circle l crosses the pushoff of
l +1 times, the basepoint's -1 times and no other), and a fixed arc's
pair_arcs key that names no reference-arc target.  The twist word is
stored freely reduced (mcg.free_reduce), once its curves are known, so
a book's verdict does not hang on how its word is spelled: the chain
peel of openbook needs each block's sigma at the front of the word.

A page stores only its root's disjoint pairs and its births
(SurfaceModel.births).  The reader derives the births from `provenance`
in record order (a record makes the curves its sigma names) and keeps
as root pairs the declared pairs that name no such curve
(SurfaceModel.with_births).  It rejects a provenance type that is not
in STAB_TYPES, a curve that two records make, and a declared pair that
names a born curve and whose curves meet by the rule
(`$.disjoint[i]`): SurfaceModel.meeting_lists is asked once for all
such pairs, and only when there is one, which schema 3 never writes.
A book's page holds the births its provenance records, derived as the
reader derives them (openbook.recorded_births): a book whose
provenance is trimmed from the front has the births no record makes
folded into root pairs, so it equals its read-back.  The writer writes the root pairs that name no
born curve, and refuses a book whose records are not its page's last
steps, whose page keeps births no record makes.

On disk `dumps` writes one top-level field per line, in sorted key
order, each value compact with sorted keys, as the stdlib C encoder
writes them (an `indent` would force its pure-Python one): the writer
renders the text itself, each small leaf by that encoder and each name
by its string function, so key order and escaping are the encoder's.
The reader takes any JSON whitespace.  Where the schema has an integer
it takes only a JSON integer: `true` and `2.0` are SchemaErrors, though
Python's bool is an int and `2.0 == 2`.  Where it has a string (basis
and curve names, provenance types) it takes only a JSON string, and an
object keyed by integers takes only keys written as `str` writes them,
so `"02"` and `"+2"` are SchemaErrors, not second names for boundary 2.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from .errors import SchemaError
from .mcg import TwistWord, free_reduce
from .openbook import STAB_TYPES, OpenBook, StabRecord, recorded_births
from .surface import (
    FixArc,
    FixedSet,
    Involution,
    Rows,
    Sparse,
    SurfaceModel,
    antisymmetric,
    crossing_residuals,
    dense,
    sparse,
)

SCHEMA_VERSION = 3
READABLE_SCHEMAS = (1, 2, 3)
CURVE_TABLES = ("pairings", "arc_pairings")
_INT_TYPE = frozenset((int,))


def _at(obj: Any, key: str, path: str, parse: Callable[..., Any], arg: Any = None) -> Any:
    """Field key of the object at path, as parse(value, f"{path}.{key}"[, arg])
    reads it (no *args: CPython does not specialize a call with them)."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing field {path}.{key}")
    if arg is None:
        return parse(obj[key], f"{path}.{key}")
    return parse(obj[key], f"{path}.{key}", arg)


def _each(x: Any, path: str, parse: Callable[[Any, str], Any]) -> list:
    """A list, each entry as parse(entry, f"{path}[{i}]") reads it."""
    return [parse(v, f"{path}[{i}]") for i, v in enumerate(_list(x, path))]


def _any(x: Any, path: str) -> Any:
    """A value whose own fields are read, each checked as it is read."""
    return x


def _int_list(x: Any, path: str) -> list[int]:
    """A list of integers, the list itself; a JSON boolean or float is
    not one, though Python's bool is an int subclass."""
    if not isinstance(x, list) or not _INT_TYPE.issuperset(map(type, x)):
        raise SchemaError(f"{path} must be a list of integers")
    return x


def _ints(x: Any, path: str) -> tuple[int, ...]:
    return tuple(_int_list(x, path))


def _row(x: Any, path: str, rank: int) -> Sparse:
    """A list of integers of the basis size, converted once, as it is
    checked, to the sparse form the page stores (surface.sparse)."""
    v = _int_list(x, path)
    if len(v) != rank:
        raise SchemaError(f"{path} has {len(v)} entries, not the basis size {rank}")
    return sparse(v)


def _square(x: Any, path: str, rank: int) -> Rows:
    """A square integer matrix of the basis size, one list per row, as
    its sparse rows."""
    rows = tuple([_row(r, f"{path}[{i}]", rank) for i, r in enumerate(_list(x, path))])
    if len(rows) != rank:
        raise SchemaError(f"{path} must be square of basis size")
    return rows


def _list(x: Any, path: str) -> list:
    if not isinstance(x, list):
        raise SchemaError(f"{path} must be a list")
    return x


def _object(x: Any, path: str) -> dict:
    if not isinstance(x, dict):
        raise SchemaError(f"{path} must be an object")
    return x


def _int_keyed(x: Any, path: str, value: Callable[[Any, str], Any]) -> dict[int, Any]:
    """A JSON object whose keys are integers written as strings; each
    value is checked and converted by value(v, its path).  A key must be
    the integer's own decimal text (str(int(k)) == k): int() also takes
    " 02", "+2" and "0_2", and two such keys would name one integer."""
    out = {}
    for k, v in _object(x, path).items():
        try:
            key = int(k)
        except ValueError:
            key = None
        if key is None or str(key) != k:
            raise SchemaError(f"{path} key {k!r} must be an integer")
        out[key] = value(v, f"{path}.{k}")
    return out


def _str(x: Any, path: str) -> str:
    if type(x) is not str:
        raise SchemaError(f"{path} must be a string")
    return x


def _int(x: Any, path: str) -> int:
    if type(x) is not int:
        raise SchemaError(f"{path} must be an integer")
    return x


def _pair(x: Any, path: str) -> tuple[str, int]:
    if not (isinstance(x, list) and len(x) == 2
            and isinstance(x[0], str) and type(x[1]) is int):
        raise SchemaError(f"{path} must be a [name, integer] pair")
    return (x[0], x[1])


def _names(x: Any, path: str) -> tuple[str, str]:
    """A pair of two distinct curve names: a curve is not disjoint from
    itself, and the writer could write such a pair only as one name."""
    if not (isinstance(x, list) and len(x) == 2
            and isinstance(x[0], str) and isinstance(x[1], str) and x[0] != x[1]):
        raise SchemaError(f"{path} must be a pair of two distinct curve names")
    return (x[0], x[1])


def _end(x: Any, path: str) -> tuple[int, int]:
    """An arc end: a [boundary id, point id] pair of integers."""
    end = _ints(x, path)
    if len(end) != 2:
        raise SchemaError(f"{path} must be a [boundary, point] pair")
    return end


def _letter(x: Any, path: str) -> tuple[str, int]:
    return (_at(x, "curve", path, _str), _at(x, "exp", path, _int))


def _fix_arc(a: Any, path: str, page: SurfaceModel) -> FixArc:
    """A fixed arc on the page; its pair_arcs keys must name reference-arc
    targets, as a crossing with any other boundary would be dropped."""
    ends = _at(a, "ends", path, _list)
    if len(ends) != 2:
        raise SchemaError(f"{path}.ends must have two entries")
    pair_arcs = _at(a, "pair_arcs", path, _int_keyed, _int)
    for l in pair_arcs:
        if l not in page.ref_arcs:
            raise SchemaError(f"{path}.pair_arcs names boundary {l}, "
                              f"which has no reference arc")
    return FixArc(ends=tuple(_each(ends, f"{path}.ends", _end)), pair_arcs=pair_arcs,
                  pair_curves=_at(a, "pair_curves", path, _row, page.h1_rank))


def _parse_fixed_set(obj: Any, path: str, page: SurfaceModel) -> FixedSet:
    return FixedSet(
        arcs=tuple(_at(obj, "arcs", path, _each, lambda a, apath: _fix_arc(a, apath, page))),
        circles=tuple(_at(obj, "circles", path, _each,
                          lambda c, cpath: _at(c, "h1_class", cpath, _row, page.h1_rank))))


def from_obj(obj: dict) -> OpenBook:
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    version = obj.get("schema")
    if type(version) is not int or version not in READABLE_SCHEMAS:
        raise SchemaError(f"$.schema must be one of {READABLE_SCHEMAS}, got {version!r}")
    pg = _at(obj, "page", "$", _any)
    genus = _at(pg, "genus", "$.page", _int)
    basis = tuple(_at(pg, "basis", "$.page", _each, _str))
    rank = len(basis)
    circles = {}
    for i, c in enumerate(_at(pg, "boundary", "$.page", _list)):
        path = f"$.page.boundary[{i}]"
        cid = _at(c, "id", path, _int)
        pclass = _at(c, "pclass", path, _row, rank)
        if cid in circles:
            raise SchemaError(f"{path}.id repeats boundary {cid}")
        circles[cid] = pclass
    if not circles:
        raise SchemaError("$.page.boundary must list at least one circle, the binding")
    # one reference arc runs from the basepoint, the least id, to each other circle
    bp = min(circles)
    targets = set(circles) - {bp}
    if genus < 0 or 2 * genus + len(circles) - 1 != rank:
        raise SchemaError(f"$.page.genus is {genus}, but a page with {len(circles)} boundary "
                          f"circles and {rank} basis classes needs 2g + b - 1 = {rank}, g >= 0")
    form = _at(pg, "form", "$.page", _square, rank)
    if not antisymmetric(form):
        raise SchemaError("$.page.form must be antisymmetric")

    alphabet = {}
    images = {}
    tables = []
    for i, c in enumerate(_at(obj, "alphabet", "$", _list)):
        path = f"$.alphabet[{i}]"
        name = _at(c, "name", path, _str)
        alphabet[name] = _at(c, "h1_class", path, _row, rank)
        if not c.keys().isdisjoint(CURVE_TABLES):
            tables.append((path, name, {key: _ints(c[key], f"{path}.{key}")
                                        for key in CURVE_TABLES if key in c}))
        if c.get("c_image") is not None:
            images[name] = _pair(c["c_image"], f"{path}.c_image")

    ref_arcs, arc_paths = {}, {}
    for i, a in enumerate(_at(obj, "ref_arcs", "$", _list)):
        path = f"$.ref_arcs[{i}]"
        cid = _at(a, "boundary", path, _int)
        # schema 3 writes no current_class; an older file's must be zero
        current_class = (_ints(a["current_class"], f"{path}.current_class")
                         if "current_class" in a else None)
        row = _at(a, "pairings", path, _int_list)
        if len(row) != rank or current_class is not None and len(current_class) != rank:
            raise SchemaError(f"reference arc to boundary {cid} ({path}) has a class or "
                              f"pairing row of the wrong length for rank {rank}")
        if current_class and any(current_class):
            raise SchemaError(f"{path}.current_class is {list(current_class)}, but a stored "
                              f"reference arc's transport defect is zero")
        if cid not in targets:
            raise SchemaError(f"{path}.boundary {cid} is not a boundary circle other "
                              f"than the basepoint {bp}")
        if cid in ref_arcs:
            raise SchemaError(f"{path}.boundary repeats boundary {cid}")
        ref_arcs[cid] = sparse(row)
        arc_paths[cid] = path
    if targets - set(ref_arcs):
        raise SchemaError(f"$.ref_arcs has no arc to boundary {min(targets - set(ref_arcs))}")
    for cid, residual in crossing_residuals(circles, ref_arcs):
        if any(residual):
            raise SchemaError(
                f"{arc_paths[cid]}.pairings is {dense(ref_arcs[cid], rank)}, but an arc "
                f"from the basepoint {bp} to boundary {cid} crosses the pushoff of {cid} "
                f"once (+1), of {bp} once (-1) and of no other boundary circle")

    declared = _at(obj, "disjoint", "$", _each, _names)
    page = SurfaceModel(circles=circles, basis=basis, form=form,
                        alphabet=alphabet, ref_arcs=ref_arcs)
    for path, name, stored in tables:
        for key, want in zip(CURVE_TABLES, page.curve_tables(name)):
            if stored.get(key, want) != want:
                raise SchemaError(f"{path}.{key} is {list(stored[key])}, "
                                  f"but the class gives {list(want)}")

    word: TwistWord = tuple(_at(obj, "word", "$", _each, _letter))
    for name, _ in word:
        if name not in alphabet:
            raise SchemaError(f"$.word uses unknown curve {name!r}")
    word = free_reduce(word)

    iv = _at(obj, "involution", "$", _any)
    inv = Involution(
        matrix=_at(iv, "matrix", "$.involution", _square, rank),
        boundary_perm=_at(iv, "boundary_perm", "$.involution", _int_keyed, _int),
        fixed_points=_at(iv, "fixed_points", "$.involution", _int_keyed, _ints),
        fixed_set=_at(iv, "fixed_set", "$.involution", _parse_fixed_set, page),
        curve_image=images,
    )
    fix_plus = (_at(obj, "fix_plus", "$", _parse_fixed_set, page)
                if obj.get("fix_plus") is not None else None)

    provenance = []
    for i, rec in enumerate(_list(obj.get("provenance", []), "$.provenance")):
        path = f"$.provenance[{i}]"
        sigma = _at(rec, "sigma", path, _list)
        rec_images = _at(rec, "images", path, _object)
        record = StabRecord(
            tag=_at(rec, "type", path, _str),
            site=_at(rec, "site", path, _ints),
            sigma=tuple(_each(sigma, f"{path}.sigma", _pair)),
            images={k: _pair(v, f"{path}.images.{k}") for k, v in rec_images.items()},
        )
        named = ([name for name, _ in record.sigma] + list(record.images)
                 + [img for img, _ in record.images.values()])
        for name in named:
            if name not in alphabet:
                raise SchemaError(f"{path} uses unknown curve {name!r}")
        provenance.append(record)

    page = _with_disjointness(page, declared, provenance)
    return OpenBook(page=page, monodromy=word, real_structure=inv,
                    fix_plus=fix_plus, provenance=tuple(provenance))


def _with_disjointness(page: SurfaceModel, declared: list[tuple[str, str]],
                       provenance: list[StabRecord]) -> SurfaceModel:
    """The page with its births, derived from provenance in record order
    (openbook.recorded_births: each record makes the curves its sigma
    names), and the declared pairs that name no born curve as its root
    pairs (SurfaceModel.with_births).  A declared pair that names a born
    curve must be one the rule gives (SurfaceModel.meeting_lists); the
    rule's pairs need not be declared."""
    maker: dict[str, int] = {}
    for i, rec in enumerate(provenance):
        if rec.tag not in STAB_TYPES:
            raise SchemaError(f"$.provenance[{i}].type is {rec.tag!r}, not one of "
                              + ", ".join(STAB_TYPES))
        for name, _ in rec.sigma:
            if name in maker:
                raise SchemaError(f"$.provenance[{i}].sigma makes curve {name!r}, which "
                                  f"$.provenance[{maker[name]}] made before")
            maker[name] = i
    births = recorded_births(provenance)
    page = page.with_births(births, declared)
    claimed = [(i, a, b) for i, (a, b) in enumerate(declared)
               if not births.keys().isdisjoint((a, b))]
    if claimed:
        meets = page.meeting_lists(name for _, a, b in claimed for name in (a, b))
        for i, a, b in claimed:
            if b in meets[a]:
                raise SchemaError(f"$.disjoint[{i}] is {json.dumps([a, b])}, but the provenance "
                                  f"makes no such disjoint pair")
    return page


# ---------------------------------------------------------------------------
# the writer


_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# the C function that encoder calls for a str
_string = json.encoder.encode_basestring_ascii


def _row_writer(rank: int) -> Callable[[Sparse], str]:
    """The JSON text of a sparse vector's rank entries, as the C encoder
    writes a list of ints: a fresh list of "0" cells with str(x) at each
    nonzero x, so a zero costs no encoding."""
    zeros = ["0"] * rank

    def row(v: Sparse) -> str:
        cells = zeros.copy()
        it = iter(v)
        for i in it:
            cells[i] = str(next(it))
        return "[" + ",".join(cells) + "]"

    return row


def _fixed_set_text(fs: FixedSet | None, row: Callable[[Sparse], str]) -> str:
    if fs is None:
        return "null"
    arcs = ",".join(
        '{"ends":' + _compact(arc.ends)
        + ',"pair_arcs":' + _compact({str(k): v for k, v in arc.pair_arcs.items()})
        + ',"pair_curves":' + row(arc.pair_curves) + "}"
        for arc in fs.arcs)
    circles = ",".join('{"h1_class":' + row(c) + "}" for c in fs.circles)
    return '{"arcs":[' + arcs + '],"circles":[' + circles + "]}"


def _disjoint_text(page: SurfaceModel) -> str:
    """The pairs no written provenance record gives: the root's pairs
    that name no born curve.  A book's page holds the births its written
    provenance records (openbook._with_recorded_births), so the rule
    gives every other pair."""
    born = page.births.keys()
    return _compact(sorted(sorted(pair) for pair in page.disjoint if born.isdisjoint(pair)))


def dumps(ob: OpenBook) -> str:
    """The book as JSON in the on-disk layout of the module docstring;
    the line breaks keep book diffs readable.  The text is rendered
    field by field, in sorted key order: each class and row from its
    nonzeros (_row_writer), each name by the C encoder's string
    function, each other small leaf (permutations, arc ends, the word,
    provenance, disjoint pairs) by the C encoder itself."""
    page, inv = ob.page, ob.real_structure
    if page.births != recorded_births(ob.provenance):
        raise ValueError("the provenance does not record the page's last stabilizations")
    row = _row_writer(page.h1_rank)

    def matrix(rows: Rows) -> str:
        return "[" + ",".join(map(row, rows)) + "]"

    def image(name: str) -> str:
        img = inv.curve_image.get(name)
        return "null" if img is None else "[" + _string(img[0]) + "," + str(img[1]) + "]"

    alphabet = ",".join(
        '{"c_image":' + image(name) + ',"h1_class":' + row(cls) + ',"name":' + _string(name) + "}"
        for name, cls in sorted(page.alphabet.items()))
    boundary = ",".join('{"id":' + str(cid) + ',"pclass":' + row(p) + "}"
                        for cid, p in page.circles.items())
    ref_arcs = ",".join('{"boundary":' + str(cid) + ',"pairings":' + row(r) + "}"
                        for cid, r in sorted(page.ref_arcs.items()))
    fields = (
        ("alphabet", "[" + alphabet + "]"),
        ("disjoint", _disjoint_text(page)),
        ("fix_plus", _fixed_set_text(ob.fix_plus, row)),
        ("involution",
         '{"boundary_perm":' + _compact({str(k): v for k, v in inv.boundary_perm.items()})
         + ',"fixed_points":' + _compact({str(k): v for k, v in inv.fixed_points.items()})
         + ',"fixed_set":' + _fixed_set_text(inv.fixed_set, row)
         + ',"matrix":' + matrix(inv.matrix) + "}"),
        ("page",
         '{"basis":' + _compact(page.basis) + ',"boundary":[' + boundary
         + '],"form":' + matrix(page.form) + ',"genus":' + str(page.genus) + "}"),
        ("provenance", _compact([
            {"type": rec.tag, "site": rec.site, "sigma": rec.sigma, "images": dict(rec.images)}
            for rec in ob.provenance])),
        ("ref_arcs", "[" + ref_arcs + "]"),
        ("schema", str(SCHEMA_VERSION)),
        ("word", _compact([{"curve": n, "exp": e} for n, e in ob.monodromy])),
    )
    return "{\n" + ",\n".join(f'"{key}":{value}' for key, value in fields) + "\n}"


def loads(text: str) -> OpenBook:
    """The book a JSON text holds.  Text that is not JSON, or JSON
    nested past the decoder's recursion limit, is a SchemaError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    return from_obj(obj)
