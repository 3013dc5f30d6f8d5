"""Command-line driver.

Books travel as JSON (schema 3, see jsonio) on stdin/stdout or files,
so subcommands compose in pipelines:

    realbook catalog fig4 3 | realbook invariants
    realbook catalog lens-annulus 7 | realbook invariants
    realbook contact --family annulus:2 --find-threshold

Exit codes: 0 success, 1 contract violation (a check failed or an
operation refused its input), 2 malformed input.  new, reality,
invariants and heegaard run the involution, page and plus-arc checks
of validate first (openbook.validate_book, through _validated_book), and
refuse a book that fails one; stabilize refuses it at its door.

Each process runs one subcommand, so each cmd_* imports what it calls
and the module itself imports only the exceptions of realbook.errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BookInvalid,
    BookNotReal,
    ContactModelError,
    RealPartUnavailable,
    SchemaError,
    StabilizationError,
)

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_BAD_INPUT = 2


def _read_book(path: str | None):
    from .jsonio import loads

    if path in (None, "-"):
        return loads(sys.stdin.read())
    with open(path) as fh:
        return loads(fh.read())


def _validated_book(path: str | None):
    """The book at path, refused (BookInvalid, exit 1) when one of the
    checks validate reports fails, naming each as name: detail."""
    from .openbook import validate_book
    from .surface import failures

    book = _read_book(path)
    failed = failures(r for report in validate_book(book).values() for r in report)
    if failed:
        raise BookInvalid(f"book fails validation: {failed}")
    return book


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True, default=str), out)


def _group_obj(g) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion), "pretty": str(g)}


CONTACT_FAMILIES = {"disk": 0, **{f"annulus:{n}": n for n in range(1, 11)}}


def _parse_family(tag: str) -> int:
    if tag not in CONTACT_FAMILIES:
        raise SchemaError(f"--family must be disk or annulus:N with 1 <= N <= 10, got {tag!r}")
    return CONTACT_FAMILIES[tag]


def cmd_catalog(args) -> int:
    from .catalog import build
    from .jsonio import dumps

    book = build(args.name, *args.params)
    _emit(dumps(book), args.out)
    return EXIT_OK


def cmd_new(args) -> int:
    from .jsonio import dumps

    book = _validated_book(args.infile)
    _emit(dumps(book), args.out)
    return EXIT_OK


def cmd_stabilize(args) -> int:
    from .jsonio import dumps
    from .stabilization import stabilize

    book = _read_book(args.infile)
    try:
        site = json.loads(args.site) if args.site else {}
    except RecursionError:
        raise SchemaError("--site JSON is nested too deeply") from None
    out = stabilize(book, args.type, site)
    _emit(dumps(out), args.out)
    return EXIT_OK


def cmd_reality(args) -> int:
    from .openbook import Reality, check_reality

    book = _validated_book(args.infile)
    status = check_reality(book)
    _emit_json({"status": status.kind.value,
                "witness": status.witness}, args.out)
    return EXIT_OK if status.kind is not Reality.NOT_REAL else EXIT_CONTRACT


def cmd_invariants(args) -> int:
    from .openbook import check_reality, h1_of_manifold

    book = _validated_book(args.infile)
    page = book.page
    _emit_json({
        "h1": _group_obj(h1_of_manifold(book)),
        "heegaard_genus": page.h1_rank,
        "page_genus": page.genus,
        "binding": page.boundary_count,
        "euler": page.euler,
        "reality": check_reality(book).kind.value,
    }, args.out)
    return EXIT_OK


def cmd_heegaard(args) -> int:
    from .heegaard import heegaard_data, is_maximal, real_part, validate_heegaard

    book = _validated_book(args.infile)
    hd = heegaard_data(book)
    report = {"genus": hd.genus}
    try:
        rp = real_part(book)
        report["real_part"] = {
            "components": rp.count,
            "separating": list(rp.separating_flags()),
        }
        report["maximal"] = is_maximal(hd, rp)
    except RealPartUnavailable as e:
        report["real_part"] = {"unavailable": str(e)}
    checks = validate_heegaard(hd, book)
    report["checks"] = {name: ok for name, ok in checks}
    _emit_json(report, args.out)
    return EXIT_OK if all(ok for _n, ok in checks) else EXIT_CONTRACT


def cmd_contact(args) -> int:
    from .contact import (
        FormSampler,
        build_profiles,
        contact_defect,
        contact_report,
        k_threshold,
        solid_torus_extension_check,
    )

    family = _parse_family(args.family)
    grid = args.grid
    if grid < 2:
        raise SchemaError(f"--grid must be at least 2, got {grid}")
    if not 0 < args.eps < 0.25:
        raise SchemaError(f"--eps must be in (0, 0.25), got {args.eps}")
    if args.find_threshold:
        kstar = k_threshold(family, resolution=grid)
        fs = FormSampler(family=family, k=kstar, resolution=grid)
        mindef, argmin = contact_defect(fs)
        _emit_json({
            "family": args.family,
            "grid": grid,
            "K_threshold": kstar,
            "min_defect_at_threshold": mindef,
            "argmin": argmin,
        }, args.out)
        return EXIT_OK
    k = args.K if args.K is not None else 10.0
    report = contact_report(family, k, resolution=grid)
    pf = build_profiles(k, args.eps)
    mismatch = solid_torus_extension_check(FormSampler(family=family, k=k), pf).max_mismatch
    report["profiles"] = {"extension_mismatch": mismatch}
    _emit_json(report, args.out)
    ok = report["min_defect"] > 0 and mismatch <= 1e-9
    return EXIT_OK if ok else EXIT_CONTRACT


def cmd_validate(args) -> int:
    from .openbook import Reality, check_reality, validate_book

    book = _read_book(args.infile)
    checks = validate_book(book)
    status = check_reality(book)
    out = {section: {r.name: (r.ok if r.ok else r.detail) for r in report}
           for section, report in checks.items()}
    out["reality"] = status.kind.value
    _emit_json(out, args.out)
    ok = (all(r.ok for report in checks.values() for r in report)
          and status.kind is not Reality.NOT_REAL)
    return EXIT_OK if ok else EXIT_CONTRACT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="realbook",
                                 description="calculus for real open books")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_io(p, needs_in=True):
        if needs_in:
            p.add_argument("--in", dest="infile", default=None,
                           help="book JSON file (default: stdin)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("catalog", help="construct a worked example book")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    add_io(p, needs_in=False)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("new", help="validate and canonicalize a book JSON")
    add_io(p)
    p.set_defaults(fn=cmd_new)

    p = sub.add_parser("stabilize", help="apply a positive real stabilization")
    p.add_argument("--type", required=True, choices=list("I II III IV V VI VII VIII IX".split()))
    p.add_argument("--site", default=None, help='site JSON, e.g. \'{"boundary": 1}\'')
    add_io(p)
    p.set_defaults(fn=cmd_stabilize)

    p = sub.add_parser("reality", help="tri-state reality check")
    add_io(p)
    p.set_defaults(fn=cmd_reality)

    p = sub.add_parser("invariants", help="H1, genus, Euler, binding")
    add_io(p)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("heegaard", help="splitting genus, real part, maximality")
    add_io(p)
    p.set_defaults(fn=cmd_heegaard)

    p = sub.add_parser("contact", help="numerical contact certification")
    p.add_argument("--family", required=True, help="disk or annulus:N")
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--find-threshold", action="store_true")
    p.add_argument("--grid", type=int, default=50, help="grid resolution (default 50)")
    p.add_argument("--eps", type=float, default=0.1)
    add_io(p, needs_in=False)
    p.set_defaults(fn=cmd_contact)

    p = sub.add_parser("validate", help="check every declared invariant")
    add_io(p)
    p.set_defaults(fn=cmd_validate)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (StabilizationError, BookInvalid, BookNotReal, RealPartUnavailable,
            ContactModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONTRACT
    except (SchemaError, KeyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
