"""Command-line driver.

Books travel as JSON (schema 3, see jsonio) on stdin/stdout or files,
so subcommands compose in pipelines:

    realbook catalog fig4 3 | realbook invariants
    realbook catalog lens-annulus 7 | realbook invariants
    realbook contact --family annulus:2 --find-threshold

Exit codes: 0 success, 1 contract violation (a check failed or an
operation refused its input), 2 malformed input.

COMMANDS has one row per subcommand: name, help, own arguments, book
reader and handler.  The reader is None (no book), _read_book, or
_validated_book, which refuses (exit 1) a book that fails one of the
involution, page and plus-arc checks of validate (openbook.validate_book):
new, reality, invariants and heegaard read through it; stabilize refuses
such a book at its door.  A handler is a function of (book, args) that
returns its output text and exit code; main alone parses the arguments,
reads the book, writes the text to stdout or --out, and maps exceptions
to exit codes.  Each process runs one subcommand, so each handler
imports what it calls and the module itself imports only the
exceptions of realbook.errors.
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


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=str)


def _group_obj(g) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion), "pretty": str(g)}


CONTACT_FAMILIES = {"disk": 0, **{f"annulus:{n}": n for n in range(1, 11)}}


def _parse_family(tag: str) -> int:
    if tag not in CONTACT_FAMILIES:
        raise SchemaError(f"--family must be disk or annulus:N with 1 <= N <= 10, got {tag!r}")
    return CONTACT_FAMILIES[tag]


def cmd_catalog(_book, args) -> tuple[str, int]:
    from .catalog import build
    from .jsonio import dumps

    return dumps(build(args.name, *args.params)), EXIT_OK


def cmd_new(book, _args) -> tuple[str, int]:
    from .jsonio import dumps

    return dumps(book), EXIT_OK


def cmd_stabilize(book, args) -> tuple[str, int]:
    from .jsonio import dumps
    from .stabilization import stabilize

    try:
        site = json.loads(args.site) if args.site else {}
    except RecursionError:
        raise SchemaError("--site JSON is nested too deeply") from None
    return dumps(stabilize(book, args.type, site)), EXIT_OK


def cmd_reality(book, _args) -> tuple[str, int]:
    from .openbook import Reality, check_reality

    status = check_reality(book)
    return (_json({"status": status.kind.value, "witness": status.witness}),
            EXIT_OK if status.kind is not Reality.NOT_REAL else EXIT_CONTRACT)


def cmd_invariants(book, _args) -> tuple[str, int]:
    from .openbook import check_reality, h1_of_manifold

    page = book.page
    return _json({
        "h1": _group_obj(h1_of_manifold(book)),
        "heegaard_genus": page.h1_rank,
        "page_genus": page.genus,
        "binding": page.boundary_count,
        "euler": page.euler,
        "reality": check_reality(book).kind.value,
    }), EXIT_OK


def cmd_heegaard(book, _args) -> tuple[str, int]:
    from .heegaard import heegaard_data, is_maximal, real_part, validate_heegaard

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
    return _json(report), EXIT_OK if all(ok for _n, ok in checks) else EXIT_CONTRACT


def cmd_contact(_book, args) -> tuple[str, int]:
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
        return _json({
            "family": args.family,
            "grid": grid,
            "K_threshold": kstar,
            "min_defect_at_threshold": mindef,
            "argmin": argmin,
        }), EXIT_OK
    k = args.K if args.K is not None else 10.0
    report = contact_report(family, k, resolution=grid)
    pf = build_profiles(k, args.eps)
    mismatch = solid_torus_extension_check(FormSampler(family=family, k=k), pf).max_mismatch
    report["profiles"] = {"extension_mismatch": mismatch}
    ok = report["min_defect"] > 0 and mismatch <= 1e-9
    return _json(report), EXIT_OK if ok else EXIT_CONTRACT


def cmd_validate(book, _args) -> tuple[str, int]:
    from .openbook import Reality, check_reality, validate_book

    checks = validate_book(book)
    status = check_reality(book)
    out = {section: {r.name: (r.ok if r.ok else r.detail) for r in report}
           for section, report in checks.items()}
    out["reality"] = status.kind.value
    ok = (all(r.ok for report in checks.values() for r in report)
          and status.kind is not Reality.NOT_REAL)
    return _json(out), EXIT_OK if ok else EXIT_CONTRACT


# (name, help, own arguments as (flag, add_argument options), book reader, handler);
# a subcommand with a reader also takes --in, and every one takes --out
COMMANDS = (
    ("catalog", "construct a worked example book",
     (("name", {}), ("params", {"nargs": "*"})), None, cmd_catalog),
    ("new", "validate and canonicalize a book JSON", (), _validated_book, cmd_new),
    ("stabilize", "apply a positive real stabilization",
     (("--type", {"required": True, "choices": "I II III IV V VI VII VIII IX".split()}),
      ("--site", {"default": None, "help": 'site JSON, e.g. \'{"boundary": 1}\''})),
     _read_book, cmd_stabilize),
    ("reality", "tri-state reality check", (), _validated_book, cmd_reality),
    ("invariants", "H1, genus, Euler, binding", (), _validated_book, cmd_invariants),
    ("heegaard", "splitting genus, real part, maximality", (), _validated_book, cmd_heegaard),
    ("contact", "numerical contact certification",
     (("--family", {"required": True, "help": "disk or annulus:N"}),
      ("--K", {"type": float, "default": None}),
      ("--find-threshold", {"action": "store_true"}),
      ("--grid", {"type": int, "default": 50, "help": "grid resolution (default 50)"}),
      ("--eps", {"type": float, "default": 0.1})),
     None, cmd_contact),
    ("validate", "check every declared invariant", (), _read_book, cmd_validate),
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="realbook", description="calculus for real open books")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, read, handler in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        if read is not None:
            p.add_argument("--in", dest="infile", default=None,
                           help="book JSON file (default: stdin)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.set_defaults(read=read, handler=handler)
    args = ap.parse_args(argv)
    try:
        text, code = args.handler(args.read(args.infile) if args.read else None, args)
        if args.out in (None, "-"):
            sys.stdout.write(text + "\n")
        else:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        return code
    except (StabilizationError, BookInvalid, BookNotReal, RealPartUnavailable,
            ContactModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONTRACT
    except (SchemaError, KeyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
