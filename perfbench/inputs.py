"""Seeded inputs of the three workloads, and the stabilization recipes
they share.

Everything here is a pure function of (workload, seed, quick): the same
arguments give byte-identical inputs.  Run as a script this module is
the set-up of a run, timed from outside by ``run.py``: a fresh
interpreter imports realbook, builds the workload's inputs and writes
them as JSON.

    python3 perfbench/inputs.py --workload query --seed 1 --out inputs.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

# Layer functions are called through their modules, so the tracer's
# wrappers see the calls made from here.
from realbook import catalog, openbook  # noqa: E402
from realbook.jsonio import dumps  # noqa: E402

import checks  # noqa: E402

# Catalog bases the seeded walks start from: (CLI name, parameters).
BASES = [
    ("disk", []), ("hopf", ["conjugation"]), ("hopf", ["swap"]),
    ("fig4", [1]), ("fig4", [2]), ("fig4", [3]), ("fig5", [1]), ("fig5", [2]),
    ("fig6", [1]), ("fig6", [2]), ("lens-annulus", [3]), ("lens-annulus", [7]),
    ("lens-3punctured", [2, 2, 1]),
]
# Bases of the short walks whose end books the query workload reads.
SMALL_BASES = [b for b in BASES if b[0] in ("disk", "hopf", "lens-annulus", "lens-3punctured")
               or b[1] == [1]]
# Bases of the walks replayed through the CLI.
CLI_BASES = [("hopf", ["swap"]), ("lens-3punctured", [2, 2, 1])]

SIZES = {
    False: {"ladder_k": 16, "walks_per_base": 4, "walk_steps": 6,
            "query_ks": range(4, 15), "query_walk_steps": 2,
            "lens_n": [2, 3, 4, 5], "triples": 4,
            "cli_walks": 2, "cli_walk_steps": 2, "cli_contact": 5},
    True: {"ladder_k": 3, "walks_per_base": 1, "walk_steps": 2,
           "query_ks": range(1, 4), "query_walk_steps": 2,
           "lens_n": [2, 5], "triples": 1,
           "cli_walks": 1, "cli_walk_steps": 1, "cli_contact": 1},
}


def base_label(family: str, params: list) -> str:
    return "-".join([family] + [str(p) for p in params])


# ---------------------------------------------------------------------------
# stabilization recipes


def _swap_pair(ob) -> list[int]:
    perm = ob.real_structure.boundary_perm
    cid = min(c for c in perm if perm[c] != c)
    return [cid, perm[cid]]


def ladder_steps(family: str, k: int) -> list[tuple[str, object]]:
    """The catalog's construction of fig4/fig5/fig6 at k, one
    (type, site-of-book) pair per stabilization, starting from the disk."""
    if family == "fig4":
        return [("I", lambda ob: {"boundary": 1})] + \
            [("VIII", lambda ob: {"boundaries": _swap_pair(ob)})] * (k - 1)
    if family == "fig5":
        return [("III", lambda ob: {"boundary": 1})] * k
    if family == "fig6":
        return [("II", lambda ob: {"boundary": 1}),
                ("II", lambda ob: {"boundary": 1,
                                   "shadow": max(ob.real_structure.fixed_points[1])})] + \
            [("III", lambda ob: {"boundary": 1})] * (k - 1)
    raise ValueError(f"no ladder for {family!r}")


STAB_TYPES = tuple(checks.HANDLES)


def walk_step(ob, rng: random.Random, prefer: str):
    """One accepted stabilization at a random enumerated site, trying
    the sites of type ``prefer`` first; refused sites are skipped.
    Returns (book, type, site).

    Walks cycle ``prefer`` through the nine types, so the mix of types,
    which sets most of a walk's cost, varies little from seed to seed.
    """
    sites = openbook.enumerate_sites(ob)
    rng.shuffle(sites)
    sites.sort(key=lambda s: s[0] != prefer)
    for tag, site in sites:
        try:
            return openbook.stabilize(ob, tag, site), tag, site
        except openbook.StabilizationError:
            continue
    raise RuntimeError("no enumerated site was accepted")


def walk_type(walk: int, step: int) -> str:
    """Preferred type of a walk's step: the nine types in turn."""
    return STAB_TYPES[(walk + step) % len(STAB_TYPES)]


def walk_key(seed: int, label: str, index: int) -> str:
    """Seed of one walk's random.Random, unique per run seed and walk."""
    return f"{seed}/{label}/{index}"


# ---------------------------------------------------------------------------
# inputs per workload


def stabilize_inputs(seed: int, quick: bool) -> dict:
    size = SIZES[quick]
    bases = BASES[:4] if quick else BASES
    books = {base_label(f, p): dumps(catalog.build(f, *p)) for f, p in bases}
    walks = [(f, p, i) for f, p in bases for i in range(size["walks_per_base"])]
    return {
        "disk": books["disk"],
        "ladder_k": size["ladder_k"],
        "walks": [{"base": [f, p], "label": base_label(f, p), "walk": w,
                   "rng": walk_key(seed, base_label(f, p), i),
                   "steps": size["walk_steps"], "book": books[base_label(f, p)]}
                  for w, (f, p, i) in enumerate(walks)],
    }


def _book(label, family, params, types, ob) -> dict:
    return {"label": label, "base": [family, params], "types": types, "book": dumps(ob)}


def query_inputs(seed: int, quick: bool) -> dict:
    """Ladder books at every rank of a range, lens books, and the end
    books of short seeded walks.  The walk books are cheaper to query
    than the middle ladder books, so the median and the tail of a round
    fall on ladder books, whatever the seed."""
    size = SIZES[quick]
    rng = random.Random(f"{seed}/query")
    books = []
    for family in ("fig4", "fig5", "fig6"):
        ob = catalog.build("disk")
        # fig6 spends two steps on its first handle pair
        first = 2 if family == "fig6" else 1
        for i, (tag, site_of) in enumerate(ladder_steps(family, max(size["query_ks"]))):
            ob = openbook.stabilize(ob, tag, site_of(ob))
            k = i + 2 - first
            if k in size["query_ks"]:
                books.append(_book(f"{family}-{k}", family, [k], [], ob))
    for n in size["lens_n"]:
        ob = catalog.build("lens-annulus", n)
        books.append(_book(f"lens-annulus-{n}", "lens-annulus", [n], [], ob))
    for _ in range(size["triples"]):
        p, q, r = (rng.randint(1, 5) for _ in range(3))
        ob = catalog.build("lens-3punctured", p, q, r)
        books.append(_book(f"lens-3punctured-{p}-{q}-{r}", "lens-3punctured", [p, q, r],
                           [], ob))
    for w, (family, params) in enumerate(BASES[:4] if quick else SMALL_BASES, 1):
        label = base_label(family, params)
        walk = random.Random(walk_key(seed, label, 0))
        ob, types = catalog.build(family, *params), []
        for step in range(size["query_walk_steps"]):
            ob, tag, _site = walk_step(ob, walk, walk_type(w, step))
            types.append(tag)
        books.append(_book(f"walk-{label}-0", family, params, types, ob))
    return {"books": books}


def cli_inputs(seed: int, quick: bool) -> dict:
    """The pipelines of the README, then seeded ones, then malformed books.

    Each op is an argv for ``realbook`` with optional stdin and stdout
    file names (relative to the run's work directory), and a check spec
    that ``checks.check_cli`` interprets.
    """
    size = SIZES[quick]
    rng = random.Random(f"{seed}/cli")
    grid = ["--grid", "20"] if quick else []
    ops = []

    def op(argv, stdin=None, stdout=None, **check):
        ops.append({"argv": argv, "stdin": stdin, "stdout": stdout, "check": check})

    def book_check(family, params, types=()):
        return {"base": [family, params], "types": list(types)}

    op(["catalog", "fig4", "3"], stdout="a.json", kind="book")
    op(["invariants"], "a.json", kind="invariants", **book_check("fig4", [3]), ladder="fig4")
    op(["new"], "a.json", kind="same_bytes", of="a.json")
    op(["validate"], "a.json", kind="validate")
    op(["reality"], "a.json", kind="reality", ladder="fig4")
    op(["catalog", "lens-annulus", "7"], stdout="b.json", kind="book")
    op(["invariants"], "b.json", kind="invariants", **book_check("lens-annulus", [7]))
    op(["catalog", "disk"], stdout="c.json", kind="book")
    op(["stabilize", "--type", "I", "--site", '{"boundary": 1}'], "c.json", "d.json",
       kind="book")
    op(["reality"], "d.json", kind="reality", ladder="fig4")
    op(["catalog", "fig5", "2"], stdout="e.json", kind="book")
    op(["heegaard"], "e.json", kind="heegaard", **book_check("fig5", [2]), ladder="fig5")
    if not quick:
        op(["catalog", "fig6", "6"], stdout="f.json", kind="book")
        op(["heegaard"], "f.json", kind="heegaard", **book_check("fig6", [6]), ladder="fig6")
    op(["contact", "--family", "annulus:2", "--find-threshold"] + grid, kind="threshold", n=2)
    op(["contact", "--family", "disk", "--K", "10", "--grid", "40"], kind="contact", n=0)

    for w, (family, params) in enumerate(CLI_BASES[:size["cli_walks"]]):
        label = base_label(family, params)
        base = catalog.build(family, *params)
        walk = random.Random(walk_key(seed, f"cli-{label}", w))
        name = f"w{w}"
        op(["catalog", family] + [str(p) for p in params], stdout=f"{name}-0.json",
           kind="book")
        ob, types = base, []
        for step in range(size["cli_walk_steps"]):
            ob, tag, site = walk_step(ob, walk, walk_type(w, step))
            types.append(tag)
            op(["stabilize", "--type", tag, "--site", json.dumps(site)],
               f"{name}-{step}.json", f"{name}-{step + 1}.json", kind="book")
        last = f"{name}-{len(types)}.json"
        op(["invariants"], last, kind="invariants", **book_check(family, params, types))
        op(["heegaard"], last, kind="heegaard", **book_check(family, params, types))
        op(["new"], last, kind="same_bytes", of=last)

    n = rng.randint(2, 12)
    op(["catalog", "lens-annulus", str(n)], stdout="l.json", kind="book")
    op(["invariants"], "l.json", kind="invariants", **book_check("lens-annulus", [n]))
    p, q, r = (rng.randint(1, 5) for _ in range(3))
    op(["catalog", "lens-3punctured", str(p), str(q), str(r)], stdout="m.json", kind="book")
    op(["invariants"], "m.json", kind="invariants",
       **book_check("lens-3punctured", [p, q, r]))
    # the slowest ops of the round, so they set its tail; the cost of a
    # threshold search grows with n, so every run has the same families
    for n in range(1, size["cli_contact"] + 1):
        op(["contact", "--family", f"annulus:{n}", "--find-threshold"] + grid,
           kind="threshold", n=n)
        k = round(checks.threshold(n, 50) * rng.uniform(1.2, 3.0), 3)
        op(["contact", "--family", f"annulus:{n}", "--K", str(k)] + grid, kind="contact", n=n)

    files = {}
    good = json.loads(dumps(catalog.build("fig4", 2)))
    for i, bad_images in enumerate(_malformed_images(good)):
        bad = json.loads(json.dumps(good))
        bad["provenance"][0]["images"] = bad_images
        files[f"bad{i}.json"] = json.dumps(bad, indent=2, sort_keys=True)
        op(["invariants"], f"bad{i}.json", kind="malformed")
    return {"files": files, "ops": ops}


def _malformed_images(good: dict) -> list:
    """Provenance ``images`` of the wrong shape: a list instead of an
    object, an entry that is null, an entry that is a string."""
    images = good["provenance"][0]["images"]
    first = sorted(images)[0]
    return [
        [[k, v] for k, v in sorted(images.items())],
        dict(images, **{first: None}),
        dict(images, **{first: "x"}),
    ]


MAKERS = {"stabilize": stabilize_inputs, "query": query_inputs, "cli": cli_inputs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    data = MAKERS[args.workload](args.seed, args.quick)
    Path(args.out).write_text(json.dumps(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
