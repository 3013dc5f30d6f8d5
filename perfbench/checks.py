"""Correctness checks of the benchmark, independent of realbook.

Nothing here imports realbook.  Books are read as schema-1 JSON objects,
and every expectation comes from an independent computation or from a
property of the method, never from a saved copy of the program's output:

- the monodromy F is recomputed from the twist word by this module's own
  rank-one transvections, and F^T J F = J, C^2 = I, C^T J C = -J,
  (C F)^2 = I and the Lefschetz counts arcs = 1 - tr C (and
  1 - tr(F C) on the opposite page) must hold;
- H1 follows from the base book of a stabilization chain by closed
  forms (trivial for the 3-sphere books, Z/n for lens-annulus(n), order
  |pq + qr + rp| for lens-3punctured(p, q, r)), since positive real
  stabilization keeps the manifold;
- the Heegaard genus is the base genus plus the handles of the types
  applied;
- the contact threshold has the closed form K* = pi n max_s e^s |phi'(s)|
  on the s-grid.

Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math

# handles added by each stabilization type (the paper's local models)
HANDLES = {"I": 1, "II": 1, "III": 2, "IV": 2, "V": 1, "VI": 2, "VII": 1, "VIII": 2, "IX": 2}

# the fig families as stabilization chains from the disk book (genus 0)
FIG_CHAINS = {
    "fig4": lambda k: ["I"] + ["VIII"] * (k - 1),
    "fig5": lambda k: ["III"] * k,
    "fig6": lambda k: ["II", "II"] + ["III"] * (k - 1),
}
# genus 2g + b - 1 of the base pages: disk, annulus, thrice-punctured sphere
PAGE_GENUS = {"disk": 0, "hopf": 1, "lens-annulus": 1, "lens-3punctured": 2}
# separating flag of every real component of the fig families
FIG_SEPARATING = {"fig4": False, "fig5": True, "fig6": False}

# the contact model's twist ramp: phi = 1 - smoothstep on [LO, HI]
RAMP_LO, RAMP_HI = -0.85, -0.15
THRESHOLD_TOLERANCE = 0.01


# ---------------------------------------------------------------------------
# closed forms


def base_genus(family: str, params: list) -> int:
    if family in FIG_CHAINS:
        return sum(HANDLES[t] for t in FIG_CHAINS[family](int(params[0])))
    return PAGE_GENUS[family]


def expected_genus(base: list, types: list) -> int:
    return base_genus(*base) + sum(HANDLES[t] for t in types)


def expected_h1(family: str, params: list) -> tuple[int, int]:
    """(free rank, order of the torsion) of H1 of a base book."""
    if family == "lens-annulus":
        return 0, int(params[0])
    if family == "lens-3punctured":
        p, q, r = (int(x) for x in params)   # positive exponents only
        return 0, p * q + q * r + r * p
    return 0, 1


def threshold(n: int, grid: int) -> float:
    """K* = pi n max over the s-grid of e^s |phi'(s)|."""
    best = 0.0
    for i in range(grid):
        s = -1.0 + i / (grid - 1)
        u = (s - RAMP_LO) / (RAMP_HI - RAMP_LO)
        dphi = 6.0 * u * (1.0 - u) / (RAMP_HI - RAMP_LO) if 0.0 < u < 1.0 else 0.0
        best = max(best, math.exp(s) * dphi)
    return math.pi * n * best


# ---------------------------------------------------------------------------
# homology action, by rank-one transvections


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def monodromy_matrix(book: dict) -> list[list[int]]:
    """F of the twist word, leftmost letter acting first; a twist along a
    acts by x -> x + e <x, a> a with <x, a> = x^T J a."""
    j = book["page"]["form"]
    n = len(j)
    classes = {c["name"]: c["h1_class"] for c in book["alphabet"]}
    f = [[int(r == c) for c in range(n)] for r in range(n)]
    for letter in book["word"]:
        a = classes[letter["curve"]]
        ja = [sum(j[i][k] * a[k] for k in range(n)) for i in range(n)]
        row = [sum(ja[i] * f[i][c] for i in range(n)) for c in range(n)]
        e = letter["exp"]
        for i in range(n):
            if a[i]:
                f[i] = [x + e * a[i] * y for x, y in zip(f[i], row)]
    return f


def check_book(book: dict) -> list[str]:
    j = book["page"]["form"]
    n = len(j)
    if n == 0:
        return [] if len(book["involution"]["fixed_set"]["arcs"]) == 1 else \
            ["disk page must carry exactly one fixed arc"]
    f = monodromy_matrix(book)
    c = book["involution"]["matrix"]
    ident = [[int(r == k) for k in range(n)] for r in range(n)]
    minus_j = [[-x for x in row] for row in j]
    problems = []
    if _matmul(_matmul(_transpose(f), j), f) != j:
        problems.append("F^T J F != J")
    if _matmul(c, c) != ident:
        problems.append("C^2 != I")
    if _matmul(_matmul(_transpose(c), j), c) != minus_j:
        problems.append("C^T J C != -J")
    cf = _matmul(c, f)
    if _matmul(cf, cf) != ident:
        problems.append("(C F)^2 != I: the book is not real in homology")
    trace_c = sum(c[i][i] for i in range(n))
    arcs = len(book["involution"]["fixed_set"]["arcs"])
    if arcs != 1 - trace_c:
        problems.append(f"{arcs} fixed arcs but 1 - tr C = {1 - trace_c}")
    if book.get("fix_plus") is not None:
        trace_fc = sum(cf[i][i] for i in range(n))
        arcs = len(book["fix_plus"]["arcs"])
        if arcs != 1 - trace_fc:
            problems.append(f"{arcs} opposite-page arcs but 1 - tr FC = {1 - trace_fc}")
    return problems


def page_genus(book: dict) -> int:
    """Heegaard genus 2g + b - 1 read off a book's page."""
    return 2 * book["page"]["genus"] + len(book["page"]["boundary"]) - 1


# ---------------------------------------------------------------------------
# invariant reports


def check_h1(h1: dict, base: list) -> list[str]:
    free, order = expected_h1(*base)
    torsion = h1["torsion"]
    got = math.prod(torsion)
    if h1["free_rank"] != free or got != order or any(t < 2 for t in torsion):
        want = "trivial" if (free, order) == (0, 1) else f"free rank {free}, order {order}"
        return [f"H1 {h1.get('pretty', h1)} but the base {base} gives {want}"]
    return []


def check_genus(genus: int, base: list, types: list) -> list[str]:
    want = expected_genus(base, types)
    return [] if genus == want else [f"Heegaard genus {genus}, want {want}"]


def check_reality(verdict: str, ladder: str | None) -> list[str]:
    if verdict == "NotReal":
        return ["book reported NotReal"]
    if ladder and verdict != "CertifiedReal":
        return [f"{ladder} book reported {verdict}, want CertifiedReal"]
    if verdict not in ("CertifiedReal", "HomologicallyReal"):
        return [f"unknown reality verdict {verdict!r}"]
    return []


def check_real_part(components: int, separating: list, genus: int,
                    ladder: str | None) -> list[str]:
    problems = []
    if not 1 <= components <= genus + 1:
        problems.append(f"{components} real components outside 1..genus+1 = {genus + 1}")
    if len(separating) != components:
        problems.append("one separating flag per component expected")
    if ladder and any(s != FIG_SEPARATING[ladder] for s in separating):
        problems.append(f"{ladder} separating flags {separating}")
    return problems


def check_threshold(k: float, n: int, grid: int) -> list[str]:
    want = threshold(n, grid)
    if not (want < k and k - want <= THRESHOLD_TOLERANCE * k):
        return [f"K threshold {k} is not within {THRESHOLD_TOLERANCE:.0%} above {want}"]
    return []


def check_contact(report: dict, n: int) -> list[str]:
    """At fixed K the grid minimum of the defect is 4K - 4 K*(n)."""
    want = 4.0 * report["K"] - 4.0 * threshold(n, report["grid"])
    if abs(report["min_defect"] - want) > 1e-9 * max(1.0, abs(want)):
        return [f"min defect {report['min_defect']}, want {want}"]
    return []


def check_query(result: dict, meta: dict) -> list[str]:
    """One book's invariant report from the query workload."""
    book = json.loads(meta["book"])
    ladder = meta["base"][0] if meta["base"][0] in FIG_SEPARATING and not meta["types"] \
        else None
    problems = check_book(book)
    problems += check_h1(result["h1"], meta["base"])
    problems += check_reality(result["reality"], ladder)
    problems += check_genus(result["genus"], meta["base"], meta["types"])
    problems += [f"Heegaard check {name} failed" for name, ok in result["checks"] if not ok]
    problems += check_real_part(result["components"], result["separating"],
                                result["genus"], ladder)
    if result["dumps"] != meta["book"]:
        problems.append("dumps(loads(book)) differs from the book")
    return problems


def check_cli(check: dict, code: int, stdout: str, stderr: str,
              read_file) -> list[str]:
    """One CLI invocation against its check spec from ``inputs.cli_inputs``."""
    kind = check["kind"]
    if kind == "malformed":
        return check_malformed(code, stderr)
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    if kind == "book":
        return check_book(json.loads(stdout))
    if kind == "same_bytes":
        return [] if stdout == read_file(check["of"]) else ["output differs from its input"]
    data = json.loads(stdout)
    ladder = check.get("ladder")
    if kind == "invariants":
        return (check_h1(data["h1"], check["base"]) +
                check_genus(data["heegaard_genus"], check["base"], check["types"]) +
                check_reality(data["reality"], ladder))
    if kind == "heegaard":
        rp = data["real_part"]
        return (check_genus(data["genus"], check["base"], check["types"]) +
                [f"Heegaard check {k} failed" for k, ok in data["checks"].items() if not ok] +
                check_real_part(rp["components"], rp["separating"], data["genus"], ladder))
    if kind == "reality":
        return check_reality(data["status"], ladder)
    if kind == "validate":
        bad = [k for k, v in data["involution"].items() if v is not True]
        return [f"involution check {k} failed" for k in bad] + \
            check_reality(data["reality"], None)
    if kind == "threshold":
        return check_threshold(data["K_threshold"], check["n"], data["grid"])
    if kind == "contact":
        return check_contact(data, check["n"])
    raise ValueError(f"unknown check kind {kind!r}")


def check_malformed(code: int, stderr: str) -> list[str]:
    """Malformed input must exit 2 with an ``error:`` line, no traceback."""
    problems = []
    if code != 2:
        problems.append(f"exit code {code}, want 2")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if not any(line.startswith("error:") for line in stderr.splitlines()):
        problems.append("no 'error:' line on stderr")
    return problems
