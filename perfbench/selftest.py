"""Self-test of the benchmark: its checkers must be able to fail.

    python3 perfbench/selftest.py

Each checker of ``checks.py`` is fed a right answer, computed by
realbook, which it must accept, and deliberately wrong answers, which it
must reject.  Then every workload runs at toy size (``run.py --quick``),
untraced and traced, and must end with a correct result carrying every
metric of ``BENCHMARK.json``.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from realbook import catalog, contact  # noqa: E402
from realbook.jsonio import dumps  # noqa: E402
from workloads import invariant_report  # noqa: E402

failures: list[str] = []


def expect(name: str, problems: list[str], wrong: bool) -> None:
    if bool(problems) != wrong:
        verdict = "accepted a wrong answer" if wrong else f"rejected a right one: {problems}"
        failures.append(f"{name}: {verdict}")


def book_cases() -> None:
    good = json.loads(dumps(catalog.build("fig4", 2)))
    expect("fig4-2 book", checks.check_book(good), wrong=False)
    bad = copy.deepcopy(good)
    bad["involution"]["matrix"][0][0] += 1
    expect("C with one entry off", checks.check_book(bad), wrong=True)
    bad = copy.deepcopy(good)
    bad["word"] = bad["word"][1:]
    expect("word missing its first letter", checks.check_book(bad), wrong=True)
    bad = copy.deepcopy(good)
    bad["involution"]["fixed_set"]["arcs"].append({"ends": [[1, 1], [1, 2]]})
    expect("one fixed arc too many", checks.check_book(bad), wrong=True)


def invariant_cases() -> None:
    s3 = ["fig4", [2]]
    report = invariant_report(dumps(catalog.build("fig4", 2)))
    expect("fig4-2 report", checks.check_query(report, {
        "book": report["dumps"], "base": s3, "types": []}), wrong=False)
    expect("H1 Z/3 for an S^3 book",
           checks.check_h1({"free_rank": 0, "torsion": [3], "pretty": "Z/3"}, s3), wrong=True)
    expect("H1 Z for an S^3 book",
           checks.check_h1({"free_rank": 1, "torsion": [], "pretty": "Z"}, s3), wrong=True)
    expect("H1 Z/7 for lens-annulus 7",
           checks.check_h1({"free_rank": 0, "torsion": [7]}, ["lens-annulus", [7]]), wrong=False)
    expect("H1 Z/6 for lens-annulus 7",
           checks.check_h1({"free_rank": 0, "torsion": [6]}, ["lens-annulus", [7]]), wrong=True)
    expect("H1 Z/8 for lens-3punctured 2 2 1",
           checks.check_h1({"free_rank": 0, "torsion": [8]}, ["lens-3punctured", [2, 2, 1]]),
           wrong=False)
    expect("H1 Z/4 for lens-3punctured 2 2 1",
           checks.check_h1({"free_rank": 0, "torsion": [4]}, ["lens-3punctured", [2, 2, 1]]),
           wrong=True)
    expect("genus 3 of fig4-2", checks.check_genus(3, s3, []), wrong=False)
    expect("genus off by one", checks.check_genus(4, s3, []), wrong=True)
    expect("genus of a walk", checks.check_genus(3 + 2 + 1, s3, ["IV", "VII"]), wrong=False)
    expect("genus of a walk off by one", checks.check_genus(3 + 2, s3, ["IV", "VII"]),
           wrong=True)
    expect("NotReal book", checks.check_reality("NotReal", None), wrong=True)
    expect("HomologicallyReal fig book", checks.check_reality("HomologicallyReal", "fig4"),
           wrong=True)
    expect("HomologicallyReal walk book", checks.check_reality("HomologicallyReal", None),
           wrong=False)
    expect("more real components than genus + 1",
           checks.check_real_part(5, [False] * 5, 3, None), wrong=True)
    expect("non-separating fig5 component", checks.check_real_part(1, [False], 4, "fig5"),
           wrong=True)
    wrong = dict(report, dumps=report["dumps"].replace("\n", " ", 1))
    expect("dumps not reproducing the book", checks.check_query(wrong, {
        "book": report["dumps"], "base": s3, "types": []}), wrong=True)


def contact_cases() -> None:
    k = contact.k_threshold(2, resolution=50)
    expect("K threshold of annulus:2", checks.check_threshold(k, 2, 50), wrong=False)
    expect("K threshold 5% high", checks.check_threshold(1.05 * k, 2, 50), wrong=True)
    expect("K threshold 5% low", checks.check_threshold(0.95 * k, 2, 50), wrong=True)
    report = contact.contact_report(3, 20.0, resolution=30)
    expect("contact report of annulus:3", checks.check_contact(report, 3), wrong=False)
    expect("contact report of the wrong family", checks.check_contact(report, 2), wrong=True)


def cli_cases() -> None:
    expect("malformed book, exit 2", checks.check_malformed(2, "error: bad images\n"),
           wrong=False)
    expect("malformed book, traceback",
           checks.check_malformed(1, "Traceback (most recent call last):\nTypeError: x\n"),
           wrong=True)
    text = dumps(catalog.build("disk"))
    spec = {"kind": "same_bytes", "of": "a.json"}
    expect("new reproducing its input",
           checks.check_cli(spec, 0, text, "", lambda name: text), wrong=False)
    expect("new changing one byte",
           checks.check_cli(spec, 0, text + " ", "", lambda name: text), wrong=True)


def quick_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                    "7", "--seconds", "1", "--trace", str(trace), "--quick"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            name = f"quick {workload} trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{name}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            missing = {m["name"] for m in spec[key]} - set(result["metrics"])
            if not result["correct"] or missing:
                failures.append(f"{name}: correct={result['correct']}, missing {missing}")
            print(f"{name}: {result['attempted']} ops, {result['failed']} failed")


def main() -> int:
    book_cases()
    invariant_cases()
    contact_cases()
    cli_cases()
    print(f"checkers: {'ok' if not failures else 'FAILED'}")
    quick_runs()
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
