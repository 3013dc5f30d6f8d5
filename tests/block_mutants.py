"""Mutation smoke for checks that a witness must be able to fail.

Each target is a function of src/realbook and a way to force one of its
checks to pass, one check at a time:

- stabilization._block_holds, the block check of a stabilization: a
  `return False` becomes `pass`, and the final return becomes
  `return True`;
- surface.validate_involution, its curve_image and boundary_classes
  checks: an `ok, detail = False, ...` assignment becomes `pass`.

Each mutant is written into a fresh copy of src/ in a temporary
directory, and the target's tests run on that copy with PYTHONPATH
pointing at it, one mutant after another, never in parallel.  A mutant
survives when every test still passes: the check it disables has no
witness among the tests.

    python tests/block_mutants.py

Exits 0 when the tests pass on the unmutated copy and fail on every
mutant of every target, 1 otherwise.  The file name does not match
test_*.py, so the suite does not collect it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

ROOT = Path(__file__).resolve().parent.parent


def forced_returns(func: ast.FunctionDef) -> Iterator[tuple[ast.stmt, str]]:
    """Each `return False` as `pass`, and the final return as `return True`."""
    final = func.body[-1]
    for node in ast.walk(func):
        if node is final and isinstance(node, ast.Return):
            yield node, "return True"
        elif (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
              and node.value.value is False):
            yield node, "pass"


def failures_dropped(func: ast.FunctionDef) -> Iterator[tuple[ast.stmt, str]]:
    """Each `ok, detail = False, ...` as `pass`."""
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                and [ast.unparse(t) for t in node.targets] == ["(ok, detail)"]
                and isinstance(node.value.elts[0], ast.Constant)
                and node.value.elts[0].value is False):
            yield node, "pass"


class Target(NamedTuple):
    module: Path            # relative to src/
    function: str
    mutate: Callable[[ast.FunctionDef], Iterator[tuple[ast.stmt, str]]]
    tests: list[str]        # the test files that must kill every mutant


TARGETS = [
    Target(Path("realbook", "stabilization.py"), "_block_holds", forced_returns,
           ["tests/test_openbook.py", "tests/test_handle_locality.py"]),
    Target(Path("realbook", "surface.py"), "validate_involution", failures_dropped,
           ["tests/test_surface.py", "tests/test_cli.py"]),
]


def mutants(target: Target, source: str) -> Iterator[tuple[int, str, str]]:
    """(line number, line, mutated source) for each check of the target
    forced to pass, in line order."""
    func = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == target.function)
    lines = source.splitlines(keepends=True)
    for node, forced in sorted(target.mutate(func), key=lambda pair: pair[0].lineno):
        first, last = lines[node.lineno - 1], lines[node.end_lineno - 1]
        mutated = first[:node.col_offset] + forced + last[node.end_col_offset:]
        yield node.lineno, first.strip(), "".join(
            lines[:node.lineno - 1] + [mutated] + lines[node.end_lineno:])


def run_tests(target: Target, source: str, work: Path) -> tuple[int, str]:
    """pytest's exit code and output on a fresh copy of src/ whose target
    module is source."""
    copy = work / "src"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    (copy / target.module).write_text(source)
    env = {**os.environ, "PYTHONPATH": str(copy)}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *target.tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def run_target(target: Target, work: Path) -> bool:
    """Whether the tests pass unmutated and fail on every mutant."""
    source = (ROOT / "src" / target.module).read_text()
    code, output = run_tests(target, source, work)
    if code != 0:
        print(output)
        print(f"the tests of {target.function} fail on the unmutated copy")
        return False
    survivors = broken = total = 0
    for lineno, line, mutated in mutants(target, source):
        total += 1
        start = time.perf_counter()
        code, output = run_tests(target, mutated, work)
        seconds = time.perf_counter() - start
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
        print(f"{target.module}:{lineno}  {line}  {verdict}  ({seconds:.1f} s)", flush=True)
        if code == 0:
            survivors += 1
        elif code != 1:
            broken += 1
            print(output)
    print(f"{total} mutants of {target.function}: {total - survivors - broken} killed, "
          f"{survivors} survived, {broken} did not run")
    return total > 0 and not survivors and not broken


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="block-mutants-") as tmp:
        results = [run_target(target, Path(tmp)) for target in TARGETS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
