"""Mutation smoke for the block check of a stabilization.

Each check of stabilization._block_holds is forced to pass, one at a
time: a `return False` becomes `pass`, and the final return becomes
`return True`.  Each mutant is written into a fresh copy of src/ in a
temporary directory, and the tests of the block check run on that copy
with PYTHONPATH pointing at it, one mutant after another.  A mutant
survives when every test still passes: the check it disables has no
witness among the tests.

    python tests/block_mutants.py

Exits 0 when the tests pass on the unmutated copy and fail on every
mutant, 1 otherwise.  The file name does not match test_*.py, so the
suite does not collect it.
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
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("realbook", "stabilization.py")
FUNCTION = "_block_holds"
TESTS = ["tests/test_openbook.py", "tests/test_handle_locality.py"]


def mutants(source: str) -> Iterator[tuple[int, str, str]]:
    """(line number, line, mutated source) for each check of FUNCTION
    forced to pass, in line order."""
    func = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == FUNCTION)
    final = func.body[-1]
    lines = source.splitlines(keepends=True)
    returns = sorted((node for node in ast.walk(func) if isinstance(node, ast.Return)),
                     key=lambda node: node.lineno)
    for node in returns:
        if node is final:
            forced = "return True"
        elif isinstance(node.value, ast.Constant) and node.value.value is False:
            forced = "pass"
        else:
            continue
        if node.end_lineno != node.lineno:
            sys.exit(f"{TARGET}:{node.lineno}: a return spanning lines is not mutated")
        line = lines[node.lineno - 1]
        mutated = line[:node.col_offset] + forced + line[node.end_col_offset:]
        yield node.lineno, line.strip(), "".join(
            lines[:node.lineno - 1] + [mutated] + lines[node.lineno:])


def run_tests(source: str, work: Path) -> tuple[int, str]:
    """pytest's exit code and output on a fresh copy of src/ whose target
    module is source."""
    copy = work / "src"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    (copy / TARGET).write_text(source)
    env = {**os.environ, "PYTHONPATH": str(copy)}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def main() -> int:
    source = (ROOT / "src" / TARGET).read_text()
    with tempfile.TemporaryDirectory(prefix="block-mutants-") as tmp:
        work = Path(tmp)
        code, output = run_tests(source, work)
        if code != 0:
            print(output)
            print("the tests fail on the unmutated copy")
            return 1
        survivors = broken = total = 0
        for lineno, line, mutated in mutants(source):
            total += 1
            start = time.perf_counter()
            code, output = run_tests(mutated, work)
            seconds = time.perf_counter() - start
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            print(f"{TARGET}:{lineno}  {line}  {verdict}  ({seconds:.1f} s)", flush=True)
            if code == 0:
                survivors += 1
            elif code != 1:
                broken += 1
                print(output)
    print(f"{total} mutants of {FUNCTION}: {total - survivors - broken} killed, "
          f"{survivors} survived, {broken} did not run")
    return 1 if survivors or broken else 0


if __name__ == "__main__":
    sys.exit(main())
