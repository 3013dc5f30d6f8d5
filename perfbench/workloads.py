"""The three workloads: one round of ops each, and their output checks.

A round is a fixed list of ops that depends only on the inputs, so
every round of a run, and every run with the same seed, does the same
work.  ``Ops`` times each op and lets the reference loop run between
ops, never during one.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
from inputs import ROOT, ladder_steps, walk_step, walk_type
from realbook import heegaard, jsonio, openbook

FAILED = object()
CHILD_TIMEOUT_S = 120
CLI_MAIN = "import sys; from realbook.cli import main; sys.exit(main())"


class Ops:
    """Times the ops of one pass; an op that raises counts as failed.

    Spans are kept with the op's position in its round, so the rounds
    of a pass give several times of the same op.
    """

    def __init__(self, cal, tracer=None):
        self.cal = cal
        self.tracer = tracer
        self.spans: list[tuple[int, float, float]] = []     # completed ops
        self.failed_spans: list[tuple[int, float, float]] = []
        self.errors: list[str] = []
        self._position = 0

    def new_round(self) -> None:
        self._position = 0

    @property
    def attempted(self) -> int:
        return len(self.spans) + len(self.failed_spans)

    @property
    def failed(self) -> int:
        return len(self.failed_spans)

    def run(self, label: str, fn, failed=lambda result: False):
        self.cal.maybe_sample()
        before = dict(self.tracer.self_s) if self.tracer else None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:
            result = FAILED
            self.errors.append(f"{label}: {type(e).__name__}: {e}")
        t1 = time.perf_counter()
        span = (self._position, t0, t1)
        self._position += 1
        if result is FAILED or failed(result):
            self.failed_spans.append(span)
        else:
            self.spans.append(span)
        if self.tracer:
            self.tracer.op_done(label, before)
        return result

    def _seconds(self, spans, calibrated: bool) -> list[tuple[int, float]]:
        return [(pos, self.cal.scale(t0, t1) if calibrated else t1 - t0)
                for pos, t0, t1 in spans]

    def op_seconds(self, calibrated: bool = True) -> list[float]:
        """Each completed op's time: its median over the rounds."""
        by_op: dict[int, list[float]] = {}
        for pos, sec in self._seconds(self.spans, calibrated):
            by_op.setdefault(pos, []).append(sec)
        return [statistics.median(v) for v in by_op.values()]

    def total_seconds(self, calibrated: bool = True) -> float:
        return sum(sec for _pos, sec in self._seconds(self.spans + self.failed_spans,
                                                       calibrated))


# ---------------------------------------------------------------------------
# stabilize: the fig ladders step by step, then seeded walks


class InProcess:
    """A workload whose ops run in the benchmark process."""

    def same(self, a: list, b: list) -> bool:
        return a == b

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Stabilize(InProcess):
    def __init__(self, inputs: dict, workdir: Path):
        self.disk = jsonio.loads(inputs["disk"])
        self.k = inputs["ladder_k"]
        self.walks = [(w, jsonio.loads(w["book"])) for w in inputs["walks"]]

    def ops_per_round(self) -> int:
        return 3 * self.k + 1 + sum(w["steps"] for w, _ in self.walks)

    def round(self, ops: Ops) -> list:
        produced = []      # (base, types applied, book)
        for family in ("fig4", "fig5", "fig6"):
            ob, types = self.disk, []
            for tag, site_of in ladder_steps(family, self.k):
                ob = ops.run(f"{family}/{tag}", lambda: openbook.stabilize(ob, tag, site_of(ob)))
                if ob is FAILED:
                    break
                types.append(tag)
                produced.append((["disk", []], list(types), ob))
        for spec, base in self.walks:
            rng = random.Random(spec["rng"])
            ob, types = base, []
            for i in range(spec["steps"]):
                prefer = walk_type(spec["walk"], i)
                step = ops.run(f"walk/{spec['label']}", lambda: walk_step(ob, rng, prefer))
                if step is FAILED:
                    break
                ob, tag, _site = step
                types.append(tag)
                produced.append((spec["base"], list(types), ob))
        return produced

    def check(self, produced: list) -> tuple[list[str], float]:
        """Problems, and the mean size of a produced book's JSON in KB."""
        problems, sizes = [], []
        for base, types, ob in produced:
            text = jsonio.dumps(ob)
            sizes.append(len(text))
            book = json.loads(text)
            problems += [f"{base}+{types}: {p}" for p in
                         checks.check_book(book) +
                         checks.check_genus(checks.page_genus(book), base, types)]
        return problems, sum(sizes) / len(sizes) / 1000.0


# ---------------------------------------------------------------------------
# query: the full invariant report of prebuilt books, read from JSON


def invariant_report(text: str) -> dict:
    ob = jsonio.loads(text)
    h1 = openbook.h1_of_manifold(ob)
    verdict = openbook.check_reality(ob)
    hd = heegaard.heegaard_data(ob)
    hchecks = heegaard.validate_heegaard(hd, ob)
    rp = heegaard.real_part(ob)
    return {
        "h1": {"free_rank": h1.free_rank, "torsion": list(h1.torsion), "pretty": str(h1)},
        "reality": verdict.kind.value,
        "genus": hd.genus,
        "checks": hchecks,
        "components": rp.count,
        "separating": list(rp.separating_flags()),
        "dumps": jsonio.dumps(ob),
    }


class Query(InProcess):
    def __init__(self, inputs: dict, workdir: Path):
        self.books = inputs["books"]

    def ops_per_round(self) -> int:
        return len(self.books)

    def round(self, ops: Ops) -> list:
        return [ops.run(meta["label"], lambda: invariant_report(meta["book"]))
                for meta in self.books]

    def check(self, results: list) -> tuple[list[str], float]:
        problems = []
        for meta, result in zip(self.books, results):
            if result is not FAILED:
                problems += [f"{meta['label']}: {p}" for p in checks.check_query(result, meta)]
        done = [r for r in results if r is not FAILED]
        return problems, sum(len(r["dumps"]) for r in done) / max(1, len(done)) / 1000.0


# ---------------------------------------------------------------------------
# cli: realbook invocations, one child process at a time


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REALBOOK_GRID", None)
    return env


def run_child(argv: list[str], cwd: Path, stdin: Path | None, stdout: Path,
              stderr: Path) -> tuple[int, float]:
    """Run one child to its end; returns (exit code, peak RSS in MB).

    The child is reaped with wait4 for its own resource usage; a timer
    kills it if it overruns, so the run always ends.
    """
    with open(stdin or os.devnull, "rb") as fin, open(stdout, "wb") as fout, \
            open(stderr, "wb") as ferr:
        proc = subprocess.Popen(argv, cwd=cwd, stdin=fin, stdout=fout, stderr=ferr,
                                env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Cli:
    def __init__(self, inputs: dict, workdir: Path):
        self.workdir = workdir
        self.specs = inputs["ops"]
        for name, text in inputs["files"].items():
            (workdir / name).write_text(text)
        self.rss_mb = 0.0

    def ops_per_round(self) -> int:
        return len(self.specs)

    def _paths(self, i: int, spec: dict):
        stdin = self.workdir / spec["stdin"] if spec["stdin"] else None
        stdout = self.workdir / (spec["stdout"] or f"op{i}.out")
        return stdin, stdout, self.workdir / f"op{i}.err"

    def _child(self, i: int, spec: dict) -> int:
        code, rss = run_child([sys.executable, "-c", CLI_MAIN] + spec["argv"], self.workdir,
                              *self._paths(i, spec))
        self.rss_mb = max(self.rss_mb, rss)
        return code

    def _in_process(self, i: int, spec: dict) -> int:
        from realbook import cli

        stdin, stdout, stderr = self._paths(i, spec)
        saved = sys.stdin
        with open(stdin or os.devnull) as fin, open(stdout, "w") as fout, \
                open(stderr, "w") as ferr, redirect_stdout(fout), redirect_stderr(ferr):
            sys.stdin = fin
            try:
                return cli.main(spec["argv"])
            except SystemExit as e:
                return e.code if isinstance(e.code, int) else 1
            finally:
                sys.stdin = saved

    def _outcome(self, i: int, spec: dict, code) -> dict:
        _stdin, stdout, stderr = self._paths(i, spec)
        return {"code": code, "stdout": stdout.read_text(), "stderr": stderr.read_text()}

    def round(self, ops: Ops, in_process: bool = False) -> list:
        invoke = self._in_process if in_process else self._child
        results = []
        for i, spec in enumerate(self.specs):
            malformed = spec["check"]["kind"] == "malformed"
            code = ops.run(" ".join(spec["argv"][:2]), lambda: invoke(i, spec),
                           failed=lambda code: malformed and bool(checks.check_malformed(
                               code, self._outcome(i, spec, code)["stderr"])))
            results.append(FAILED if code is FAILED else self._outcome(i, spec, code))
        return results

    def same(self, a: list, b: list) -> bool:
        """Same stdout from every invocation that did not fail."""
        def stdouts(results):
            return [None if r is FAILED or spec["check"]["kind"] == "malformed" else r["stdout"]
                    for spec, r in zip(self.specs, results)]
        return stdouts(a) == stdouts(b)

    def check(self, results: list) -> tuple[list[str], float]:
        problems, sizes = [], []
        for spec, res in zip(self.specs, results):
            if res is FAILED or spec["check"]["kind"] == "malformed":
                continue
            problems += [f"{' '.join(spec['argv'])}: {p}" for p in checks.check_cli(
                spec["check"], res["code"], res["stdout"], res["stderr"],
                lambda name: (self.workdir / name).read_text())]
            if spec["check"]["kind"] in ("book", "same_bytes"):
                sizes.append(len(res["stdout"]))
        return problems, sum(sizes) / max(1, len(sizes)) / 1000.0

    def malformed_problems(self, results: list) -> list[str]:
        """How each malformed-input invocation misbehaved (failed ops)."""
        out = []
        for spec, res in zip(self.specs, results):
            if spec["check"]["kind"] == "malformed" and res is not FAILED:
                for p in checks.check_malformed(res["code"], res["stderr"]):
                    out.append(f"{spec['stdin']}: {p}")
        return out

    def peak_rss_mb(self) -> float:
        return self.rss_mb


WORKLOADS = {"stabilize": Stabilize, "query": Query, "cli": Cli}
