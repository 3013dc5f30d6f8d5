"""Benchmark of realbook: stabilization, invariant queries, CLI pipelines.

    python3 perfbench/run.py --workload stabilize --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; realbook is imported from ``src``.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
Every time in the end-to-end metrics is calibrated against the
reference loop of ``calib.py``; the lines before the result give the
raw figures too.  ``--quick`` runs a toy-size round for a smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Calibrated seconds of one full-size round on the reference host; a
# run does round(--seconds / ROUND_S) whole rounds, at least one, and
# at least MIN_OPS ops, so the work of a run never depends on the host.
ROUND_S = {"stabilize": 2.0, "query": 3.3, "cli": 3.5}
MIN_OPS = 40
TAIL_BEYOND = 10
# set-ups per run; the cheap ones are repeated more, being noisier
SETUP_RUNS = {"stabilize": 7, "query": 3, "cli": 7}

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "json_kb": "KB",
}


def per_layer_names() -> list[str]:
    from tracing import STAB_TYPES

    return [
        "intalg.matmul_calls", "intalg.matmul_s", "intalg.snf_calls", "intalg.snf_s",
        "intalg.snf_max_rows", "intalg.snf_max_cols",
        "mcg.word_matrix_calls", "mcg.word_matrix_letters", "mcg.word_matrix_s",
        "mcg.transport_arc_calls", "mcg.transport_arc_letters", "mcg.transport_arc_s",
        "mcg.words_equal_s",
        "openbook.stabilize_calls", "openbook.stabilize_rejected", "openbook.stabilize_s",
    ] + [f"openbook.stabilize_{t}_s" for t in STAB_TYPES] + [
        "openbook.check_reality_calls", "openbook.check_reality_s",
        "openbook.reality_by_chain", "openbook.h1_s", "openbook.enumerate_sites_s",
        "surface.validate_involution_calls", "surface.validate_involution_s",
        "heegaard.heegaard_data_s", "heegaard.real_part_s",
        "catalog.build_s",
        "jsonio.loads_s", "jsonio.dumps_s", "jsonio.bytes",
        "contact.k_threshold_s", "contact.grid_points", "contact.report_s",
        "contact.profiles_s",
        "cli.import_s", "cli.main_s", "cli.process_s",
        "bench.ref_ms", "bench.wall_s", "bench.trace_overhead_s",
    ]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "jsonio.bytes":
        return "B"
    return "count"


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _beta_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of
    the order statistics, steadier than a single order statistic when
    each value carries timing noise."""
    n = len(values)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    out, below = 0.0, 0.0
    for i, v in enumerate(sorted(values), 1):
        w = _beta_reg(a, b, i / n)
        out += (w - below) * v
        below = w
    return out


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND of n ops
    beyond it."""
    return math.floor(100 * (n - TAIL_BEYOND) / n)


def summarize(ops, calibrated: bool) -> dict:
    """Completed ops per second of all op time, and the median and tail
    of the completed ops' times (each op's median over the rounds)."""
    times = ops.op_seconds(calibrated)
    p = tail_percentile(len(times))
    return {"ops_per_s": len(ops.spans) / ops.total_seconds(calibrated),
            "op_p50_ms": quantile(times, 0.5) * 1e3,
            "op_tail_ms": quantile(times, p / 100) * 1e3, "tail_percentile": p,
            "ops": len(times)}


# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, quick: bool, workdir: Path, cal, runs: int):
    """Build the inputs ``runs`` times, each in a fresh interpreter that
    imports realbook; returns the inputs and the calibrated and raw
    seconds of every set-up."""
    from workloads import run_child

    out = workdir / "inputs.json"
    argv = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(out)] + (["--quick"] if quick else [])
    calibrated, raw = [], []
    for _ in range(runs):
        cal.sample()
        t0 = time.perf_counter()
        code, _rss = run_child(argv, workdir, None, workdir / "setup.out",
                               workdir / "setup.err")
        t1 = time.perf_counter()
        cal.sample()
        if code != 0:
            sys.stderr.write((workdir / "setup.err").read_text())
            raise SystemExit(f"set-up failed with exit code {code}")
        calibrated.append(cal.scale(t0, t1))
        raw.append(t1 - t0)
    return json.loads(out.read_text()), calibrated, raw


def import_seconds(workdir: Path, runs: int = 3) -> float:
    """Median time of a fresh interpreter importing realbook.cli."""
    from workloads import child_env

    code = ("import time; t = time.perf_counter(); import realbook.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", code], cwd=workdir, env=child_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def timed_rounds(wl, cal, rounds: int, problems: list[str], tracer=None, **kw):
    """Run whole rounds; every round must reproduce the first one."""
    from workloads import Ops

    ops = Ops(cal, tracer)
    first = None
    for r in range(rounds):
        ops.new_round()
        out = wl.round(ops, **kw)
        if first is None:
            first = out
        elif not wl.same(first, out):
            problems.append(f"round {r + 1} differs from round 1")
    cal.sample()
    return ops, first


def per_layer(tracer, cal, measured, untraced, traced, extra: dict) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    out = {}
    for layer, calls in tracer.calls.items():
        out[f"{layer}_calls"] = calls
        out[f"{layer}_s"] = tracer.self_s[layer]
    out.update(tracer.counts)
    out.update(tracer.maxima)
    out["bench.ref_ms"] = cal.median_ms()
    out["bench.wall_s"] = measured.total_seconds(calibrated=False)
    out["bench.trace_overhead_s"] = traced.total_seconds() - untraced.total_seconds()
    out.update(extra)
    return {name: {"value": out.get(name, 0), "unit": unit_of(name)}
            for name in per_layer_names()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="toy-size inputs, one round")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "realbook" / "__init__.py").is_file():
        print(f"error: no realbook sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from calib import Calibrator

    # The host's speed drifts independently per CPU, so the run and its
    # children stay on one CPU, the one the reference loop measures.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    cal = Calibrator()
    outdir = HERE / "out"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        runs = 1 if args.trace or args.quick else SETUP_RUNS[args.workload]
        inputs, setup_cal, setup_raw = setup(args.workload, args.seed, args.quick, workdir,
                                             cal, runs)
        result, trace_ops = run_workload(args, inputs, workdir, cal, setup_cal, setup_raw)
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace_ops is not None:
        (outdir / f"trace-{stem}.json").write_text(json.dumps(trace_ops, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_workload(args, inputs, workdir, cal, setup_cal, setup_raw):
    from workloads import WORKLOADS, Cli

    wl = WORKLOADS[args.workload](inputs, workdir)
    per_round = wl.ops_per_round()
    rounds = 1 if args.quick or args.trace else \
        max(1, round(args.seconds / ROUND_S[args.workload]))
    if not args.quick and per_round < MIN_OPS:
        raise SystemExit(f"a round has {per_round} ops, fewer than {MIN_OPS}")
    problems: list[str] = []
    cal.sample()
    main_ops, outputs = timed_rounds(wl, cal, rounds, problems)
    passes = [main_ops]
    check_problems, json_kb = wl.check(outputs)
    problems += check_problems
    failures = list(main_ops.errors)
    if isinstance(wl, Cli):
        failures += wl.malformed_problems(outputs)

    trace_ops = None
    if args.trace:
        from tracing import Tracer

        extra = {}
        untraced = main_ops
        if isinstance(wl, Cli):
            import realbook.cli  # noqa: F401  (wrappers go on loaded modules only)

            extra["cli.process_s"] = main_ops.total_seconds(calibrated=False)
            extra["cli.import_s"] = import_seconds(workdir)
            untraced, out = timed_rounds(wl, cal, 1, problems, in_process=True)
            extra["cli.main_s"] = untraced.total_seconds(calibrated=False)
            passes.append(untraced)
        tracer = Tracer()
        tracer.install()
        try:
            kw = {"in_process": True} if isinstance(wl, Cli) else {}
            traced, out = timed_rounds(wl, cal, 1, problems, tracer, **kw)
        finally:
            tracer.uninstall()
        passes.append(traced)
        if not wl.same(outputs, out):
            problems.append("traced round differs from the untraced one")
        metrics = per_layer(tracer, cal, main_ops, untraced, traced, extra)
        trace_ops = tracer.ops
    else:
        cal_sum = summarize(main_ops, calibrated=True)
        raw_sum = summarize(main_ops, calibrated=False)
        metrics = {
            "ops_per_s": cal_sum["ops_per_s"], "op_p50_ms": cal_sum["op_p50_ms"],
            "op_tail_ms": cal_sum["op_tail_ms"], "setup_s": statistics.median(setup_cal),
            "peak_rss_mb": wl.peak_rss_mb(), "json_kb": json_kb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        print(f"{args.workload} seed {args.seed}: {rounds} round(s) of {per_round} ops; "
              f"tail is p{cal_sum['tail_percentile']} of {cal_sum['ops']} completed ops, "
              f"each timed by its median over the rounds")
        print("raw " + json.dumps({
            "ops_per_s": raw_sum["ops_per_s"], "op_p50_ms": raw_sum["op_p50_ms"],
            "op_tail_ms": raw_sum["op_tail_ms"], "setup_s": statistics.median(setup_raw),
            "ref_ms": cal.median_ms(), "ref_samples": len(cal.samples)}))
    for line in failures:
        print(f"failed op: {line}", file=sys.stderr)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    return result, trace_ops


if __name__ == "__main__":
    sys.exit(main())
