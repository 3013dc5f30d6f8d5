"""Gate on one benchmark result: python3 .github/bench_ok.py RESULT [LAYER...]

RESULT is the JSON line that perfbench/run.py prints last.  Exits 0 when
the run reports correct outputs, no failed ops and a value above 0 for
every named per-layer metric (a layer at 0 means the tracer no longer
reaches the function it wraps); exits 1 otherwise.
"""

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 1:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        r = json.load(fh)
    layers = {name: r["metrics"][name]["value"] for name in argv[1:]}
    print("correct", r["correct"], "failed", r["failed"], layers)
    ok = r["correct"] is True and r["failed"] == 0 and all(v > 0 for v in layers.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
