"""lexalign benchmark: one command, three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload {pipeline,retrieval,dictbuild}
        --seed N --seconds S --trace {0,1} [--size {full,smoke}]

Run it from the root of a repository checkout; it imports lexalign from the
checkout's src/ and refuses to run without it. Generated inputs, child logs
and run outputs go under .perfbench/ in the checkout. The last stdout line is
one JSON object: correct, attempted, failed and metrics (end-to-end metrics
with --trace 0, per-layer metrics with --trace 1, named as in BENCHMARK.json).
The line before it holds machine facts, check results and derived figures.
The exit code is 0 only when every check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["pipeline", "retrieval", "dictbuild"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke runs every workload and check in seconds")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # unwinds through run_child, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "lexalign" / "__init__.py").is_file():
        print(f"perfbench: no lexalign sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lexalign
    if Path(lexalign.__file__).resolve().parent != SRC / "lexalign":
        print(f"perfbench: imported lexalign from {lexalign.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import facts
    import workloads

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    ctx = workloads.Context(src=SRC, work=WORK, seed=args.seed,
                            seconds=args.seconds, size=args.size, trace=bool(args.trace))
    outcome = workloads.WORKLOADS[args.workload](ctx)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    if missing:
        outcome.check("metrics_complete", False, missing)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                      "trace": args.trace, "facts": facts.machine_facts(),
                      "details": outcome.details, "checks": outcome.checks}))
    print(json.dumps({"correct": outcome.correct, "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed,
                      "metrics": {m["name"]: {"value": outcome.metrics[m["name"]],
                                              "unit": m["unit"]}
                                  for m in declared if m["name"] in outcome.metrics}}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
