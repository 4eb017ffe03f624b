"""The engine's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload steady|cold|churn --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout (``src/`` holds the program).  Prints
every metric with its unit and sample count, the per-app rows, every
correctness and known-answer verdict, and as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``).  Metric names and units come from
``BENCHMARK.json``.  Exits 1 when any output, verdict or trace
integrity check fails, 2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("steady", "cold", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    import verdicts
    from workloads import WORKLOADS, Run, peak_rss_mb

    run = Run(rng=random.Random(args.seed), seconds=args.seconds,
              traced=bool(args.trace))
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    result = WORKLOADS[args.workload](run)
    result.metrics.setdefault("peak_rss_mb", (peak_rss_mb(), 1))

    for what, ok in verdicts.all_verdicts():
        run.tally.check(ok, f"verdict failed: {what}")
        print(f"verdict {'ok  ' if ok else 'FAIL'} {what}")
    for row in result.rows:
        print(row)
    tally = run.tally
    failed_ratio = tally.failed / tally.attempted
    print(f"metric failed_ratio = {failed_ratio:.6g} 1 "
          f"(failed={tally.failed}, attempted={tally.attempted})")
    for note in tally.notes:
        print(f"failure: {note}")

    if args.trace:
        wanted = spec["per_layer"]
        values = {name: (value, None)
                  for name, value in result.layers.items()}
        path = os.path.join(ROOT, ".perfbench_out",
                            f"spans-{args.workload}.json")
        run.tracer.dump(path)
        print(f"spans: {len(run.tracer)} written to "
              f"{os.path.relpath(path, ROOT)}")
    else:
        wanted = spec["end_to_end"]
        values = result.metrics
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"perfbench: metric {m['name']} was not measured",
                  file=sys.stderr)
            return 1
        value, samples = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        count = "" if samples is None else f" (n={samples})"
        print(f"metric {m['name']} = {value:.6g} {m['unit']}{count}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
