"""Benchmark entry point: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up is measured in SETUP_PROBES fresh
interpreters that stop after set-up (half before, half after the measuring
one), plus the measuring one; the median is reported. The measuring interpreter then runs whole rounds of the workload
for at least S seconds of timed operations (and at least 100 operations).
With --trace 0 the last line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
SETUP_PROBES = 4
TIMEOUT = 170.0


def spawn(args, extra=()) -> dict:
    """Run the worker to completion, one process at a time; parse its last line."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned), *extra], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "facekoszul", "__init__.py")):
        sys.exit("no facekoszul sources under src/ in this checkout")

    # probes before and after the measuring process, so the median samples
    # the machine at both ends of the run
    probe = lambda: spawn(args, ["--setup-only"])["setup_s"]  # noqa: E731
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    res = spawn(args)
    setups += [res["setup_s"]] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    res["setup_s"] = statistics.median(setups)

    if args.trace:
        layers = res["per_layer"]
        layers["cli.import_s"] = res["setup_s"] if args.workload == "cli" else 0.0
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": res[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for line in res["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    summary = {k: res[k] for k in ("rounds", "ops_per_round", "ok_ops", "busy_s", "round_s",
                                    "failures", "mutations")}
    summary["setup_samples_s"] = setups
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
