"""One workload in a fresh interpreter: set up, run whole rounds, check, report.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --spawned T [--setup-only]

`--spawned` is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process; set-up time runs from there to the first timed
operation. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import facekoszul  # noqa: E402

if not os.path.abspath(facekoszul.__file__).startswith(os.path.join(ROOT, "src")):
    sys.exit(f"facekoszul imported from {facekoszul.__file__}, not from this checkout")

import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

MIN_OPS = 100          # so that ten latencies lie beyond the 90th percentile
WALL_LIMIT = 150.0     # stop starting rounds after this many seconds of wall time


class Runner:
    """Runs rounds of a plan and keeps latencies, failures and check results."""

    def __init__(self, plan):
        self.plan = plan
        self.durations: list[float] = []
        self.busy = 0.0
        self.attempted = self.failed = 0
        self.failures: dict[str, int] = {}
        self.errors: list[str] = []
        self.rounds = 0
        self.mutations = [0, 0]      # tried, rejected
        self.round_durations: list[list[float]] = []

    def round(self, full: bool) -> float:
        """One whole round; returns its busy (timed) seconds."""
        plan = self.plan
        plan.prepare_round()
        for op in plan.warmup:
            try:
                self._check(op, op.run(), full)
            except Exception as exc:  # a failed warm-up spoils the round's checks
                self._error(f"warm-up {op.kind}: {type(exc).__name__}: {exc}")
        gc.collect()
        busy = 0.0
        times = []
        for op in plan.ops:
            if op.cold:
                W.clear_memos()
                gc.collect()
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                dt = time.perf_counter() - t0
                self.failed += 1
                name = f"{op.kind}: {type(exc).__name__}"
                self.failures[name] = self.failures.get(name, 0) + 1
                result = exc
            else:
                dt = time.perf_counter() - t0
                self.durations.append(dt)
                self._check(op, result, full)
            self.attempted += 1
            busy += dt
            times.append(dt)
        self.busy += busy
        self.rounds += 1
        self.round_durations.append(times)
        return busy

    def _check(self, op, result, full: bool) -> None:
        try:
            op.check(result, full)
            if full and op.mutate is not None:
                self.mutations[0] += 1
                if W.rejects(op.check, op.mutate(result), True):
                    self.mutations[1] += 1
                else:
                    self._error(f"{op.kind}: check accepted a deliberately wrong answer")
        except W.CheckError as exc:
            self._error(f"{op.kind}: {exc}")
        except Exception as exc:  # a broken check is a failed check
            self._error(f"{op.kind}: check raised {type(exc).__name__}: {exc}")

    def _error(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)

    def until(self, seconds: float, start: float) -> tuple[int, float]:
        """Whole rounds until `seconds` of timed operations and MIN_OPS
        successes; returns the rounds run and their timed seconds."""
        rounds, busy, ops = self.rounds, self.busy, len(self.durations)
        while True:
            self.round(full=self.rounds == 0)
            done = self.busy - busy >= seconds and len(self.durations) - ops >= MIN_OPS
            if done or time.monotonic() - start > WALL_LIMIT:
                return self.rounds - rounds, self.busy - busy


def per_layer(tr, setup_mark, setup_counts, rounds, child_traces, extra) -> dict:
    """Per-layer metrics: the set-up phase once plus one average traced round."""
    setup = tr.summary(0, setup_mark)
    timed = tr.summary(setup_mark)
    counts = {k: v - setup_counts.get(k, 0) for k, v in tr.counts.items()}
    maxima = dict(tr.maxima)
    distinct = set(tr.distinct)
    for path in child_traces:
        child = tracing.load(path)
        for name, rec in child["spans"].items():
            acc = timed.setdefault(name, {"calls": 0, "self_s": 0.0, "max_s": 0.0})
            acc["calls"] += rec["calls"]
            acc["self_s"] += rec["self_s"]
            acc["max_s"] = max(acc["max_s"], rec["max_s"])
        for k, v in child["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in child["maxima"].items():
            maxima[k] = max(maxima.get(k, 0), v)
        distinct |= set(child["distinct"])
    out = {}
    names = {t[2] for t in tracing.TARGETS} | {t[3] for t in tracing.METHODS}
    for name in names:
        s, r = setup.get(name, {}), timed.get(name, {})
        out[name + ".calls"] = s.get("calls", 0) + r.get("calls", 0) / rounds
        out[name + ".self_s"] = s.get("self_s", 0.0) + r.get("self_s", 0.0) / rounds
        out[name + ".max_s"] = max(s.get("max_s", 0.0), r.get("max_s", 0.0))
    for key in ("facegeom.lies_on_proper_face.faces", "facegeom.enumerate_face_subsets.faces",
                "weightposet.face_interval.points", "koszulcheck.hilbert_fill.entries",
                "cache.lookup.hits", "homdims.constituent_lookups", "homdims.constituent_misses"):
        out[key] = setup_counts.get(key, 0) + counts.get(key, 0) / rounds
    for key in ("characters.power.support_max", "characters.tensor.support_max"):
        out[key] = maxima.get(key, 0)
    out["characters.irr_character.distinct"] = len(distinct)
    lookups = out["homdims.constituent_lookups"]
    out["homdims.constituent_miss_ratio"] = out["homdims.constituent_misses"] / lookups if lookups else 0.0
    out.update(extra)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tr = tracing.Tracer() if args.trace else None
    if tr is not None:
        tr.install()
    cli_runner = None
    if args.workload == "cli":
        import facekoszul.cli  # noqa: F401  (what a fresh cli process imports)

        cli_runner = W.CliRunner(ROOT)
        plan = W.cli(args.seed, cli_runner)
    else:
        plan = W.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    start = time.monotonic()
    runner = Runner(plan)
    try:
        if tr is None:
            runner.until(args.seconds, start)
        else:
            layers = traced_phase(tr, runner, cli_runner, args, start)
    finally:
        if cli_runner is not None:
            cli_runner.cleanup()

    usage = resource.RUSAGE_CHILDREN if cli_runner is not None else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "correct": not runner.errors and runner.mutations[1] == runner.mutations[0] > 0,
        "errors": runner.errors,
        "mutations": runner.mutations,
        "rounds": runner.rounds,
        "ops_per_round": len(plan.ops),
        "busy_s": runner.busy,
        "round_s": [round(sum(r), 4) for r in runner.round_durations],
        "ok_ops": len(runner.durations),
        "ops_per_s": len(runner.durations) / runner.busy if runner.busy else 0.0,
        "op_p50_s": statistics.median(runner.durations),
        "op_p90_s": statistics.quantiles(runner.durations, n=10)[8],
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    if tr is not None:
        result["per_layer"] = layers
    print(json.dumps(result))
    return 0


def traced_phase(tr, runner, cli_runner, args, start) -> dict:
    """Set-up has run traced. Run one round untraced, then traced rounds for
    the time budget; write the spans out and return the per-layer metrics."""
    setup_mark, setup_counts = tr.mark(), dict(tr.counts)
    extra = {f"cli.{sub}.p50_s": 0.0 for sub in W.SUBCOMMANDS}
    extra.update({"cache.file_bytes": 0, "cli.report_bytes": 0})
    out_dir = os.path.join(ROOT, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tr.uninstall()
    untraced = runner.round(full=True)
    if cli_runner is not None:
        extra.update(cli_layer(cli_runner, runner.plan, runner.round_durations[0]))
        cli_runner.trace_dir = os.path.join(cli_runner.work, "traces")
        os.makedirs(cli_runner.trace_dir)
    tr.install()
    rounds, busy = runner.until(args.seconds, start)
    tr.uninstall()
    extra["bench.trace.untraced_round_s"] = untraced
    extra["bench.trace.overhead_s"] = busy / rounds - untraced
    tr.dump(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json.gz"))
    children = cli_runner.traces if cli_runner is not None else []
    layers = per_layer(tr, setup_mark, setup_counts, rounds, children, extra)
    if cli_runner is not None:
        kept = os.path.join(out_dir, f"trace-cli-seed{args.seed}")
        shutil.rmtree(kept, ignore_errors=True)
        shutil.move(cli_runner.trace_dir, kept)
    return layers


def cli_layer(cli_runner, plan, durations) -> dict:
    """Per-subcommand medians and the report volume, from the untraced round."""
    by_sub: dict[str, list[float]] = {}
    for op, dt in zip(plan.ops, durations):
        by_sub.setdefault(op.kind.rsplit("-", 1)[0], []).append(dt)
    out = {f"cli.{sub}.p50_s": statistics.median(by_sub.get(sub, [0.0])) for sub in W.SUBCOMMANDS}
    out["cache.file_bytes"] = cli_runner.cache_bytes()
    out["cli.report_bytes"] = cli_runner.out_bytes
    return out


if __name__ == "__main__":
    sys.exit(main())
