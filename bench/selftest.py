"""Show that each workload's check rejects a deliberately wrong answer.

    python3 bench/selftest.py

For one real answer per workload family the check must pass, and for the same
answer made wrong it must fail: a Koszul report with one Hilbert entry off by
one, a face certificate scaled by 2, and a CLI character whose dimension is
off by one. Every run of the benchmark makes the same test on each answer of
its first round whose operation knows how to spoil it (see `Op.mutate`).
"""

import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads as W  # noqa: E402


def case(name, check, good, bad) -> bool:
    accepted = not W.rejects(check, good, True)
    rejected = W.rejects(check, bad, True)
    ok = accepted and rejected
    print(f"{'PASS' if ok else 'FAIL'} {name}: right answer "
          f"{'accepted' if accepted else 'REJECTED'}, wrong answer "
          f"{'rejected' if rejected else 'ACCEPTED'}")
    return ok


def main() -> int:
    rng = random.Random(0)
    fx, lo, hi = W.Slots(rng)("A2e", (1, 1), (2, 2))
    report = W.report_op(fx, lo, hi, True, rng, True)
    W.clear_memos()
    obj = report.run().to_json_obj()
    ok = case("koszul report, Hilbert entry +1", report.check, obj, W.perturb_report(obj))

    fx = W.Fixture("B3", "adjoint", ()).build()
    lp = W.lp_op(fx, W.face_subset(fx, rng), True)
    face = lp.run()
    ok &= case("face certificate x2", lp.check, face, lp.mutate(face))

    out = os.path.join(ROOT, "bench", "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as work:
        runner = W.CliRunner(ROOT, work)
        runner.fresh_cache()
        op = W.cli_ops(runner, ["character", "F4", "1,0,0,0"],
                       W.check_character("F4", (1, 0, 0, 0), 52), W.bump_dimension)[0]
        res = op.run()
        ok &= case("cli character dimension +1", op.check, res, op.mutate(res))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
