"""Time the ladder rungs that are too slow to be workloads, through the CLI.

    python3 bench/ladder.py [RUNG ...]

Each rung is one `python -m facekoszul --json` call (the E8 character twice:
cold on an empty cache directory, then warm). Prints one line per call with
its wall time and exit code. Without arguments every rung runs, which takes
several minutes.
"""

import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUNGS = {
    # full_report on the 19-point interval of a 4-weight A3-adjoint facet
    "a3-facet-report": ["koszul", "A3", "adjoint", "--face=-2,1,0;-1,-1,1;-1,1,1;0,-1,2",
                        "--lo=6,3,1@0", "--hi=2,3,5@4"],
    # the face LP on the A5-adjoint highest root
    "a5-highest-root-lp": ["rigid", "A5", "adjoint", "--face=1,0,0,0,1", "--bound", "1"],
    # the face LP on one F4-adjoint weight
    "f4-single-weight-lp": ["rigid", "F4", "adjoint", "--face=1,0,-1,0", "--bound", "1"],
    # the 3875-dimensional E8 character, cold then warm
    "e8-character": ["character", "E8", "1,0,0,0,0,0,0,0"],
}


def main(names) -> int:
    cache = os.path.join(ROOT, "bench", "out", "ladder-cache")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = 0
    for name in names or RUNGS:
        shutil.rmtree(cache, ignore_errors=True)
        os.makedirs(cache)
        for state in ("cold", "warm") if name == "e8-character" else ("cold",):
            cmd = [sys.executable, "-m", "facekoszul", "--json", "--cache-dir", cache] + RUNGS[name]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            dt = time.perf_counter() - t0
            print(f"{name} {state}: {dt:.2f} s, exit {proc.returncode}", flush=True)
            code = code or proc.returncode
    shutil.rmtree(cache, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
