"""`python -m facekoszul` under the benchmark's tracer, for traced cli runs.

    python3 bench/clishim.py TRACE_OUT [facekoszul arguments ...]

Runs the command-line driver in this process with every layer wrapped, then
writes the spans to TRACE_OUT and exits with the driver's exit code.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import facekoszul.cli  # noqa: E402
import tracer  # noqa: E402

if __name__ == "__main__":
    tr = tracer.Tracer()
    tr.install()
    try:
        code = facekoszul.cli.main(sys.argv[2:])
    finally:
        tr.uninstall()
        tr.dump(sys.argv[1])
    sys.exit(code)
