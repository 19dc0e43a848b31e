#!/usr/bin/env python3
"""Check that gc_timeline.py turns a replay's trace export into a CSV.

Replays ``trace_replay --scheme PHFTL --trace '#52' --drive-writes 2``
with ``--trace-out``, runs ``tools/gc_timeline.py`` on the export with
``--buckets 6``, and requires a non-empty CSV. Usage:

    check_gc_timeline.py --trace-replay build/examples/trace_replay

Exits non-zero on failure. Stdlib only.
"""

import argparse
import os
import subprocess
import sys
import tempfile

REPLAY_ARGS = ["--scheme", "PHFTL", "--trace", "#52", "--drive-writes", "2"]
GC_TIMELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "gc_timeline.py")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--trace-replay", required=True,
                    help="path to the trace_replay binary")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "gc_trace.json")
        csv = os.path.join(tmp, "gc_timeline.csv")
        subprocess.run([args.trace_replay, *REPLAY_ARGS, "--trace-out", trace],
                       check=True, stdout=subprocess.DEVNULL)
        subprocess.run([sys.executable, GC_TIMELINE, trace, "--buckets", "6",
                        "--out", csv], check=True)
        size = os.path.getsize(csv) if os.path.isfile(csv) else 0
    if size == 0:
        print("FAIL: gc_timeline.py wrote no CSV", file=sys.stderr)
        return 1
    print(f"gc_timeline.py wrote a {size}-byte CSV")
    return 0


if __name__ == "__main__":
    sys.exit(main())
