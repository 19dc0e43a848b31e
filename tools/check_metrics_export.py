#!/usr/bin/env python3
"""Check that trace_replay's metrics and trace exports are valid JSON.

Replays ``trace_replay --scheme PHFTL --trace '#52' --drive-writes 1``
with ``--metrics-out`` and ``--trace-out`` and parses both files with the
json module. Usage:

    check_metrics_export.py --trace-replay build/examples/trace_replay

Exits non-zero on failure. Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPLAY_ARGS = ["--scheme", "PHFTL", "--trace", "#52", "--drive-writes", "1"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--trace-replay", required=True,
                    help="path to the trace_replay binary")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        metrics = os.path.join(tmp, "metrics.json")
        trace = os.path.join(tmp, "trace.json")
        subprocess.run([args.trace_replay, *REPLAY_ARGS,
                        "--metrics-out", metrics, "--trace-out", trace],
                       check=True, stdout=subprocess.DEVNULL)
        for path in (metrics, trace):
            try:
                with open(path, "r", encoding="utf-8") as f:
                    json.load(f)
            except (OSError, ValueError) as e:
                print(f"FAIL: {os.path.basename(path)}: {e}", file=sys.stderr)
                return 1
    print("metrics and trace exports parse as JSON")
    return 0


if __name__ == "__main__":
    sys.exit(main())
