#!/usr/bin/env python3
"""Check that time-sliced GC stays WA-neutral against stop-the-world GC.

Replays ``trace_replay --scheme PHFTL --trace '#144' --drive-writes 2``
twice: once with the default stop-the-world GC, and once with
``--gc-mode time_sliced --gc-step-pages 8``. The time-sliced run's
write amplification must be within 1 % of the stop-the-world run's
(docs/QOS.md). Usage:

    check_timesliced_wa.py --trace-replay build/examples/trace_replay

Exits non-zero on failure. Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

BASE_ARGS = ["--scheme", "PHFTL", "--trace", "#144", "--drive-writes", "2"]
SLICED_ARGS = ["--gc-mode", "time_sliced", "--gc-step-pages", "8"]


def wa(binary, extra, out_path):
    subprocess.run([binary, *BASE_ARGS, *extra, "--metrics-out", out_path],
                   check=True, stdout=subprocess.DEVNULL)
    with open(out_path, "r", encoding="utf-8") as f:
        return json.load(f)["gauges"]["ftl.write_amplification"]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--trace-replay", required=True,
                    help="path to the trace_replay binary")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        stw = wa(args.trace_replay, [], os.path.join(tmp, "stw.json"))
        sliced = wa(args.trace_replay, SLICED_ARGS,
                    os.path.join(tmp, "sliced.json"))
    drift = abs(sliced - stw) / stw if stw else 0.0
    if drift > 0.01:
        print(f"FAIL: time-sliced WA {sliced} drifted {drift:.2%} from {stw}",
              file=sys.stderr)
        return 1
    print(f"WA stop-the-world {stw} vs time-sliced {sliced} "
          f"({drift:.3%} drift)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
