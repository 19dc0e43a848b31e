#!/usr/bin/env python3
"""Check that the learned index, when off, leaves the mapping tier untouched.

Replays ``trace_replay --scheme Base --trace '#52' --drive-writes 1`` with
the flash-resident mapping tier on (``--mapping-tier --cmt-pages 4``) and
the learned index at its default, off. Translation reads must flow
(``ftl.map.translation_reads`` > 0), and every ``ftl.map.learned_*``
counter must read 0: the model is never consulted (docs/MAPPING.md).
Usage:

    check_learned_off.py --trace-replay build/examples/trace_replay

Exits non-zero on failure. Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPLAY_ARGS = ["--scheme", "Base", "--trace", "#52", "--drive-writes", "1",
               "--mapping-tier", "--cmt-pages", "4"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--trace-replay", required=True,
                    help="path to the trace_replay binary")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "tier_no_learned.json")
        subprocess.run([args.trace_replay, *REPLAY_ARGS, "--metrics-out", out],
                       check=True, stdout=subprocess.DEVNULL)
        with open(out, "r", encoding="utf-8") as f:
            counters = json.load(f)["counters"]
    if counters["ftl.map.translation_reads"]["value"] <= 0:
        print("FAIL: tier never exercised", file=sys.stderr)
        return 1
    active = {k: v["value"] for k, v in counters.items()
              if k.startswith("ftl.map.learned_") and v["value"] != 0}
    if active:
        print(f"FAIL: learned-off leaked model activity: {active}",
              file=sys.stderr)
        return 1
    print("tier on / learned off: trans traffic flows, learned_* all 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
