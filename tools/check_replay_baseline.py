#!/usr/bin/env python3
"""Check that default-knob PHFTL replays reproduce BENCH_replay.json exactly.

Runs ``trace_replay --scheme PHFTL`` on the suite traces ``#52`` and
``#144`` at 2 drive writes with every knob at its default and compares the
metrics export against the committed ``phftl`` rows of BENCH_replay.json:

* ``user_writes`` (sum of the per-stream ``*.host_writes`` counters) and
  ``gc_writes`` (``ftl.gc.moved_valid_pages``) must match exactly;
* write amplification must match to ``%.9g``;
* every ``ftl.map.*`` counter must read 0 — the mapping tier defaults off
  (docs/MAPPING.md) and its off path must do no tier work;
* the ``ftl.map.learned_*`` counters must be present (registered
  unconditionally) and read 0 — the learned index also defaults off.

The default drive is thereby held bit-identical to the committed baseline:
endurance off (docs/ENDURANCE.md), mapping tier off, and PHFTL's one sync
prediction path. Usage:

    check_replay_baseline.py --trace-replay build/examples/trace_replay \\
        --baseline BENCH_replay.json

Exits non-zero on the first mismatch. Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

TRACES = ("#52", "#144")
DRIVE_WRITES = "2"


def replay(binary, trace, out_path):
    subprocess.run(
        [binary, "--scheme", "PHFTL", "--trace", trace,
         "--drive-writes", DRIVE_WRITES, "--metrics-out", out_path],
        check=True, stdout=subprocess.DEVNULL)
    with open(out_path, "r", encoding="utf-8") as f:
        return json.load(f)


def expect(ok, msg):
    if not ok:
        print(f"FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def check(trace, m, exp):
    counters = m["counters"]
    user = sum(c["value"] for k, c in counters.items()
               if k.endswith(".host_writes"))
    gc = counters["ftl.gc.moved_valid_pages"]["value"]
    wa = m["gauges"]["ftl.write_amplification"]["value"]
    expect(user == exp["user_writes"],
           f"{trace}: user_writes {user} != {exp['user_writes']}")
    expect(gc == exp["gc_writes"],
           f"{trace}: gc_writes {gc} != {exp['gc_writes']}")
    expect(f"{wa:.9g}" == f"{exp['wa']:.9g}",
           f"{trace}: WA {wa} != committed {exp['wa']}")
    leaked = {k: c["value"] for k, c in counters.items()
              if k.startswith("ftl.map.") and c["value"] != 0}
    expect(not leaked, f"{trace}: tier-off leaked {leaked}")
    learned = [k for k in counters if k.startswith("ftl.map.learned_")]
    expect(len(learned) >= 3, f"{trace}: missing learned counters {learned}")
    print(f"{trace}: WA {wa}, user {user}, gc {gc} — identical; "
          f"ftl.map.* all 0 (incl. {len(learned)} learned counters)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--trace-replay", required=True,
                    help="path to the trace_replay binary")
    ap.add_argument("--baseline", required=True,
                    help="path to the committed BENCH_replay.json")
    args = ap.parse_args()

    with open(args.baseline, "r", encoding="utf-8") as f:
        baseline = json.load(f)
    rows = {e["trace"]: e for e in baseline["phftl"]}
    with tempfile.TemporaryDirectory() as tmp:
        for trace in TRACES:
            out = os.path.join(tmp, f"metrics_{trace.lstrip('#')}.json")
            check(trace, replay(args.trace_replay, trace, out), rows[trace])
    return 0


if __name__ == "__main__":
    sys.exit(main())
