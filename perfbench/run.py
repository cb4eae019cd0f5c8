#!/usr/bin/env python3
"""Host wall-clock benchmark of the hlwk simulator.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the Rust harness in ``perfbench/harness`` against the simulator
crates (into ``$CARGO_TARGET_DIR``, default ``.bench_build``), runs one
workload on one worker thread, and prints the harness's result as the
last line of standard output: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones and also writes the
recorded spans as Chrome trace-event JSON next to the build. Host times
are medians over repeated set-up + unit cycles, rescaled to the host's
uncontended speed by a fixed reference kernel run between cycles (see
``harness/src/probe.rs``).

Workloads (see ``harness/src/workloads.rs``):

* ``paper_grid``  - the three OS variants at 8 and 16 nodes, each
  running FWQ, an OSU allreduce cell and a replayed mini-app;
* ``replay_4096`` - HPC-CG recorded and replayed on the partitioned
  engine at 4096 nodes;
* ``lossy_walk``  - HPC-CG on a lossy fabric, walked on the global
  event wheel through the retransmitting reliable layer;
* ``offload_mix`` - the offloaded calls the repository's own offload
  benchmarks time, in equal seeded shares, through the offload path and
  the in-LWK bypass.

Exits non-zero, without a result line, if the harness cannot be built
or fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent / "harness"
BUILD_TIMEOUT_S = 840
# Warm-up, a workload's own reference run and the last cycle come on
# top of the measured seconds.
RUN_GRACE_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HARNESS / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def valid(result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool):
        return False
    counts = (result["attempted"], result["failed"])
    if not all(isinstance(c, int) and c >= 0 for c in counts) or counts[0] < 1:
        return False
    metrics = result["metrics"]
    return bool(metrics) and all(
        set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
        and math.isfinite(m["value"]) for m in metrics.values())


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="see the list above")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # Inputs come from the command line only: no inherited simulator knob
    # may change what runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HLWK_")}
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build(env)

    env["HLWK_THREADS"] = "1"
    env["HLWK_ENGINE_THREADS"] = "1"
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed % 2**64),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(target / f"perfbench-trace-{args.workload}.json")]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=args.seconds + RUN_GRACE_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"harness failed: {e}")
    if done.returncode != 0:
        fail(f"harness exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("harness printed no result")
    if not valid(result):
        fail(f"malformed result: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
