#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, figure conformance. Run from the repo
# root.
#
#   scripts/ci.sh                 # build + test + clippy + a locked
#                                 # `cargo check` of the benchmark
#                                 # harness + one run of each of the
#                                 # four examples/ + the figure
#                                 # table (every binary that prints
#                                 # simulated output against its golden
#                                 # results/reduced/<bin>.txt at 1
#                                 # thread, and at 4 threads with the
#                                 # bypass off and armed-but-cold)
#   scripts/ci.sh --bench-smoke   # the figure table as
#                                 # `--check BENCH_e2e.json` (1-thread
#                                 # table time within 2x, pool speedup
#                                 # floor), plus the offload hot-path and
#                                 # memory benches (few iterations) and a
#                                 # fail on a >2x regression against
#                                 # BENCH_offload.json / BENCH_mem.json,
#                                 # plus the fig_scale_app real-mini-app
#                                 # replay gate (1024 nodes, walk-verified,
#                                 # replay time within 2x of
#                                 # BENCH_engine.json)
#   scripts/ci.sh --soak          # also soak the resilience sweeps:
#                                 # HLWK_SOAK_SEEDS (default 5) fresh
#                                 # seeds through fig_resilience (5% loss
#                                 # + node crash), fig_domains (rack
#                                 # kills + fault storm) and the
#                                 # fig_serve resize storm, each at its
#                                 # default length and under a
#                                 # wall-clock timeout — a hang or claim
#                                 # violation on ANY seed fails
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space: a private mktemp dir instead of fixed /tmp names, so
# concurrent CI runs on one machine cannot clobber each other's files.
scratch="$(mktemp -d "${TMPDIR:-/tmp}/hlwk-ci.XXXXXX")"
trap 'rm -rf "$scratch"' EXIT

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings
# The benchmark harness builds against the crates with its committed
# lock file: this fails when a crate edit breaks the harness or would
# make cargo rewrite perfbench/harness/Cargo.lock.
cargo check --release --offline --locked \
    --manifest-path perfbench/harness/Cargo.toml \
    --target-dir target/perfbench-check

# The examples print simulated output too. `cargo test` only builds
# them; build them in release and run each once, so one that panics or
# exits non-zero fails the gate.
cargo build --release --examples -p cluster
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    ./target/release/examples/"$name" > "$scratch/example_$name.txt"
done

# Figure conformance: every binary that prints simulated output must
# print its committed golden at 1 thread, and at 4 threads with the
# bypass off and armed-but-cold. A mismatch names the row's first
# differing line and the command that regenerates its golden. Under
# --bench-smoke the table runs once, as the BENCH_e2e.json check below.
if [[ "${1:-}" != "--bench-smoke" ]]; then
    HLWK_BENCH_OUT="$scratch/e2e.json" ./target/release/fig_table
fi

if [[ "${1:-}" == "--soak" ]]; then
    # Resilience soak: fresh seeds through both fault sweeps, each run
    # under a hard wall-clock guard. What it hunts: schedule-dependent
    # hangs (a recovery loop that fails to terminate shows up as a
    # timeout, exit 124) and seed-dependent claim violations
    # (fig_domains exits non-zero if any acceptance claim breaks).
    seeds="${HLWK_SOAK_SEEDS:-5}"
    for s in $(seq 1 "$seeds"); do
        env HLWK_SEED_BASE=$((11851 + s)) HLWK_NODES=4 \
            timeout 300 ./target/release/fig_resilience > "$scratch/soak_resil_$s.txt"
        env HLWK_DOMAIN_SEED=$((53870 + s)) \
            timeout 300 ./target/release/fig_domains > "$scratch/soak_dom_$s.txt"
    done
    # Resize-storm soak: fresh seeds through the tenancy storm profile
    # (one reserve/release cycle per 10 ms window, width-pinned gang
    # evicted and resumed on every cycle). Hunts schedule-dependent
    # hangs in the drain protocol and seed-dependent reclaim-audit or
    # digest failures; any lost request or corrupted job fails the run.
    timeout 300 ./target/release/fig_serve --soak "$seeds"
    echo "soak passed ($seeds seeds x {fig_resilience @ 5% loss + crash, fig_domains rack kills + storm, fig_serve resize storm}, no hangs)"
fi

if [[ "${1:-}" == "--bench-smoke" ]]; then
    # Smoke iterations: enough to exercise every measured path and give
    # stable-order-of-magnitude numbers, small enough for CI. The checks
    # compare against the committed baselines with the binaries' built-in
    # 2x tolerance, so smoke-run noise does not produce false failures.
    # Offload and syscall fast-path gate: every metric within tolerance
    # AND the promoted read >= 3x cheaper than both the offload round
    # trip and the offloaded read with protection domains armed (the
    # fresh-run floors, not baseline-relative).
    HLWK_BENCH_ITERS="${HLWK_BENCH_ITERS:-2000}" \
        ./target/release/fig_offload_hotpath --check BENCH_offload.json
    # Figure table: goldens three ways, the 1-thread table time within
    # 2x of BENCH_e2e.json, and the simcore::par pool's speedup floor.
    ./target/release/fig_table --check BENCH_e2e.json
    # Real mini-app, recorded and replayed: 1024-node HPC-CG, every
    # trial reproducing the first, the makespan verified against a
    # direct collectives walk, and the replay time within 2x of
    # BENCH_engine.json.
    timeout 300 ./target/release/fig_scale_app --check BENCH_engine.json
    # fig_mem needs a few more iterations than the hot-path bench before the
    # fault-storm metrics amortize their setup; still well under a second.
    HLWK_BENCH_ITERS="${HLWK_MEM_BENCH_ITERS:-5000}" \
        ./target/release/fig_mem --check BENCH_mem.json
fi
