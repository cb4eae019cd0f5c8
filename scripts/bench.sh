#!/usr/bin/env bash
# Perf-baseline benchmark driver. Run from the repo root.
#
#   scripts/bench.sh              # full run, rewrites BENCH_offload.json,
#                                 # BENCH_e2e.json, BENCH_engine.json
#                                 # and BENCH_mem.json
#   scripts/bench.sh --check      # compare fresh runs against the
#                                 # committed baselines (2x tolerance),
#                                 # exit non-zero on regression or on a
#                                 # metric the baseline lacks
#
# Knobs (environment):
#   HLWK_BENCH_ITERS  iterations per metric (default 20000)
#   HLWK_BENCH_OUT    output path override (single-binary runs only)
#   HLWK_THREADS      worker count for fig_table's pool benchmark
#
# The metrics are host wall-clock nanoseconds (NOT modeled cycles):
# fig_offload_hotpath covers the offload round trip, software-TLB
# translate hit/miss, an IKC send+recv pair, unified-address-space cold
# faults and warm hits, and sweeps the in-LWK promoted syscalls across
# {offload, bypass, bypass+domains} plus the zero-copy device mmap and
# the MPK-style domain switch; fig_table runs every figure binary
# against its golden results/reduced/<bin>.txt three ways, records each
# one's wall time, and times the simcore::par pool (reduced fig6,
# serial vs. full pool); fig_mem covers the flat O(1) buddy allocator,
# a fragmentation sweep, and a first-touch fault storm with PCP hit
# rate. fig_scale_app records and replays the *real* mini-app (HPC-CG
# via the full collectives layer) at 1024/4096 nodes and writes its
# app_scale_* record and replay times to BENCH_engine.json. Simulated
# output (fig_domains and fig_serve included) is checked against the
# goldens under results/reduced/ by fig_table, not against a BENCH file.
# See EXPERIMENTS.md for how to read and update them.
set -euo pipefail
cd "$(dirname "$0")/.."

# fig_table runs its sibling figure binaries, so build them all.
cargo build --release -p bench

if [[ "${1:-}" == "--check" ]]; then
    # fig_offload_hotpath also gates the syscall fast path: the
    # promoted read >= 3x cheaper than the offload round trip and the
    # offloaded read with protection domains armed.
    ./target/release/fig_offload_hotpath --check BENCH_offload.json
    # fig_table: goldens three ways, 1-thread table time within 2x, and
    # the pool speedup floor.
    ./target/release/fig_table --check BENCH_e2e.json
    # fig_scale_app replays the real 1024-node mini-app: trials
    # reproduce each other, walk-verified, replay time within 2x.
    ./target/release/fig_scale_app --check BENCH_engine.json
    exec ./target/release/fig_mem --check BENCH_mem.json
fi
./target/release/fig_offload_hotpath
./target/release/fig_table
./target/release/fig_scale_app
exec ./target/release/fig_mem
