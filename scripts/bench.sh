#!/usr/bin/env bash
# Perf-baseline benchmark driver. Run from the repo root.
#
#   scripts/bench.sh              # full run, rewrites BENCH_offload.json,
#                                 # BENCH_engine.json, BENCH_mem.json,
#                                 # BENCH_resilience.json and
#                                 # BENCH_serve.json
#   scripts/bench.sh --check      # compare fresh runs against the
#                                 # committed baselines (2x tolerance for
#                                 # the wall-clock benches; exact for the
#                                 # simulated-time fig_domains metrics),
#                                 # exit non-zero on regression
#
# Knobs (environment):
#   HLWK_BENCH_ITERS  iterations per metric (default 20000)
#   HLWK_BENCH_OUT    output path override (single-binary runs only)
#   HLWK_THREADS      worker count for the pool half of fig_engine
#
# The metrics are host wall-clock nanoseconds (NOT modeled cycles):
# fig_offload_hotpath covers the offload round trip, software-TLB
# translate hit/miss, and an IKC send+recv pair; fig_bypass sweeps the
# in-LWK promoted syscalls across {offload, bypass, bypass+domains},
# the zero-copy device mmap, and the MPK-style domain switch, merging
# bypass_* metrics into BENCH_offload.json (run after
# fig_offload_hotpath, which rewrites that file); fig_engine covers the
# timer-wheel event queue (vs. the retired heap baseline) and the
# simcore::par pool (reduced fig6, serial vs. full pool); fig_mem covers
# the flat O(1) buddy allocator (vs. the retired BTreeSet baseline), a
# fragmentation sweep, and a first-touch fault storm with PCP hit rate.
# fig_scale_app records and replays the *real* mini-app (HPC-CG via the
# full collectives layer) at 1024/4096 nodes, merging its app_scale_*
# record and replay times into BENCH_engine.json — it must run after
# fig_engine, which rewrites that file wholesale. fig_domains is the
# exception: its metrics are *simulated* time (failure-domain recovery
# sweep), deterministic across machines, so its --check demands an
# exact match against BENCH_resilience.json.
# fig_serve is simulated time too (elastic-tenancy serving sweep: SLO
# shrink/grow, overload shedding, the 100+-cycle resize storm); its
# --check demands an exact match against BENCH_serve.json.
# See EXPERIMENTS.md for how to read and update them.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p bench \
    --bin fig_offload_hotpath --bin fig_bypass --bin fig_engine \
    --bin fig_mem --bin fig_domains --bin fig_scale_app --bin fig_serve

if [[ "${1:-}" == "--check" ]]; then
    ./target/release/fig_offload_hotpath --check BENCH_offload.json
    # fig_bypass gates the syscall fast path: bypass_* metrics within
    # 2x of the baseline AND the promoted read >= 3x cheaper than the
    # offload round trip with protection domains armed.
    ./target/release/fig_bypass --check BENCH_offload.json
    ./target/release/fig_engine --check BENCH_engine.json
    # fig_scale_app replays the real 1024-node mini-app: trials
    # reproduce each other, walk-verified, replay time within 2x.
    ./target/release/fig_scale_app --check BENCH_engine.json
    ./target/release/fig_mem --check BENCH_mem.json
    ./target/release/fig_domains --check BENCH_resilience.json
    # fig_serve: simulated-time elastic-tenancy metrics, exact match.
    exec ./target/release/fig_serve --check BENCH_serve.json
fi
./target/release/fig_offload_hotpath
# Order matters: fig_offload_hotpath rewrites BENCH_offload.json
# wholesale, fig_bypass then merges its bypass_* / devmap / domain
# metrics into the fresh file (same pattern as fig_engine/fig_scale_app).
./target/release/fig_bypass
./target/release/fig_engine
./target/release/fig_scale_app
./target/release/fig_mem
./target/release/fig_domains
exec ./target/release/fig_serve
