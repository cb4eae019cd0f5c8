#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, parallel-determinism smoke. Run from
# the repo root.
#
#   scripts/ci.sh                 # build + test + clippy + determinism
#   scripts/ci.sh --bench-smoke   # also run the offload hot-path,
#                                 # event-engine and memory benches (few
#                                 # iterations) and fail on a >2x
#                                 # regression against BENCH_offload.json
#                                 # / BENCH_engine.json / BENCH_mem.json,
#                                 # plus the exact-match failure-domain
#                                 # check against BENCH_resilience.json,
#                                 # plus the fig_scale_app real-mini-app
#                                 # replay gate (1024 nodes, walk-verified,
#                                 # replay time within 2x of
#                                 # BENCH_engine.json),
#                                 # and the fig_serve elastic-tenancy
#                                 # gate (exact match vs BENCH_serve.json
#                                 # at full knobs, 100+ resize cycles)
#   scripts/ci.sh --soak          # also soak the resilience sweeps:
#                                 # HLWK_SOAK_SEEDS (default 5) fresh
#                                 # seeds through fig_resilience (5% loss
#                                 # + node crash), fig_domains (rack
#                                 # kills + fault storm) and the
#                                 # fig_serve resize storm, each run
#                                 # under a wall-clock timeout — a hang
#                                 # or claim violation on ANY seed fails
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space: a private mktemp dir instead of fixed /tmp names, so
# concurrent CI runs on one machine cannot clobber each other's files.
scratch="$(mktemp -d "${TMPDIR:-/tmp}/hlwk-ci.XXXXXX")"
trap 'rm -rf "$scratch"' EXIT

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings

# same_output WHAT A B: fail unless files A and B are byte-identical;
# WHAT names the two runs in the failure message.
same_output() {
    if ! diff -q "$2" "$3" >/dev/null; then
        echo "DETERMINISM FAILURE: $1" >&2
        diff "$2" "$3" >&2 || true
        exit 1
    fi
}

# Parallel-determinism smoke: thread count must never change figure
# output. Run a reduced fig6 sweep serial and parallel, diff stdout.
reduced="HLWK_RUNS=2 HLWK_NODES=4 HLWK_OSU_ITERS=2"
env $reduced HLWK_THREADS=1 ./target/release/fig6_osu_latency > "$scratch/fig6_t1.txt"
env $reduced HLWK_THREADS=4 ./target/release/fig6_osu_latency > "$scratch/fig6_tn.txt"
same_output "fig6 at 1 vs 4 threads" "$scratch/fig6_t1.txt" "$scratch/fig6_tn.txt"
echo "parallel-determinism smoke passed (fig6 @ 1 thread == 4 threads)"

# Bypass-determinism smoke: the offload-bypass machinery must be
# invisible to modeled time unless a call is actually promoted. Figure
# output must be byte-identical with the bypass unset (the default,
# already captured above), explicitly off, and armed-but-cold
# (enabled with an infinite promotion threshold: every check runs,
# nothing promotes).
env $reduced HLWK_THREADS=1 HLWK_BYPASS=off \
    ./target/release/fig6_osu_latency > "$scratch/fig6_off.txt"
env $reduced HLWK_THREADS=1 HLWK_BYPASS=on-but-cold \
    ./target/release/fig6_osu_latency > "$scratch/fig6_cold.txt"
env HLWK_FWQ_SECS=1 HLWK_BYPASS=off \
    ./target/release/fig5_fwq > "$scratch/fig5_off.txt"
env HLWK_FWQ_SECS=1 HLWK_BYPASS=on-but-cold \
    ./target/release/fig5_fwq > "$scratch/fig5_cold.txt"
for pair in "fig6_t1 fig6_off" "fig6_t1 fig6_cold" "fig5_off fig5_cold"; do
    a="${pair% *}"
    b="${pair#* }"
    same_output "$a vs $b (bypass must not change figures)" "$scratch/$a.txt" "$scratch/$b.txt"
done
echo "bypass-determinism smoke passed (fig5/fig6 byte-identical: default == off == armed-but-cold)"

# Memory-subsystem determinism smoke: the page-size ablation exercises
# the buddy/PCP/fault-around paths end to end; its figure output must be
# thread-count independent too.
env HLWK_THREADS=1 ./target/release/fig_ablation_pagesize > "$scratch/pgsz_t1.txt"
env HLWK_THREADS=4 ./target/release/fig_ablation_pagesize > "$scratch/pgsz_tn.txt"
same_output "pagesize ablation at 1 vs 4 threads" "$scratch/pgsz_t1.txt" "$scratch/pgsz_tn.txt"
echo "memory-determinism smoke passed (pagesize ablation @ 1 thread == 4 threads)"

# Resilience smoke: link faults + node crash + every recovery policy,
# reduced grid. Two properties:
#   1. thread-count independence (faulty runs draw from per-link RNG
#      streams, which must not observe scheduling);
#   2. fault-free equivalence — the binary itself asserts per loss-free
#      cell that the resilient runner reproduces run_miniapp exactly, so
#      merely *wiring in* the recovery machinery costs nothing.
resil="HLWK_RESIL_ITERS=6 HLWK_NODES=4"
env $resil HLWK_THREADS=1 ./target/release/fig_resilience > "$scratch/resil_t1.txt"
env $resil HLWK_THREADS=4 ./target/release/fig_resilience > "$scratch/resil_tn.txt"
same_output "fig_resilience at 1 vs 4 threads" "$scratch/resil_t1.txt" "$scratch/resil_tn.txt"
echo "resilience smoke passed (fig_resilience @ 1 thread == 4 threads, fault-free cells == plain runs)"

# Failure-domain smoke: correlated rack kills + the stochastic fault
# storm draw from per-domain RNG streams, which must not observe worker
# scheduling either. The binary also self-asserts the acceptance claims
# (buddy rollback < global rollback, degraded completes where abort
# loses, async overhead < blocking) in every mode, reduced knobs
# included.
dom="HLWK_DOMAIN_ITERS=6"
env $dom HLWK_THREADS=1 HLWK_BENCH_OUT="$scratch/dom_t1.json" \
    ./target/release/fig_domains > "$scratch/dom_t1.txt"
env $dom HLWK_THREADS=4 HLWK_BENCH_OUT="$scratch/dom_t4.json" \
    ./target/release/fig_domains > "$scratch/dom_t4.txt"
same_output "fig_domains metrics at 1 vs 4 threads" "$scratch/dom_t1.json" "$scratch/dom_t4.json"
echo "failure-domain smoke passed (fig_domains @ 1 thread == 4 threads, claims hold)"

# Mini-app smoke: fig8's mini-app grid walks each run on the global
# wheel, one cluster per pool cell. The cell pool size must never
# change figure output — reduced grid, 1 vs 4 threads, diff stdout.
fig8r="HLWK_RUNS=2 HLWK_NODES=8"
env $fig8r HLWK_THREADS=1 ./target/release/fig8_miniapps > "$scratch/fig8_t1.txt"
env $fig8r HLWK_THREADS=4 ./target/release/fig8_miniapps > "$scratch/fig8_t4.txt"
same_output "fig8 at 1 vs 4 threads" "$scratch/fig8_t1.txt" "$scratch/fig8_t4.txt"
echo "mini-app smoke passed (fig8 @ 1 thread == 4 threads)"

# Elastic-tenancy smoke: SLO-driven online LWK resizing under the mixed
# serving + gang workload, reduced knobs (40 windows, 2 nodes). The
# binary self-asserts the acceptance claims (conservation, idle holds,
# overload sheds then gets elastic relief, storm audits every released
# core) in every mode; here we additionally require the metrics and
# the figure output (minus the line naming the metrics file) to be
# byte-identical at 1 vs 4 threads.
serve="HLWK_SERVE_WINDOWS=40 HLWK_SERVE_NODES=2"
for t in 1 4; do
    env $serve HLWK_THREADS=$t HLWK_BENCH_OUT="$scratch/serve_t$t.json" \
        ./target/release/fig_serve | grep -v '^wrote ' > "$scratch/serve_t$t.txt"
done
same_output "fig_serve metrics at 1 vs 4 threads" "$scratch/serve_t1.json" "$scratch/serve_t4.json"
same_output "fig_serve output at 1 vs 4 threads" "$scratch/serve_t1.txt" "$scratch/serve_t4.txt"
echo "elastic-tenancy smoke passed (fig_serve @ 1 thread == 4 threads, claims hold)"

if [[ "${1:-}" == "--soak" ]]; then
    # Resilience soak: fresh seeds through both fault sweeps, each run
    # under a hard wall-clock guard. What it hunts: schedule-dependent
    # hangs (a recovery loop that fails to terminate shows up as a
    # timeout, exit 124) and seed-dependent claim violations
    # (fig_domains exits non-zero if any acceptance claim breaks).
    seeds="${HLWK_SOAK_SEEDS:-5}"
    for s in $(seq 1 "$seeds"); do
        env HLWK_SEED_BASE=$((11851 + s)) HLWK_RESIL_ITERS=6 HLWK_NODES=4 \
            timeout 300 ./target/release/fig_resilience > "$scratch/soak_resil_$s.txt"
        # Seed varies, job length stays at the default: the rollback
        # claims need a kill that lands past a local snapshot that is
        # newer than the last global commit, which the default length
        # guarantees.
        env HLWK_DOMAIN_SEED=$((53870 + s)) \
            HLWK_BENCH_OUT="$scratch/soak_dom_$s.json" \
            timeout 300 ./target/release/fig_domains > "$scratch/soak_dom_$s.txt"
    done
    # Resize-storm soak: fresh seeds through the tenancy storm profile
    # (one reserve/release cycle per 10 ms window, width-pinned gang
    # evicted and resumed on every cycle). Hunts schedule-dependent
    # hangs in the drain protocol and seed-dependent reclaim-audit or
    # digest failures; any lost request or corrupted job fails the run.
    env HLWK_SERVE_WINDOWS=60 HLWK_SERVE_NODES=2 \
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
    HLWK_BENCH_ITERS="${HLWK_BENCH_ITERS:-2000}" \
        ./target/release/fig_engine --check BENCH_engine.json
    # Real mini-app, recorded and replayed: 1024-node HPC-CG, every
    # trial reproducing the first, the makespan verified against a
    # direct global-wheel walk, and the replay time within 2x of
    # BENCH_engine.json.
    timeout 300 ./target/release/fig_scale_app --check BENCH_engine.json
    # fig_mem needs a few more iterations than the other two before the
    # fault-storm metrics amortize their setup; still well under a second.
    HLWK_BENCH_ITERS="${HLWK_MEM_BENCH_ITERS:-5000}" \
        ./target/release/fig_mem --check BENCH_mem.json
    # Simulated-time metrics are deterministic: exact match, full knobs.
    ./target/release/fig_domains --check BENCH_resilience.json
    # Elastic-tenancy gate: exact match against the committed baseline
    # at full knobs (240 windows, 4 nodes: the resize storm completes
    # 100+ reserve/release cycles) plus the built-in claims, including
    # the coloc p99-isolation floor against idle.
    timeout 600 ./target/release/fig_serve --check BENCH_serve.json
fi
