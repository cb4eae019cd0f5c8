//! Figure conformance: every figure binary against its committed golden,
//! plus the end-to-end host-time baseline.
//!
//! [`TABLE`] lists the binaries that print simulated output: the paper's
//! figures, the ablations and the resilience, failure-domain and
//! tenancy sweeps. A unit test holds every other binary in
//! `src/bin/` to a named host-time list. Each row runs at the reduced
//! knobs in [`KNOBS`], with every inherited `HLWK_*` variable cleared,
//! and its stdout must equal `results/reduced/<bin>.txt` byte for byte.
//! The table runs three ways, each compared with the same golden:
//!
//! * 1 pool thread;
//! * 4 pool threads with `HLWK_BYPASS=off`;
//! * 4 pool threads with `HLWK_BYPASS=on-but-cold` (every bypass check
//!   runs, nothing promotes).
//!
//! A mismatch prints the row's first differing line and the command
//! that regenerates its golden, and the run fails. The rows are sibling
//! binaries in this binary's own directory; build them first with
//! `cargo build --release -p bench`. Run from the repo root.
//!
//! Host time goes to `HLWK_BENCH_OUT` (default `BENCH_e2e.json`): each
//! row's 1-thread wall time (`<bin>_ms`), the 1-thread and 4-thread
//! (bypass off) pass totals (`table_t1_s`, `table_t4_s`), `nproc`, and the `simcore::par` pool on a reduced fig6
//! grid, serial vs the full pool (`fig6_*`, `pool_threads`).
//!
//! `--check <path>` compares instead of writing: the 1-thread total is
//! gated at [`bench::TOLERANCE`] of the baseline (per-row times are
//! recorded, not gated), and the pool must beat serial by 1.2x when it
//! has more than one worker.
//!
//! `--full` instead runs the [`FULL`] rows once each, at the knobs
//! EXPERIMENTS.md documents for their committed `results/<file>.txt`,
//! on the default pool with every inherited `HLWK_*` variable cleared.
//! A mismatch prints the first differing line and the command that
//! regenerates the file. It writes no BENCH file and takes minutes
//! (fig9 alone takes the longest), so CI does not run it.

use cluster::experiment::run_seed;
use cluster::{Cluster, OsVariant};
use simcore::{par, Cycles};
use std::path::Path;
use std::process::Command;
use std::time::Instant;
use workloads::osu::{Collective, OsuConfig};

/// The figure binaries, each with a golden `results/reduced/<bin>.txt`.
const TABLE: [&str; 14] = [
    "fig5_fwq",
    "fig6_osu_latency",
    "fig7_osu_variation",
    "fig8_miniapps",
    "fig9_miniapps_insitu",
    "fig_ablation_pagesize",
    "fig_ablation_regfix",
    "fig_ablation_sched",
    "fig_noise_injection",
    "fig_pt2pt",
    "fig_resilience",
    "fig_fault_recovery",
    "fig_domains",
    "fig_serve",
];

/// The reduced knobs every row runs at. fig9 needs 8 nodes: at 4 it
/// prints no Modylas or FFVC rows.
const KNOBS: [(&str, &str); 4] = [
    ("HLWK_RUNS", "2"),
    ("HLWK_NODES", "8"),
    ("HLWK_FWQ_SECS", "2"),
    ("HLWK_OSU_ITERS", "2"),
];

/// `HLWK_*` variables and their values for one run.
type Knobs = &'static [(&'static str, &'static str)];

/// The three ways the table runs: extra knobs on top of [`KNOBS`].
const WAYS: [Knobs; 3] = [
    &[("HLWK_THREADS", "1")],
    &[("HLWK_THREADS", "4"), ("HLWK_BYPASS", "off")],
    &[("HLWK_THREADS", "4"), ("HLWK_BYPASS", "on-but-cold")],
];

const GOLDEN_DIR: &str = "results/reduced";

/// The full-knob rows: each binary, its committed `results/<file>.txt`,
/// and the knobs EXPERIMENTS.md documents for it. `fig_resilience` and
/// `fig_fault_recovery` have no full-knob file.
const FULL: [(&str, &str, Knobs); 10] = [
    ("fig5_fwq", "fig5", &[("HLWK_FWQ_SECS", "30")]),
    ("fig6_osu_latency", "fig6", &[]),
    ("fig7_osu_variation", "fig7", &[]),
    ("fig8_miniapps", "fig8", &[("HLWK_RUNS", "15")]),
    ("fig9_miniapps_insitu", "fig9", &[("HLWK_RUNS", "15")]),
    ("fig_ablation_pagesize", "ablation_pagesize", &[]),
    ("fig_ablation_regfix", "ablation_regfix", &[]),
    ("fig_ablation_sched", "ablation_sched", &[]),
    ("fig_noise_injection", "noise_injection", &[]),
    ("fig_pt2pt", "pt2pt", &[]),
];

/// Where a row's first line differs from its golden, if anywhere.
fn first_difference(want: &str, got: &str) -> Option<String> {
    let (mut w, mut g) = (want.lines(), got.lines());
    for line in 1.. {
        match (w.next(), g.next()) {
            (None, None) => break,
            (a, b) if a == b => continue,
            (a, b) => {
                return Some(format!(
                    "line {line}:\n  golden: {}\n  got:    {}",
                    a.unwrap_or("<end of file>"),
                    b.unwrap_or("<end of file>")
                ))
            }
        }
    }
    // Same lines, different bytes: a missing or extra final newline.
    (want != got).then(|| "the final newline differs".to_string())
}

/// The `HLWK_*` variables this process inherited; no row sees them.
fn inherited_knobs() -> impl Iterator<Item = String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HLWK_"))
}

/// Run one row at `knobs` alone; returns its stdout and wall seconds.
fn run_row(dir: &Path, bin: &str, knobs: &[(&str, &str)]) -> (String, f64) {
    let path = dir.join(bin);
    if !path.is_file() {
        eprintln!(
            "fig_table: {} is missing; build the figures with `cargo build --release -p bench`",
            path.display()
        );
        std::process::exit(2);
    }
    let mut cmd = Command::new(&path);
    for k in inherited_knobs() {
        cmd.env_remove(k);
    }
    cmd.envs(knobs.iter().copied());
    let start = Instant::now();
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    let secs = start.elapsed().as_secs_f64();
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        eprintln!("fig_table: {bin} exited with {}", out.status);
        std::process::exit(1);
    }
    let stdout = String::from_utf8(out.stdout).expect("figure output is UTF-8");
    (stdout, secs)
}

/// The shell command that regenerates `golden` from `bin` at `knobs`,
/// clearing the same inherited variables the runner clears.
fn regenerate_command(dir: &Path, bin: &str, knobs: &[(&str, &str)], golden: &str) -> String {
    let mut cmd = String::from("env");
    for k in inherited_knobs() {
        cmd.push_str(&format!(" -u {k}"));
    }
    for (k, v) in knobs {
        cmd.push_str(&format!(" {k}={v}"));
    }
    format!("{cmd} {} > {golden}", dir.join(bin).display())
}

/// `golden`'s contents, or exit naming it.
fn read_golden(golden: &str) -> String {
    std::fs::read_to_string(golden).unwrap_or_else(|e| {
        eprintln!("fig_table: cannot read golden {golden}: {e} (run from the repo root)");
        std::process::exit(2);
    })
}

/// Run the table all three ways; returns each row's 1-thread seconds and
/// each way's total, or exits non-zero after reporting every mismatch.
fn run_table(dir: &Path) -> (Vec<f64>, [f64; 3]) {
    let golden_path = |bin: &str| format!("{GOLDEN_DIR}/{bin}.txt");
    let goldens: Vec<String> = TABLE
        .iter()
        .map(|bin| read_golden(&golden_path(bin)))
        .collect();
    // Goldens come from the 1-thread way.
    let regen_knobs: Vec<(&str, &str)> = KNOBS.iter().chain(WAYS[0]).copied().collect();
    let mut row_secs = vec![0.0; TABLE.len()];
    let mut totals = [0.0; 3];
    let mut mismatches = 0;
    for (w, extra) in WAYS.iter().enumerate() {
        let way: Vec<String> = extra.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let way = way.join(" ");
        let knobs: Vec<(&str, &str)> = KNOBS.iter().chain(*extra).copied().collect();
        for (r, bin) in TABLE.iter().enumerate() {
            let (stdout, secs) = run_row(dir, bin, &knobs);
            totals[w] += secs;
            if w == 0 {
                row_secs[r] = secs;
            }
            match first_difference(&goldens[r], &stdout) {
                None => println!("{bin:>24}  {secs:7.2} s  ok  ({way})"),
                Some(diff) => {
                    mismatches += 1;
                    eprintln!("GOLDEN MISMATCH: {bin} ({way}) at {diff}");
                    eprintln!(
                        "  regenerate with: {}",
                        regenerate_command(dir, bin, &regen_knobs, &golden_path(bin))
                    );
                }
            }
        }
        println!("{:>24}  {:7.2} s  ({way})", "table", totals[w]);
    }
    if mismatches > 0 {
        eprintln!("fig_table: {mismatches} run(s) differ from their goldens");
        std::process::exit(1);
    }
    (row_secs, totals)
}

/// Run the [`FULL`] rows once each against their `results/<file>.txt`,
/// or exit non-zero after reporting every mismatch.
fn run_full(dir: &Path) {
    let mut mismatches = 0;
    let mut total = 0.0;
    for (bin, file, knobs) in FULL {
        let golden = format!("results/{file}.txt");
        let want = read_golden(&golden);
        let (stdout, secs) = run_row(dir, bin, knobs);
        total += secs;
        match first_difference(&want, &stdout) {
            None => println!("{bin:>24}  {secs:7.2} s  ok  ({golden})"),
            Some(diff) => {
                mismatches += 1;
                eprintln!("FULL-KNOB MISMATCH: {bin} ({golden}) at {diff}");
                eprintln!(
                    "  regenerate with: {}",
                    regenerate_command(dir, bin, knobs, &golden)
                );
            }
        }
    }
    println!("{:>24}  {total:7.2} s", "full");
    if mismatches > 0 {
        eprintln!("fig_table --full: {mismatches} row(s) differ from results/");
        std::process::exit(1);
    }
    println!("all {} full-knob rows match results/", FULL.len());
}

// ---------------------------------------------------------------------
// Pool benchmark: a reduced fig6 sweep, serial vs full pool.
// ---------------------------------------------------------------------

/// One reduced fig6 cell: a full size sweep for (collective, OS, run)
/// on a small cluster. Mirrors `fig6_osu_latency` with cheaper knobs.
fn fig6_cell(coll: Collective, os: OsVariant, run: usize) -> f64 {
    let osu_cfg = OsuConfig {
        warmup: 2,
        iters: 3,
        iter_gap: Cycles::from_us(300),
    };
    let cfg = bench::paper_config(os)
        .with_nodes(8)
        .with_seed(run_seed(0xF166, run));
    let mut cluster = Cluster::build(cfg);
    let mut at = Cycles::from_ms(1);
    let mut acc = 0.0;
    for bytes in coll.message_sizes() {
        let res = cluster
            .run_osu(coll, bytes, &osu_cfg, at)
            .expect("fault-free");
        at = res.end + Cycles::from_secs(2);
        acc += res.latencies_us.iter().sum::<f64>() / res.latencies_us.len() as f64;
    }
    acc
}

/// Wall-clock milliseconds for the reduced fig6 grid on `threads`
/// workers. Returns the checksum too so the work cannot be elided and
/// the 1-thread/N-thread results can be compared for determinism.
fn fig6_wall_ms(threads: usize) -> (f64, Vec<f64>) {
    let colls = Collective::all();
    let oses = [OsVariant::LinuxCgroup, OsVariant::McKernel];
    // Enough seeded runs per (collective, OS) that the serial grid takes
    // a few hundred milliseconds, so thread start-up cannot sink a trial:
    // on a 2-vCPU host a 2-run grid read under the fresh floor in 3 of 22
    // best-of-3 trials, this one at worst 1.32x. Host speed phases are
    // not averaged out; the ratio still spreads about 1.3-2.3x.
    let runs = 48usize;
    let cells: Vec<(Collective, OsVariant, usize)> = colls
        .iter()
        .flat_map(|&coll| {
            oses.iter()
                .flat_map(move |&os| (0..runs).map(move |run| (coll, os, run)))
        })
        .collect();
    let start = Instant::now();
    let vals = par::parallel_map_threads(threads, cells.len(), |ci| {
        let (coll, os, run) = cells[ci];
        fig6_cell(coll, os, run)
    });
    (start.elapsed().as_secs_f64() * 1e3, vals)
}

/// The pool metrics: best-of-3 serial and full-pool fig6 wall times,
/// their ratio when the pool has more than one worker, and its size.
fn pool_metrics() -> Vec<(String, f64)> {
    let threads = par::pool_size();
    // Interleave the serial/parallel trials and keep the best of each:
    // back-to-back one-shot runs let ambient host load (or a thermal
    // ramp) land entirely on one side and fake a speedup — or a
    // regression — even when both sides do identical work.
    let (mut serial_ms, mut par_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (s_ms, serial_vals) = fig6_wall_ms(1);
        let (p_ms, par_vals) = fig6_wall_ms(threads);
        assert_eq!(
            serial_vals, par_vals,
            "fig6 per-cell values must be identical at any thread count"
        );
        serial_ms = serial_ms.min(s_ms);
        par_ms = par_ms.min(p_ms);
    }
    let mut metrics = vec![
        ("fig6_serial_ms".to_string(), serial_ms),
        ("fig6_parallel_ms".to_string(), par_ms),
    ];
    // On a single-worker host the serial/parallel ratio is pure
    // scheduling noise (a committed 0.97x reads as a regression when it
    // means nothing). Omit the ratio rather than commit a lie; the raw
    // wall times stay for reference and `pool_threads` records why.
    if threads > 1 {
        metrics.push(("fig6_speedup_x".to_string(), serial_ms / par_ms));
    }
    metrics.push(("pool_threads".to_string(), threads as f64));
    metrics
}

/// The pool must deliver real speedup over serial execution — checked
/// only when this host actually has multiple workers, since on one core
/// the ratio is pure scheduling noise. Returns true if the floor fails.
fn check_pool_floor(base: &[(String, f64)], metrics: &[(String, f64)]) -> bool {
    if par::pool_size() <= 1 {
        println!("speedup floor skipped: pool_threads=1");
        return false;
    }
    let k = "fig6_speedup_x";
    let v = metrics.iter().find(|(mk, _)| mk == k).expect("pool > 1").1;
    let floor = 1.2;
    // The floor binds the *committed* baseline exactly — a regressed
    // ratio cannot be baselined away. The fresh smoke run gets a 10%
    // noise grace for a one-shot CI run on a shared host.
    let fresh_floor = floor * 0.9;
    let base_v = base.iter().find(|(bk, _)| bk == k).map(|(_, bv)| *bv);
    // The committed ratio is meaningless if the baseline was recorded
    // on a single-worker host (it is ~1.0 by construction there,
    // whatever this host looks like).
    let base_pool = base
        .iter()
        .find(|(bk, _)| bk == "pool_threads")
        .map_or(1.0, |(_, bv)| *bv);
    if base_pool > 1.0 && matches!(base_v, Some(bv) if bv < floor) {
        eprintln!(
            "PERF REGRESSION: committed {k} = {:.2}x (floor {floor:.1}x)",
            base_v.unwrap()
        );
        true
    } else if v < fresh_floor {
        eprintln!("PERF REGRESSION: {k} = {v:.2}x (floor {fresh_floor:.2}x)");
        true
    } else {
        println!("{k:>24}: ok ({v:.2}x, floor {fresh_floor:.2}x)");
        false
    }
}

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("binary has a directory");
    if std::env::args().any(|a| a == "--full") {
        run_full(dir);
        return;
    }
    let (row_secs, totals) = run_table(dir);
    println!("all {} rows match their goldens, three ways", TABLE.len());

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut metrics: Vec<(String, f64)> = TABLE
        .iter()
        .zip(&row_secs)
        .map(|(bin, &s)| (format!("{bin}_ms"), s * 1e3))
        .collect();
    metrics.push(("table_t1_s".into(), totals[0]));
    metrics.push(("table_t4_s".into(), totals[1]));
    metrics.push(("nproc".into(), nproc as f64));
    metrics.extend(pool_metrics());
    for (k, v) in &metrics[TABLE.len()..] {
        println!("{k:>24}: {v:10.2}");
    }

    let Some(path) = bench::check_arg() else {
        let out = bench::bench_out("BENCH_e2e.json");
        bench::write(&out, "fig_table", &metrics);
        return;
    };
    let base = bench::read(&path);
    let mut failed = bench::check(&base, &[("table_t1_s", totals[0])]);
    failed |= check_pool_floor(&base, &metrics);
    if failed {
        std::process::exit(1);
    }
    println!("perf check passed (tolerance {}x)", bench::TOLERANCE);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The binaries that print host wall-clock time, which no golden can
    /// hold.
    const HOST_TIME: [&str; 5] = [
        "fig_offload_hotpath",
        "fig_mem",
        "fig_scale_app",
        "prof_collectives",
        "fig_table",
    ];

    #[test]
    fn every_binary_is_a_table_row_or_host_time() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let bins: Vec<String> = std::fs::read_dir(root.join("src/bin"))
            .expect("list src/bin")
            .map(|e| e.expect("src/bin entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().expect("file name").to_string_lossy().into_owned())
            .collect();
        let golden = |bin: &str| root.join("../..").join(GOLDEN_DIR).join(format!("{bin}.txt"));
        let mut stray: Vec<&str> = bins
            .iter()
            .map(String::as_str)
            .filter(|bin| {
                let row = TABLE.contains(bin) && golden(bin).is_file();
                row == HOST_TIME.contains(bin)
            })
            .collect();
        stray.sort_unstable();
        assert!(
            stray.is_empty(),
            "each binary must be a TABLE row with a golden or on the host-time list, not both: {stray:?}"
        );
        for bin in TABLE.iter().chain(&HOST_TIME) {
            assert!(bins.iter().any(|b| b == bin), "{bin} has no source in src/bin");
        }
    }
}
