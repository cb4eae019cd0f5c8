//! Figure 8: mini-application execution time vs node count, Linux+cgroup
//! vs McKernel, plain runs (no in-situ workload).
//!
//! The whole (app × node count × OS variant × repetition) grid is one
//! pool submission (whole-figure parallelism).

use bench::{header, node_sweep, runs};
use cluster::experiment::run_seed;
use cluster::{Cluster, OsVariant};
use simcore::{par, Cycles, Summary};
use workloads::miniapps::MiniApp;

fn min_nodes(app: &MiniApp) -> u32 {
    match app.name {
        "miniFE" => 2,
        "HPC-CG" => 4,
        _ => 8,
    }
}

fn main() {
    let n_runs = runs();
    header(&format!(
        "Figure 8 — mini-app execution time (s), avg over {n_runs} runs (variation in %)"
    ));
    let apps = MiniApp::paper_suite();
    let oses = [OsVariant::LinuxCgroup, OsVariant::McKernel];

    // Cells in exact table-consumption order: app-major, then node
    // count, then OS, then run.
    let mut cells: Vec<(&MiniApp, u32, OsVariant, usize)> = Vec::new();
    for app in &apps {
        for nodes in node_sweep(min_nodes(app)) {
            for os in oses {
                for run in 0..n_runs {
                    cells.push((app, nodes, os, run));
                }
            }
        }
    }
    let values: Vec<f64> = par::parallel_map(cells.len(), |ci| {
        let (app, nodes, os, run) = cells[ci];
        let cfg = bench::paper_config(os)
            .with_nodes(nodes)
            .with_seed(run_seed(0xF168, run));
        let mut cluster = Cluster::build(cfg);
        cluster
            .run_miniapp(app, Cycles::from_ms(1))
            .expect("fault-free")
            .as_secs_f64()
    });

    let mut cursor = 0usize;
    for app in &apps {
        println!(
            "\n--- {} ({:?} scaling) ---",
            app.name, app.scaling
        );
        println!(
            "{:>6} {:>22} {:>22} {:>10}",
            "nodes", "Linux+cgroup", "McKernel", "mck gain"
        );
        for nodes in node_sweep(min_nodes(app)) {
            let lin = Summary::from_samples(&values[cursor..cursor + n_runs]);
            let mck = Summary::from_samples(&values[cursor + n_runs..cursor + 2 * n_runs]);
            cursor += 2 * n_runs;
            let gain = (lin.mean / mck.mean - 1.0) * 100.0;
            println!(
                "{:>6} {:>14.2}s ({:>4.1}%) {:>14.2}s ({:>4.1}%) {:>9.1}%",
                nodes,
                lin.mean,
                lin.max_variation_pct(),
                mck.mean,
                mck.max_variation_pct(),
                gain
            );
        }
    }
    println!("\nPaper shape: McKernel outperforms Linux by ~1-8% across the suite with");
    println!("lower variation (most visible for HPC-CG); the gap comes from contiguous");
    println!("2MiB-backed memory (fewer TLB/LLC misses) plus the absence of OS noise.");
}
