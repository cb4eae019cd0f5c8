//! Figure 9: mini-application execution time under a co-located Hadoop
//! workload, for the three isolation configurations.
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
        "miniFE" => 4,
        "HPC-CG" => 4,
        _ => 8,
    }
}

fn main() {
    let n_runs = runs();
    header(&format!(
        "Figure 9 — mini-app execution time (s) with competing Hadoop, avg over {n_runs} runs (variation in %)"
    ));
    let apps = MiniApp::paper_suite();

    let mut cells: Vec<(&MiniApp, u32, OsVariant, usize)> = Vec::new();
    for app in &apps {
        for nodes in node_sweep(min_nodes(app)) {
            for os in OsVariant::all() {
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
            .with_insitu()
            .with_seed(run_seed(0xF169, run));
        let mut cluster = Cluster::build(cfg);
        cluster
            .run_miniapp(app, Cycles::from_ms(1))
            .expect("fault-free")
            .as_secs_f64()
    });

    let mut worst = [0.0f64; 3];
    let mut worst_ratio = [0.0f64; 3];
    let mut cursor = 0usize;
    for app in &apps {
        println!("\n--- {} ({:?} scaling) ---", app.name, app.scaling);
        println!(
            "{:>6} {:>22} {:>24} {:>20}",
            "nodes", "Linux+cgroup", "Linux+cgroup+isolcpus", "McKernel"
        );
        for nodes in node_sweep(min_nodes(app)) {
            let mut cells_stats = Vec::new();
            for (vi, _os) in OsVariant::all().into_iter().enumerate() {
                let stats = Summary::from_samples(&values[cursor..cursor + n_runs]);
                cursor += n_runs;
                worst[vi] = worst[vi].max(stats.max_variation_pct());
                worst_ratio[vi] = worst_ratio[vi].max(stats.worst_slowdown());
                cells_stats.push(stats);
            }
            println!(
                "{:>6} {:>14.2}s ({:>4.1}%) {:>16.2}s ({:>4.1}%) {:>12.2}s ({:>4.1}%)",
                nodes,
                cells_stats[0].mean,
                cells_stats[0].max_variation_pct(),
                cells_stats[1].mean,
                cells_stats[1].max_variation_pct(),
                cells_stats[2].mean,
                cells_stats[2].max_variation_pct(),
            );
        }
    }
    println!("\nWorst-case variation across all workloads:");
    for (vi, os) in OsVariant::all().into_iter().enumerate() {
        println!(
            "  {:<24} {:>7.1}%   (slowest/fastest run: {:.1}x)",
            os.label(),
            worst[vi],
            worst_ratio[vi]
        );
    }
    println!("\nPaper shape: worst case ~3.1x (310%) for Linux+cgroup, ~16% for");
    println!("Linux+cgroup+isolcpus, ~3% for McKernel.");
}
