//! Figure 6: OSU collective latency vs message size, Linux vs McKernel,
//! 64 nodes, 15 repetitions; reports average latency and run-to-run
//! variation (the paper's error bars).
//!
//! The whole figure — every (collective × OS variant × repetition) cell
//! — is one submission to the bounded task pool, so all host
//! cores stay busy for the figure's full duration instead of joining at
//! each sweep boundary. Each cell runs one full size sweep (the sizes
//! within a run share a cluster and advance simulated time, so they stay
//! serial inside the cell).

use bench::{fmt_summary, header, max_nodes, osu_iters, runs, size_label};
use cluster::experiment::run_seed;
use cluster::{Cluster, OsVariant};
use simcore::{par, Cycles, Summary};
use workloads::osu::{Collective, OsuConfig};

fn main() {
    let nodes = max_nodes();
    let n_runs = runs();
    let osu_cfg = OsuConfig {
        warmup: 5,
        iters: osu_iters(),
        iter_gap: simcore::Cycles::from_us(300),
    };
    header(&format!(
        "Figure 6 — OSU collective latency, {nodes} nodes, {n_runs} runs, avg ± variation (us)"
    ));

    // Flatten the figure's full grid into one pool submission.
    let colls = Collective::all();
    let oses = [OsVariant::LinuxCgroup, OsVariant::McKernel];
    let cells: Vec<(Collective, OsVariant, usize)> = colls
        .iter()
        .flat_map(|&coll| {
            oses.iter()
                .flat_map(move |&os| (0..n_runs).map(move |run| (coll, os, run)))
        })
        .collect();
    let per_cell: Vec<Vec<f64>> = par::parallel_map(cells.len(), |ci| {
        let (coll, os, run) = cells[ci];
        let sizes = coll.message_sizes();
        let cfg = bench::paper_config(os)
            .with_nodes(nodes)
            .with_seed(run_seed(0xF166, run));
        let mut cluster = Cluster::build(cfg);
        let mut at = Cycles::from_ms(1);
        sizes
            .iter()
            .map(|&bytes| {
                let res = cluster.run_osu(coll, bytes, &osu_cfg, at).expect("fault-free");
                // Real OSU sweeps take minutes: cells are separated by
                // startup/teardown, sampling different phases of the
                // co-located job.
                at = res.end + Cycles::from_secs(2);
                res.latencies_us.iter().sum::<f64>()
                    / res.latencies_us.len() as f64
            })
            .collect()
    });

    // Cells are grouped (collective-major, then OS, then run) in the
    // exact order the table consumes them.
    let mut cursor = 0usize;
    for coll in colls {
        println!("\n--- {} ---", coll.name());
        println!(
            "{:>8} {:>38} {:>38}",
            "size", "Linux", "McKernel"
        );
        let sizes = coll.message_sizes();
        let linux = &per_cell[cursor..cursor + n_runs];
        let mck = &per_cell[cursor + n_runs..cursor + 2 * n_runs];
        cursor += 2 * n_runs;
        for (i, &bytes) in sizes.iter().enumerate() {
            let l: Vec<f64> = linux.iter().map(|r| r[i]).collect();
            let m: Vec<f64> = mck.iter().map(|r| r[i]).collect();
            let ls = Summary::from_samples(&l);
            let ms = Summary::from_samples(&m);
            println!(
                "{:>8} {:>38} {:>38}",
                size_label(bytes),
                fmt_summary(&ls, "us"),
                fmt_summary(&ms, "us")
            );
        }
    }
    println!("\nPaper shape: similar averages on both OSes (McKernel slightly ahead for");
    println!("scatter/gather, Linux slightly ahead for small reduce), with visibly lower");
    println!("variation on McKernel across all operations.");
}
