//! Figure 7: maximum performance variation of the OSU collectives when a
//! Hadoop workload is co-located, for the three isolation configurations.
//!
//! Y value per (operation, size): `(max - min) / mean * 100` over the
//! repetitions — "the maximum variation in percentage compared to the
//! average value".
//!
//! All (collective × OS variant × repetition) cells run as one pool
//! submission (whole-figure parallelism).

use bench::{header, max_nodes, osu_iters, runs, size_label};
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
        "Figure 7 — max performance variation (%) under co-located Hadoop, {nodes} nodes, {n_runs} runs"
    ));
    let variants = OsVariant::all();
    let colls = Collective::all();

    let cells: Vec<(Collective, OsVariant, usize)> = colls
        .iter()
        .flat_map(|&coll| {
            variants
                .iter()
                .flat_map(move |&os| (0..n_runs).map(move |run| (coll, os, run)))
        })
        .collect();
    let per_cell: Vec<Vec<f64>> = par::parallel_map(cells.len(), |ci| {
        let (coll, os, run) = cells[ci];
        let sizes = coll.message_sizes();
        let cfg = bench::paper_config(os)
            .with_nodes(nodes)
            .with_insitu()
            .with_seed(run_seed(0xF167, run));
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

    let mut cursor = 0usize;
    for coll in colls {
        println!("\n--- {} ---", coll.name());
        println!(
            "{:>8} {:>22} {:>22} {:>12}",
            "size",
            "Linux+cgroup",
            "Linux+cgroup+isolcpus",
            "McKernel"
        );
        let sizes = coll.message_sizes();
        let mut per_variant: Vec<Vec<f64>> = Vec::new();
        for _os in variants {
            let per_run = &per_cell[cursor..cursor + n_runs];
            cursor += n_runs;
            // Variation across runs per size.
            let variation: Vec<f64> = (0..sizes.len())
                .map(|i| {
                    let vals: Vec<f64> = per_run.iter().map(|r| r[i]).collect();
                    Summary::from_samples(&vals).max_variation_pct()
                })
                .collect();
            per_variant.push(variation);
        }
        for (i, &bytes) in sizes.iter().enumerate() {
            println!(
                "{:>8} {:>21.1}% {:>21.1}% {:>11.1}%",
                size_label(bytes),
                per_variant[0][i],
                per_variant[1][i],
                per_variant[2][i]
            );
        }
    }
    println!("\nPaper shape: Linux+cgroup up to ~29%; McKernel ~2-6% on average; for");
    println!("large Reduce/Allreduce messages McKernel approaches or exceeds isolcpus");
    println!("(RDMA registration offloads through write()).");
}
