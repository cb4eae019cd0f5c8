//! A3 — the memory-management dividend in isolation.
//!
//! Runs the mini-app suite on McKernel twice: once with its native 2 MiB
//! contiguous backing, once forced to Linux-style scattered 4 KiB pages.
//! The difference is the TLB/LLC part of the paper's 1-8% win (Fig. 8),
//! separated from the noise part.

use bench::header;
use cluster::{Cluster, OsVariant};
use hwmodel::interference::PageBacking;
use simcore::{par, Cycles};
use workloads::miniapps::MiniApp;

fn run(app: &MiniApp, backing: PageBacking, nodes: u32) -> f64 {
    let cfg = bench::paper_config(OsVariant::McKernel)
        .with_nodes(nodes)
        .with_seed(0xAB1A);
    let mut cluster = Cluster::build(cfg);
    for n in &mut cluster.host.nodes {
        n.backing = backing;
    }
    cluster.run_miniapp(app, Cycles::from_ms(1)).expect("fault-free").as_secs_f64()
}

fn main() {
    let nodes = 8;
    header(&format!(
        "Ablation A3 — 2MiB contiguous vs 4KiB scattered backing (McKernel, {nodes} nodes)"
    ));
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>8}",
        "app", "mem-int", "2MiB (s)", "4KiB (s)", "gain"
    );
    // One pool submission for the whole (app × backing) grid.
    let apps = MiniApp::paper_suite();
    let cells: Vec<(&MiniApp, PageBacking)> = apps
        .iter()
        .flat_map(|app| {
            [PageBacking::Large2mContiguous, PageBacking::Small4k]
                .into_iter()
                .map(move |b| (app, b))
        })
        .collect();
    let times: Vec<f64> =
        par::parallel_map(cells.len(), |ci| run(cells[ci].0, cells[ci].1, nodes));
    for (i, app) in apps.iter().enumerate() {
        let large = times[2 * i];
        let small = times[2 * i + 1];
        println!(
            "{:<10} {:>10.2} {:>12.2} {:>12.2} {:>7.1}%",
            app.name,
            app.mem_intensity,
            large,
            small,
            (small / large - 1.0) * 100.0
        );
    }
    println!("\nExpected: gain grows with memory intensity (HPC-CG highest, Modylas");
    println!("lowest) and sits in the low single digits — the TLB/LLC share of the");
    println!("paper's 1-8% McKernel advantage.");
}
