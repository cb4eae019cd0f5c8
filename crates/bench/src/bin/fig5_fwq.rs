//! Figure 5: FWQ noise measurements for Linux and McKernel with and
//! without a competing Hadoop workload.
//!
//! Reproduces the five panels: (a) Linux+cgroup, (b) McKernel,
//! (c) Linux+cgroup with Hadoop, (d) Linux+cgroup+isolcpus with Hadoop,
//! (e) McKernel with Hadoop. For each, the worst 480-sample window of a
//! measurement interval is reported (the paper's selection rule).
//!
//! The five panels are independent single-node clusters and run as one
//! pool submission (whole-figure parallelism); each panel's derived
//! values are computed in its task and printed in panel order.

use bench::{fwq_secs, header};
use cluster::{Cluster, OsVariant};
use simcore::{par, Cycles, LogHistogram, Summary};
use workloads::fwq;

struct Panel {
    label: &'static str,
    os: OsVariant,
    insitu: bool,
}

/// Everything a panel's output rows need, computed in its pool task.
struct PanelResult {
    summary: Summary,
    spikes: usize,
    tail_pct: f64,
}

fn main() {
    let panels = [
        Panel {
            label: "(a) Linux+cgroup",
            os: OsVariant::LinuxCgroup,
            insitu: false,
        },
        Panel {
            label: "(b) McKernel",
            os: OsVariant::McKernel,
            insitu: false,
        },
        Panel {
            label: "(c) Linux+cgroup with Hadoop",
            os: OsVariant::LinuxCgroup,
            insitu: true,
        },
        Panel {
            label: "(d) Linux+cgroup+isolcpus with Hadoop",
            os: OsVariant::LinuxCgroupIsolcpus,
            insitu: true,
        },
        Panel {
            label: "(e) McKernel with Hadoop",
            os: OsVariant::McKernel,
            insitu: true,
        },
    ];
    let secs = fwq_secs();
    let quantum = fwq::DEFAULT_QUANTUM;
    header(&format!(
        "Figure 5 — FWQ noise (quantum {} cycles, {secs}s interval, worst {} samples)",
        quantum.raw(),
        fwq::WINDOW
    ));
    println!(
        "{:<40} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "configuration", "min(cy)", "mean(cy)", "max(cy)", "slowdown", "spikes", "tail>2x"
    );
    let results: Vec<PanelResult> = par::parallel_map(panels.len(), |pi| {
        let p = &panels[pi];
        let mut cfg = bench::paper_config(p.os).with_nodes(1).with_seed(0xF165);
        cfg.insitu = p.insitu;
        cfg.horizon_secs = secs + 2;
        let mut cluster = Cluster::build(cfg);
        let samples = cluster.fwq(quantum, Cycles::from_secs(secs), Cycles::from_us(1));
        let worst = fwq::worst_window(&samples, fwq::WINDOW);
        let as_f: Vec<f64> = worst.iter().map(|&x| x as f64).collect();
        let summary = Summary::from_samples(&as_f);
        let spikes = worst
            .iter()
            .filter(|&&x| x > 2 * quantum.raw())
            .count();
        // Distribution over the FULL interval (not just the worst
        // window): what fraction of all samples exceeded 2x the quantum.
        let mut hist = LogHistogram::new();
        hist.record_all(&samples);
        PanelResult {
            summary,
            spikes,
            tail_pct: hist.tail_fraction_above(2 * quantum.raw()) * 100.0,
        }
    });
    for (p, r) in panels.iter().zip(&results) {
        println!(
            "{:<40} {:>10.0} {:>10.0} {:>10.0} {:>9.1}x {:>9} {:>8.4}%",
            p.label,
            r.summary.min,
            r.summary.mean,
            r.summary.max,
            r.summary.max / quantum.raw() as f64,
            r.spikes,
            r.tail_pct
        );
    }
    println!(
        "\nPaper shape: (a) low jitter, (b) virtually constant, (c) spikes up to ~16x,\n(d) improved but still significant variation, (e) no disturbance at all."
    );
}
