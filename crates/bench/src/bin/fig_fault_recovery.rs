//! Fault-recovery sweep: offload latency and goodput as the IKC fault
//! rate rises. Demonstrates graceful degradation — retries and NACK
//! retransmission mask faults at a latency cost, goodput falls smoothly
//! (no cliff), and only extreme rates exhaust the retry budget into
//! `-EIO` failures.
//!
//! Columns: injected drop rate (corruption runs at half the drop rate),
//! mean and p99 latency of *successful* offloads, retransmissions per
//! offload, success fraction, and goodput (successful offloads per
//! simulated millisecond).

use bench::header;
use cluster::node::NodeRuntime;
use cluster::OsVariant;
use hlwk_core::abi::Sysno;
use simcore::fault::FaultConfig;
use simcore::{Cycles, StreamRng};

const OFFLOADS: u64 = 300;

fn cycles_to_us(c: Cycles) -> f64 {
    c.raw() as f64 / 2_800.0
}

struct Cell {
    rate: f64,
    mean_us: f64,
    p99_us: f64,
    retries_per_op: f64,
    success_frac: f64,
    goodput_per_ms: f64,
}

fn run_cell(rate: f64, seed: u64) -> Cell {
    let faults = if rate > 0.0 {
        FaultConfig::message_loss(rate).with_corruption(rate / 2.0)
    } else {
        FaultConfig::off()
    };
    let mut cfg = bench::paper_config(OsVariant::McKernel)
        .with_nodes(1)
        .with_seed(seed)
        .with_faults(faults);
    cfg.horizon_secs = 5;
    let mut node = NodeRuntime::build(&cfg, 0, &StreamRng::root(cfg.seed));

    let start = Cycles::from_ms(1);
    let mut at = start;
    let mut latencies = Vec::new();
    let mut successes = 0u64;
    for i in 0..OFFLOADS {
        let len = 64 + (i % 4) * 64;
        let (ret, done) =
            node.offload_syscall(Sysno::GetRandom, [node.arena_va.raw(), len, 0, 0, 0, 0], at);
        if ret > 0 {
            successes += 1;
            latencies.push(done - at);
        }
        at = done + Cycles::from_us(10);
    }
    latencies.sort();
    let mean_us = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().map(|&c| cycles_to_us(c)).sum::<f64>() / latencies.len() as f64
    };
    let p99_us = if latencies.is_empty() {
        0.0
    } else {
        let idx = ((latencies.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
        cycles_to_us(latencies[idx])
    };
    let elapsed_ms = cycles_to_us(at - start) / 1_000.0;
    Cell {
        rate,
        mean_us,
        p99_us,
        retries_per_op: node.offload_retries as f64 / OFFLOADS as f64,
        success_frac: successes as f64 / OFFLOADS as f64,
        goodput_per_ms: successes as f64 / elapsed_ms,
    }
}

fn main() {
    header(&format!(
        "Fault recovery — {OFFLOADS} offloaded getrandom() calls per fault rate"
    ));
    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>10} {:>14}",
        "drop rate", "mean(us)", "p99(us)", "retries/op", "success", "goodput(/ms)"
    );
    // All fault rates are independent single-node sims: one pool
    // submission for the sweep.
    let rates = [0.0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30];
    let cells: Vec<Cell> =
        simcore::par::parallel_map(rates.len(), |i| run_cell(rates[i], 0xFA));
    let mut prev_success = f64::INFINITY;
    for cell in cells {
        let rate = cell.rate;
        println!(
            "{:>9.2} {:>12.2} {:>12.2} {:>12.3} {:>9.1}% {:>14.2}",
            cell.rate,
            cell.mean_us,
            cell.p99_us,
            cell.retries_per_op,
            cell.success_frac * 100.0,
            cell.goodput_per_ms,
        );
        // Graceful degradation, enforced: success never *increases* by
        // more than noise as the rate rises, and there is no cliff to
        // zero below 10% loss.
        assert!(
            cell.success_frac <= prev_success + 0.02,
            "success fraction must degrade monotonically (±noise)"
        );
        if rate < 0.10 {
            assert!(
                cell.success_frac > 0.99,
                "retries must fully mask sub-10% loss, got {:.3} at rate {rate}",
                cell.success_frac
            );
        }
        assert!(
            cell.success_frac > 0.0,
            "goodput must never collapse to zero"
        );
        prev_success = cell.success_frac;
    }
}
