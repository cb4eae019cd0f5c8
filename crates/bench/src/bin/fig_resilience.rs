//! Resilience sweep: time-to-completion under link faults and a
//! mid-run node crash, per recovery policy and OS variant.
//!
//! Not a figure from the paper — the paper's clusters are assumed
//! reliable — but the natural follow-up question for a production
//! deployment of the stack: what does a lost node cost the job under
//! each recovery strategy, and how much does the link-level retransmit
//! layer add at realistic loss rates?
//!
//! Grid: OS variant × recovery policy × per-packet loss rate. The
//! loss-free column doubles as a regression gate: the resilient runner
//! must reproduce the plain `run_miniapp` time bit-for-bit (asserted
//! per cell), so wrapping a job in recovery machinery costs nothing
//! until a fault actually fires. Every faulty cell arms a fail-stop
//! crash of node 1 halfway through the job.

use bench::{header, max_nodes, seed_base};
use cluster::experiment::run_seed;
use cluster::{run_resilient, Cluster, OsVariant, RecoveryCosts, RecoveryPolicy, RecoveryReport};
use simcore::fault::{DomainEvent, DomainEventKind, DomainScope, LinkFaultConfig};
use simcore::{par, Cycles};
use workloads::miniapps::MiniApp;

/// Per-packet loss rates swept (0 = the fault-free equivalence gate).
const LOSS_RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];
/// HPC-CG iterations per job.
const ITERS: u32 = 12;

struct Row {
    /// `Ok`: the job completed (possibly shrunk). `Err`: aborted, with
    /// (failed rank, suspicion-to-confirmation detection latency).
    outcome: Result<RecoveryReport, (usize, Cycles)>,
    /// Fabric messages carried, retransmits included.
    messages: u64,
    /// Packets re-sent by the reliable layer.
    retransmits: u64,
}

fn app() -> MiniApp {
    MiniApp {
        iterations: ITERS,
        ..MiniApp::hpccg()
    }
}

fn run_cell(os: OsVariant, policy: RecoveryPolicy, rate: f64, seed: u64) -> Row {
    let nodes = max_nodes().min(16);
    let start = Cycles::from_ms(1);
    let app = app();
    let mut cfg = bench::paper_config(os).with_nodes(nodes).with_seed(seed);
    if rate > 0.0 {
        // Lossy fabric plus a fail-stop crash of node 1 halfway through
        // the job (per-iteration estimate: the OpenMP quantum dominates).
        let est = app.thread_quantum(nodes as usize) + Cycles::from_ms(1);
        let crash_at = start + est.scale(f64::from(app.iterations) / 2.0);
        cfg = cfg
            .with_link_faults(LinkFaultConfig::loss(rate))
            .with_domain_event(DomainEvent {
                at: crash_at,
                scope: DomainScope::Node(1),
                kind: DomainEventKind::FailStop,
            });
    }
    let mut c = Cluster::build(cfg);
    let res = run_resilient(&mut c, &app, policy, &RecoveryCosts::default(), start);
    let (messages, _bytes) = c.fabric.stats();
    let rel = c.fabric.reliable_stats();
    let outcome = match res {
        Ok(rep) => {
            if rate == 0.0 && rep.checkpoints == 0 {
                // The loss-free column is the regression gate: recovery
                // machinery must be invisible until a fault fires.
                // (Checkpointing cells are exempt — periodic snapshots
                // cost time by design, faults or not.)
                let plain =
                    Cluster::build(bench::paper_config(os).with_nodes(nodes).with_seed(seed))
                        .run_miniapp(&app, start)
                        .expect("fault-free");
                assert_eq!(
                    rep.time, plain,
                    "fault-free resilient run must match run_miniapp exactly"
                );
            }
            Ok(rep)
        }
        Err(f) => {
            let died = c.fabric.node_dead_at(1).unwrap_or(f.detected_at);
            Err((f.rank, f.detected_at - died))
        }
    };
    Row {
        outcome,
        messages,
        retransmits: rel.retransmits,
    }
}

fn main() {
    let nodes = max_nodes().min(16);
    header(&format!(
        "Resilience — HPC-CG x{ITERS} on {nodes} nodes; node 1 fail-stops mid-run in every lossy cell"
    ));
    let oses = [OsVariant::LinuxCgroup, OsVariant::McKernel];
    let policies = [
        RecoveryPolicy::Abort,
        RecoveryPolicy::ShrinkAndRedo,
        RecoveryPolicy::CheckpointRestart { interval: 3 },
    ];
    let mut cells: Vec<(OsVariant, RecoveryPolicy, f64)> = Vec::new();
    for os in oses {
        for policy in policies {
            for rate in LOSS_RATES {
                cells.push((os, policy, rate));
            }
        }
    }
    let rows: Vec<Row> = par::parallel_map(cells.len(), |ci| {
        let (os, policy, rate) = cells[ci];
        run_cell(os, policy, rate, run_seed(seed_base(), ci))
    });

    for (oi, os) in oses.iter().enumerate() {
        println!("\n--- {} ---", os.label());
        println!(
            "{:>12} {:>8} {:>12} {:>12} {:>8} {:>10} {:>6} {:>5}",
            "policy", "loss", "time", "detect(us)", "retrans", "overhead", "redone", "alive"
        );
        for (pi, policy) in policies.iter().enumerate() {
            for (ri, rate) in LOSS_RATES.iter().enumerate() {
                let row = &rows[(oi * policies.len() + pi) * LOSS_RATES.len() + ri];
                let overhead = 100.0 * row.retransmits as f64 / row.messages.max(1) as f64;
                match &row.outcome {
                    Ok(rep) => println!(
                        "{:>12} {:>7.1}% {:>11.2}s {:>12} {:>8} {:>9.2}% {:>6} {:>5}",
                        policy.label(),
                        rate * 100.0,
                        rep.time.as_secs_f64(),
                        rep.detection_latency
                            .map_or("-".to_string(), |d| format!("{:.1}", d.as_us_f64())),
                        row.retransmits,
                        overhead,
                        rep.redone_iters,
                        rep.survivors
                    ),
                    Err((rank, detect)) => println!(
                        "{:>12} {:>7.1}% {:>11} {:>12.1} {:>8} {:>9.2}% {:>6} {:>5}",
                        policy.label(),
                        rate * 100.0,
                        format!("ABORT r{rank}"),
                        detect.as_us_f64(),
                        row.retransmits,
                        overhead,
                        "-",
                        "-"
                    ),
                }
            }
        }
    }
    println!("\nExpected shape: the loss-free abort/shrink-redo cells match the plain runs");
    println!("exactly (asserted per cell; checkpointing pays for its snapshots either");
    println!("way). Under a crash, abort loses the whole job,");
    println!("shrink-redo pays one redone iteration plus a rebuild, checkpoint-restart");
    println!("pays the rollback window; retransmit overhead tracks the loss rate and");
    println!("stays invisible at the application level until the budget drains.");
}
