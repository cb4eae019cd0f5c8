//! Correlated failure domains: asynchronous hierarchical checkpointing
//! vs blocking checkpoint-restart vs abort, under node- and rack-scale
//! fail-stops.
//!
//! Not a figure from the paper — its clusters are assumed reliable —
//! but the production question the recovery layer exists to answer:
//! when a whole rack dies (ToR switch, PDU), how much work rolls back
//! and does the job even survive? Grid: OS variant × recovery policy ×
//! fault scenario on 8 nodes, with the rack kill run at two domain
//! sizes (2 racks of 4 and 4 racks of 2).
//!
//! Scenarios:
//! * `none`      — fault-free; measures checkpoint overhead alone;
//! * `node-kill` — node 5 fail-stops at 84% of the job;
//! * `rack/4`    — rack 1 of 2 (nodes 4..8) fail-stops at 84%;
//! * `rack/2`    — rack 1 of 4 (nodes 2..4) fail-stops at 84%;
//! * `storm`     — stochastic correlated faults (per-node and per-rack
//!   Poisson arrivals from the domain plan's own RNG streams).
//!
//! Policies: abort, blocking checkpoint-restart (interval 2), and the
//! hierarchical checkpointer with partner-rack (`hier…xrack`) and
//! same-rack (`hier…srack`) buddy placement. The rack kills separate
//! the two placements: same-rack buddies die with their owners and
//! recovery falls back to the global checkpoint, while partner-rack
//! buddies survive and restore from the much newer local snapshot.
//!
//! The output ends with the summary metrics, each printed to 4
//! decimals. Every number is simulated time, deterministic across
//! machines, so `fig_table` checks the whole output against its golden
//! `results/reduced/fig_domains.txt`. Three acceptance claims are
//! asserted outright, and a violation exits non-zero:
//!
//! 1. buddy restore rolls back strictly less work than global restore
//!    under the rack kill;
//! 2. degraded mode completes the rack-kill run that abort loses;
//! 3. asynchronous checkpoint overhead is below blocking overhead.
//!
//! Knob: `HLWK_DOMAIN_SEED` (master seed; the default reproduces the
//! golden, the soak varies it).

use bench::{domain_seed, header, round4};
use cluster::{
    run_resilient, BuddyPlacement, Cluster, HierarchicalCkpt, OsVariant, RecoveryCosts,
    RecoveryPolicy, RecoveryReport,
};
use simcore::fault::{DomainEvent, DomainEventKind, DomainFaultConfig, DomainScope};
use simcore::{par, Cycles};
use workloads::miniapps::MiniApp;

const NODES: u32 = 8;
/// HPC-CG iterations per job.
const ITERS: u32 = 12;
/// Where in the job the deterministic kills land (fraction of estimated
/// run time). 0.84 puts the death inside iteration ~9 of 12: past the
/// iter-8 local snapshot *and* its buddy commit, past the iter-6 global
/// commit — so buddy restore (rollback 1) and global restore
/// (rollback 3) separate with both strictly positive.
const KILL_FRAC: f64 = 0.84;
/// Storm arrival rates: hot enough that a ~4 s job sees correlated
/// losses, cool enough that survivors usually remain.
const STORM_NODE_PER_HOUR: f64 = 120.0;
const STORM_RACK_PER_HOUR: f64 = 60.0;

#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    None,
    NodeKill,
    /// Deterministic rack-1 kill at the given rack width.
    RackKill { nodes_per_rack: u32 },
    Storm,
}

const SCENARIOS: [Scenario; 5] = [
    Scenario::None,
    Scenario::NodeKill,
    Scenario::RackKill { nodes_per_rack: 4 },
    Scenario::RackKill { nodes_per_rack: 2 },
    Scenario::Storm,
];

impl Scenario {
    fn label(self) -> String {
        match self {
            Scenario::None => "none".into(),
            Scenario::NodeKill => "node-kill".into(),
            Scenario::RackKill { nodes_per_rack } => format!("rack/{nodes_per_rack}"),
            Scenario::Storm => "storm".into(),
        }
    }

    fn nodes_per_rack(self) -> u32 {
        match self {
            Scenario::RackKill { nodes_per_rack } => nodes_per_rack,
            _ => 4,
        }
    }
}

fn policies() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::Abort,
        RecoveryPolicy::CheckpointRestart { interval: 2 },
        RecoveryPolicy::Hierarchical(HierarchicalCkpt::paper_default()),
        RecoveryPolicy::Hierarchical(HierarchicalCkpt {
            buddy: BuddyPlacement::SameRack,
            ..HierarchicalCkpt::paper_default()
        }),
    ]
}

fn app() -> MiniApp {
    MiniApp {
        iterations: ITERS,
        ..MiniApp::hpccg()
    }
}

fn run_cell(os: OsVariant, policy: RecoveryPolicy, scenario: Scenario) -> Result<RecoveryReport, Cycles> {
    let start = Cycles::from_ms(1);
    let app = app();
    let mut cfg = bench::paper_config(os)
        .with_nodes(NODES)
        .with_seed(domain_seed())
        .with_domains(scenario.nodes_per_rack());
    cfg.horizon_secs = 60;
    let est = app.thread_quantum(NODES as usize) + Cycles::from_ms(1);
    let kill_at = start + est.scale(f64::from(app.iterations) * KILL_FRAC);
    match scenario {
        Scenario::None => {}
        Scenario::NodeKill => {
            cfg = cfg.with_domain_event(DomainEvent {
                at: kill_at,
                scope: DomainScope::Node(5),
                kind: DomainEventKind::FailStop,
            });
        }
        Scenario::RackKill { .. } => {
            cfg = cfg.with_domain_event(DomainEvent {
                at: kill_at,
                scope: DomainScope::Rack(1),
                kind: DomainEventKind::FailStop,
            });
        }
        Scenario::Storm => {
            cfg = cfg.with_domain_faults(
                DomainFaultConfig::off()
                    .with_node_fails(STORM_NODE_PER_HOUR)
                    .with_rack_fails(STORM_RACK_PER_HOUR),
            );
        }
    }
    let mut c = Cluster::build(cfg);
    run_resilient(&mut c, &app, policy, &RecoveryCosts::default(), start)
        .map_err(|f| f.detected_at)
}

fn collect() -> Vec<(&'static str, f64)> {
    let oses = [OsVariant::LinuxCgroup, OsVariant::McKernel];
    let pols = policies();
    let mut cells = Vec::new();
    for &os in &oses {
        for &p in &pols {
            for s in SCENARIOS {
                cells.push((os, p, s));
            }
        }
    }
    let rows: Vec<Result<RecoveryReport, Cycles>> =
        par::parallel_map(cells.len(), |ci| run_cell(cells[ci].0, cells[ci].1, cells[ci].2));
    let idx = |oi: usize, pi: usize, si: usize| (oi * pols.len() + pi) * SCENARIOS.len() + si;

    for (oi, os) in oses.iter().enumerate() {
        println!("\n--- {} ---", os.label());
        println!(
            "{:>22} {:>10} {:>10} {:>7} {:>6} {:>6} {:>8} {:>6}",
            "policy", "scenario", "time", "redone", "l.ckpt", "g.ckpt", "restore", "alive"
        );
        for (pi, p) in pols.iter().enumerate() {
            for (si, s) in SCENARIOS.iter().enumerate() {
                match &rows[idx(oi, pi, si)] {
                    Ok(rep) => println!(
                        "{:>22} {:>10} {:>9.3}s {:>7} {:>6} {:>6} {:>8} {:>6}",
                        p.label(),
                        s.label(),
                        rep.time.as_secs_f64(),
                        rep.redone_iters,
                        rep.local_ckpts,
                        rep.global_ckpts,
                        match (rep.buddy_restores, rep.global_restores) {
                            (0, 0) => "-".into(),
                            (b, g) => format!("{b}b/{g}g"),
                        },
                        rep.survivors
                    ),
                    Err(at) => println!(
                        "{:>22} {:>10} {:>10} {:>7} {:>6} {:>6} {:>8} {:>6}",
                        p.label(),
                        s.label(),
                        format!("ABORT@{:.2}s", at.as_secs_f64()),
                        "-",
                        "-",
                        "-",
                        "-",
                        "-"
                    ),
                }
            }
        }
    }

    // Metric cells: McKernel (oi 1) unless named otherwise. Policy
    // indices mirror `policies()`: 0 abort, 1 blocking, 2 hier-xrack,
    // 3 hier-srack; scenario indices mirror `SCENARIOS`.
    let cell = |oi: usize, pi: usize, si: usize| &rows[idx(oi, pi, si)];
    let ok = |pi: usize, si: usize| cell(1, pi, si).as_ref().expect("completes");
    let plain = ok(0, 0).time.as_secs_f64();
    let overhead = |t: f64| 100.0 * (t - plain) / plain;
    let xrack_rack = ok(2, 2);
    let srack_rack = ok(3, 2);
    let storm_hier = cell(1, 2, 4);
    vec![
        ("plain_time_s", round4(plain)),
        ("hier_overhead_pct", round4(overhead(ok(2, 0).time.as_secs_f64()))),
        ("blocking_overhead_pct", round4(overhead(ok(1, 0).time.as_secs_f64()))),
        ("node_redone_hier", f64::from(ok(2, 1).redone_iters)),
        ("rack_redone_buddy", f64::from(xrack_rack.redone_iters)),
        ("rack_redone_global", f64::from(srack_rack.redone_iters)),
        ("rack_buddy_restores", f64::from(xrack_rack.buddy_restores)),
        ("rack_global_restores", f64::from(srack_rack.global_restores)),
        (
            "rack_completed_abort",
            f64::from(u8::from(cell(1, 0, 2).is_ok())),
        ),
        ("rack_completed_degraded", 1.0),
        (
            "recovered_frac_rack",
            round4(xrack_rack.survivors as f64 / f64::from(NODES)),
        ),
        ("rack_ranks_lost", f64::from(xrack_rack.ranks_lost)),
        ("rack_detect_us", round4(xrack_rack.detection_latency.map_or(0.0, |d| d.as_us_f64()))),
        ("rack_time_degraded_s", round4(xrack_rack.time.as_secs_f64())),
        // Domain-size axis: the narrow-rack kill loses 2 ranks, not 4.
        ("rack2_redone_buddy", f64::from(ok(2, 3).redone_iters)),
        (
            "recovered_frac_rack2",
            round4(ok(2, 3).survivors as f64 / f64::from(NODES)),
        ),
        // OS axis: same degraded rack-kill run on Linux+cgroup.
        (
            "linux_rack_time_degraded_s",
            round4(cell(0, 2, 2).as_ref().expect("completes").time.as_secs_f64()),
        ),
        // Storm axis: stochastic correlated faults under the degraded
        // hierarchical policy — completion plus how much was lost.
        (
            "storm_completed_hier",
            f64::from(u8::from(storm_hier.is_ok())),
        ),
        (
            "storm_ranks_lost_hier",
            storm_hier.as_ref().map_or(f64::from(NODES), |r| f64::from(r.ranks_lost)),
        ),
    ]
}

fn find(metrics: &[(&str, f64)], k: &str) -> f64 {
    metrics.iter().find(|(mk, _)| *mk == k).expect("present").1
}

/// The acceptance claims. Returns true if any failed.
fn assert_claims(metrics: &[(&str, f64)]) -> bool {
    let mut failed = false;
    let buddy = find(metrics, "rack_redone_buddy");
    let global = find(metrics, "rack_redone_global");
    if buddy >= global {
        eprintln!(
            "CLAIM VIOLATION: buddy restore redid {buddy} iters, not strictly less than global's {global}"
        );
        failed = true;
    }
    if find(metrics, "rack_completed_abort") != 0.0 {
        eprintln!("CLAIM VIOLATION: abort unexpectedly survived the rack kill");
        failed = true;
    }
    if find(metrics, "rack_buddy_restores") < 1.0 || find(metrics, "rack_global_restores") < 1.0 {
        eprintln!(
            "CLAIM VIOLATION: expected >=1 buddy restore (xrack) and >=1 global restore (srack)"
        );
        failed = true;
    }
    let hier = find(metrics, "hier_overhead_pct");
    let blocking = find(metrics, "blocking_overhead_pct");
    if hier >= blocking {
        eprintln!(
            "CLAIM VIOLATION: async hierarchical overhead {hier:.4}% not below blocking {blocking:.4}%"
        );
        failed = true;
    }
    failed
}

fn main() {
    header(&format!(
        "Failure domains — HPC-CG x{ITERS} on {NODES} nodes; deterministic kills at {:.0}% of the job",
        KILL_FRAC * 100.0
    ));
    let metrics = collect();
    println!();
    for (k, v) in &metrics {
        println!("{k:>28}: {v:10.4}");
    }
    if assert_claims(&metrics) {
        std::process::exit(1);
    }
}
