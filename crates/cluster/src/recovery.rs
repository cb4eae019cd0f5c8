//! Job-level recovery policies over node failures.
//!
//! The layers below give bounded *detection*: the reliable fabric turns
//! an unreachable peer into a typed [`LinkError`](netsim::LinkError)
//! once its retry budget drains, and the MPI layer's straggler timers
//! turn silence into a [`RankFailure`] instead of a hang. This module
//! decides what the *job* does next:
//!
//! * [`RecoveryPolicy::Abort`] — classic MPI behaviour: the failure
//!   propagates out as a typed error and the job is gone.
//! * [`RecoveryPolicy::ShrinkAndRedo`] — the survivors form a shrunk
//!   communicator (ULFM-style), absorb the lost rank's work share, and
//!   re-run the interrupted iteration.
//! * [`RecoveryPolicy::CheckpointRestart`] — periodic coordinated
//!   snapshots; on failure the survivors roll back to the last
//!   checkpoint and replay from there.
//! * [`RecoveryPolicy::Hierarchical`] — asynchronous hierarchical
//!   checkpointing over the cluster's failure domains: local snapshots
//!   overlap compute (only a copy-on-write fork blocks), each rank's
//!   snapshot is buddy-copied into a *different* failure domain, and
//!   every Nth snapshot additionally drains to the parallel file
//!   system. Rollback distance then depends on *which domain died*:
//!   a node (or any batch whose buddies survived) restores from buddy
//!   copies at the last local snapshot, while a whole-domain loss that
//!   took the buddies too falls back to the last durable global
//!   checkpoint. In degraded mode the survivors keep running at
//!   reduced width instead of aborting.
//!
//! Every policy *terminates*: each failure permanently removes at
//! least one rank, a one-rank job cannot fail (no communication), and
//! detection windows are bounded, so even adversarial fault schedules
//! end in either a typed abort or completion — within
//! `iterations + (p+1) * (max_rollback + 2)` loop steps (asserted by
//! the termination proptest in `tests/proptest_recovery.rs`).

use crate::sim::Cluster;
use hlwk_core::ihk::manager::HeartbeatMonitor;
use mpisim::{FailureBatch, RankFailure};
use simcore::fault::DomainTopology;
use simcore::Cycles;
use workloads::miniapps::MiniApp;

/// What the job does when a rank is declared failed mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Propagate the failure; the job is lost.
    Abort,
    /// Shrink the communicator to the survivors and redo the
    /// interrupted iteration with redistributed work.
    ShrinkAndRedo,
    /// Coordinated checkpoint every `interval` iterations; on failure
    /// the survivors roll back to the last checkpoint and replay.
    CheckpointRestart {
        /// Iterations between checkpoints.
        interval: u32,
    },
    /// Asynchronous hierarchical checkpointing over failure domains
    /// with batch failure handling (see the module docs).
    Hierarchical(HierarchicalCkpt),
}

/// Knobs for [`RecoveryPolicy::Hierarchical`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchicalCkpt {
    /// Iterations between local snapshots.
    pub local_interval: u32,
    /// Every `global_factor`-th local snapshot also drains to the
    /// parallel file system (global checkpoint).
    pub global_factor: u32,
    /// Where each rank's buddy copy lands.
    pub buddy: BuddyPlacement,
    /// `true`: degraded mode — survivors keep running at reduced width.
    /// `false`: the first confirmed failure aborts the job (but the
    /// checkpoint overhead is still paid, for honest comparisons).
    pub degraded: bool,
}

impl HierarchicalCkpt {
    /// The paper-shaped default: local snapshot every 2 iterations,
    /// global every 6, buddies across racks, degraded mode on.
    pub fn paper_default() -> HierarchicalCkpt {
        HierarchicalCkpt {
            local_interval: 2,
            global_factor: 3,
            buddy: BuddyPlacement::PartnerRack,
            degraded: true,
        }
    }

    /// Iterations between global checkpoints.
    pub fn global_interval(&self) -> u32 {
        self.local_interval * self.global_factor
    }
}

/// Where a rank's buddy checkpoint copy is placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuddyPlacement {
    /// The next node within the same rack — cheap, but a rack-level
    /// fault takes the copy down with the original.
    SameRack,
    /// The same position in the partner (next) rack — survives a whole
    /// rack dying, at cross-domain copy cost.
    PartnerRack,
}

impl BuddyPlacement {
    /// The node holding `node`'s buddy copy under `topo`. Degenerate
    /// domains fall back gracefully: a one-rack cluster has no partner
    /// rack, so `PartnerRack` degrades to the same-rack neighbour, and
    /// a one-node rack has no buddy at all (returns `node` itself —
    /// restore impossible if it dies).
    pub fn buddy_of(&self, topo: &DomainTopology, node: usize) -> usize {
        let rack = topo.rack_of(node);
        let home = topo.nodes_in(simcore::fault::DomainScope::Rack(rack));
        let idx = home.iter().position(|&n| n == node).expect("node is in its rack");
        if *self == BuddyPlacement::PartnerRack {
            let partner = topo.partner_rack(rack);
            if partner != rack {
                let target = topo.nodes_in(simcore::fault::DomainScope::Rack(partner));
                return target[idx % target.len()];
            }
        }
        home[(idx + 1) % home.len()]
    }

    fn label(&self) -> &'static str {
        match self {
            BuddyPlacement::SameRack => "srack",
            BuddyPlacement::PartnerRack => "xrack",
        }
    }
}

impl RecoveryPolicy {
    /// Display label for figure output.
    pub fn label(&self) -> String {
        match self {
            RecoveryPolicy::Abort => "abort".to_string(),
            RecoveryPolicy::ShrinkAndRedo => "shrink-redo".to_string(),
            RecoveryPolicy::CheckpointRestart { interval } => format!("ckpt-{interval}"),
            RecoveryPolicy::Hierarchical(h) => format!(
                "hier-{}x{}-{}-{}",
                h.local_interval,
                h.global_factor,
                h.buddy.label(),
                if h.degraded { "deg" } else { "abt" }
            ),
        }
    }

    /// The longest rollback a single failure can force under this
    /// policy, in iterations (termination-bound input).
    pub fn max_rollback(&self) -> u32 {
        match self {
            RecoveryPolicy::Abort => 0,
            RecoveryPolicy::ShrinkAndRedo => 1,
            RecoveryPolicy::CheckpointRestart { interval } => *interval,
            RecoveryPolicy::Hierarchical(h) => h.global_interval(),
        }
    }
}

/// Time models for the recovery machinery itself.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryCosts {
    /// Writing one rank's checkpoint (charged to every rank at each
    /// checkpoint barrier).
    pub ckpt_write: Cycles,
    /// Restoring one rank's state from the checkpoint after a rollback.
    pub ckpt_restore: Cycles,
    /// Rebuilding the communicator + redistributing data after a shrink
    /// (charged once per failure to every survivor).
    pub rebuild: Cycles,
    /// The *blocking* part of an asynchronous local snapshot: the
    /// copy-on-write fork of the rank's state. Everything after it
    /// overlaps compute.
    pub local_snapshot: Cycles,
    /// Snapshot initiation → the local copy is durable on node-local
    /// storage (asynchronous drain; commit time, not charged to the
    /// critical path).
    pub local_drain: Cycles,
    /// Local commit → the buddy copy is durable in the partner failure
    /// domain (asynchronous RDMA push).
    pub buddy_copy: Cycles,
    /// Snapshot initiation → the rank's global copy is durable on the
    /// parallel file system (asynchronous; much slower than the
    /// node-local path).
    pub global_drain: Cycles,
}

impl Default for RecoveryCosts {
    fn default() -> Self {
        RecoveryCosts {
            // ~64 MiB of rank state at ~25 ns/KiB to the burst buffer.
            ckpt_write: Cycles::from_ns(25 * 64 * 1024),
            ckpt_restore: Cycles::from_ns(25 * 64 * 1024),
            rebuild: Cycles::from_ms(5),
            // CoW fork: page-table copy + write-protect, not the data.
            local_snapshot: Cycles::from_us(150),
            // ~64 MiB to node-local NVMe in the background.
            local_drain: Cycles::from_ms(2),
            // ~64 MiB over the fabric to the buddy domain.
            buddy_copy: Cycles::from_ms(12),
            // ~64 MiB to the shared parallel FS under contention.
            global_drain: Cycles::from_ms(40),
        }
    }
}

/// What happened during one resilient run.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Job start to the last survivor's finish.
    pub time: Cycles,
    /// Rank failures the job absorbed.
    pub failures: u32,
    /// Iterations executed more than once (redo / replay).
    pub redone_iters: u32,
    /// Checkpoints written.
    pub checkpoints: u32,
    /// For the first failure: detector firing to cluster-level
    /// confirmation (heartbeat sweep), the paper-style detection
    /// latency.
    pub detection_latency: Option<Cycles>,
    /// Ranks still alive at completion.
    pub survivors: usize,
    /// Total ranks removed across all failure events (≥ `failures`
    /// under correlated faults: one detection window can lose many).
    pub ranks_lost: u32,
    /// Asynchronous local snapshots initiated (hierarchical only).
    pub local_ckpts: u32,
    /// Global (parallel-FS) checkpoints initiated (hierarchical only).
    pub global_ckpts: u32,
    /// Rollbacks served from buddy copies (hierarchical only).
    pub buddy_restores: u32,
    /// Rollbacks that had to fall back to a global checkpoint
    /// (hierarchical only).
    pub global_restores: u32,
    /// Main-loop passes executed (iterations + failure handling); the
    /// termination proptest bounds this.
    pub steps: u32,
}

impl RecoveryReport {
    fn start(p0: usize) -> RecoveryReport {
        RecoveryReport {
            time: Cycles::ZERO,
            failures: 0,
            redone_iters: 0,
            checkpoints: 0,
            detection_latency: None,
            survivors: p0,
            ranks_lost: 0,
            local_ckpts: 0,
            global_ckpts: 0,
            buddy_restores: 0,
            global_restores: 0,
            steps: 0,
        }
    }
}

/// Confirm a suspected death at cluster scope. The observer's failure
/// detector fired at `suspected_at` (straggler timeout or retry-budget
/// exhaustion); the job runtime then sweeps the suspect with the same
/// heartbeat machinery the LWK uses for its proxy
/// ([`HeartbeatMonitor::paper_default`]: misses are declared after a
/// bounded number of unanswered probes), so confirmation lags suspicion
/// by at most [`HeartbeatMonitor::detection_bound`].
fn confirm_death(suspected_at: Cycles) -> Cycles {
    let mut hb = HeartbeatMonitor::paper_default();
    let mut t = suspected_at;
    loop {
        // A dead node never answers the probe.
        let _ = hb.poll(t);
        if hb.is_dead() {
            break;
        }
        t += hb.interval;
    }
    debug_assert!(t - suspected_at <= hb.detection_bound());
    t
}

/// Run `app` on the whole cluster under `policy`, surviving node
/// failures. `Ok` means the job completed (possibly shrunk, possibly
/// with replayed iterations); `Err` is the [`RecoveryPolicy::Abort`]
/// outcome — a typed failure, never a hang — also returned if every
/// rank dies.
pub fn run_resilient(
    cluster: &mut Cluster,
    app: &MiniApp,
    policy: RecoveryPolicy,
    costs: &RecoveryCosts,
    start: Cycles,
) -> Result<RecoveryReport, RankFailure> {
    if let RecoveryPolicy::Hierarchical(h) = policy {
        return run_hierarchical(cluster, app, h, costs, start);
    }
    cluster.set_mem_intensity(app.mem_intensity);
    let p0 = cluster.cfg.nodes as usize;
    // rank -> surviving fabric node. Starts as the identity.
    let mut ranks: Vec<usize> = (0..p0).collect();
    let mut clocks = vec![start; p0];
    let mut quantum = app.thread_quantum(p0);
    let mut iter: u32 = 0;
    // Last durable checkpoint: (iteration, per-rank clocks at the
    // barrier). Iteration 0 is implicitly checkpointed (initial state).
    let mut ckpt: Option<(u32, Vec<Cycles>)> = match policy {
        RecoveryPolicy::CheckpointRestart { .. } => Some((0, clocks.clone())),
        _ => None,
    };
    let mut report = RecoveryReport::start(p0);
    while iter < app.iterations {
        report.steps += 1;
        if let RecoveryPolicy::CheckpointRestart { interval } = policy {
            debug_assert!(interval > 0, "checkpoint interval must be positive");
            if iter > 0 && iter % interval == 0 && ckpt.as_ref().is_some_and(|c| c.0 != iter) {
                for c in &mut clocks {
                    *c += costs.ckpt_write;
                }
                ckpt = Some((iter, clocks.clone()));
                report.checkpoints += 1;
            }
        }
        let pre = clocks.clone();
        let res = cluster.step_miniapp(app, quantum, &ranks, &mut clocks);
        match res {
            Ok(()) => iter += 1,
            Err(f) => {
                report.failures += 1;
                report.ranks_lost += 1;
                let dead_rank = f.rank;
                let dead_node = ranks[dead_rank];
                let confirmed = confirm_death(f.detected_at);
                if report.detection_latency.is_none() {
                    // Paper-style metric: actual death (if the fabric
                    // knows it) to cluster-level confirmation.
                    let died = cluster
                        .fabric
                        .node_dead_at(dead_node)
                        .unwrap_or(f.detected_at);
                    report.detection_latency = Some(confirmed - died);
                }
                // Tear the dead node itself down (proxy-death recovery
                // on McKernel; fail-stop marking either way).
                cluster.host.nodes[dead_node].crash_node(confirmed);
                if policy == RecoveryPolicy::Abort {
                    return Err(f);
                }
                ranks.remove(dead_rank);
                report.survivors = ranks.len();
                if ranks.is_empty() {
                    return Err(f);
                }
                quantum = app.thread_quantum_shrunk(p0, ranks.len());
                match policy {
                    RecoveryPolicy::Abort => unreachable!("handled above"),
                    RecoveryPolicy::Hierarchical(_) => unreachable!("dispatched above"),
                    RecoveryPolicy::ShrinkAndRedo => {
                        // Survivors resume from the iteration start,
                        // paying confirmation + communicator rebuild,
                        // then redo the interrupted iteration.
                        clocks = pre;
                        clocks.remove(dead_rank);
                        for c in &mut clocks {
                            *c = (*c).max(confirmed) + costs.rebuild;
                        }
                        report.redone_iters += 1;
                    }
                    RecoveryPolicy::CheckpointRestart { .. } => {
                        let (ck_iter, ck_clocks) =
                            ckpt.clone().expect("seeded at job start");
                        let mut rolled = ck_clocks;
                        rolled.remove(dead_rank);
                        for c in &mut rolled {
                            *c = (*c).max(confirmed) + costs.rebuild + costs.ckpt_restore;
                        }
                        clocks = rolled;
                        report.redone_iters += iter - ck_iter;
                        iter = ck_iter;
                        // Re-base the checkpoint on the shrunk
                        // communicator so a second failure rolls back
                        // consistently.
                        ckpt = Some((ck_iter, clocks.clone()));
                    }
                }
            }
        }
    }
    report.time = *clocks.iter().max().expect("survivors exist") - start;
    Ok(report)
}

/// A local snapshot in flight or committed. Clock vectors are indexed
/// by communicator rank; `nodes` records the rank→node map at snapshot
/// time so durability can be judged against node death times.
#[derive(Clone, Debug)]
struct LocalSnap {
    iter: u32,
    clocks: Vec<Cycles>,
    nodes: Vec<usize>,
    /// Per rank: when its buddy copy became durable in the partner
    /// domain (initiation + local drain + buddy push).
    buddy_commit: Vec<Cycles>,
}

/// A global checkpoint on the parallel file system.
#[derive(Clone, Debug)]
struct GlobalSnap {
    iter: u32,
    clocks: Vec<Cycles>,
    nodes: Vec<usize>,
    /// Per rank: when its PFS copy became durable.
    commit: Vec<Cycles>,
}

/// Asynchronous hierarchical checkpointing with degraded-mode recovery
/// (see the module docs and [`HierarchicalCkpt`]). Invariants:
///
/// * only [`RecoveryCosts::local_snapshot`] blocks the critical path at
///   a snapshot — drains and buddy copies *commit* later but cost no
///   compute time;
/// * a failure is widened into the full [`FailureBatch`] dead by the
///   confirmation sweep, and the communicator shrinks **once** for the
///   whole batch;
/// * buddy restore is legal iff every dead rank's buddy copy committed
///   *before its node died* and the buddy node survived the batch;
///   otherwise the newest globally-durable checkpoint wins (iteration
///   0's implicit checkpoint is always durable, so a restore target
///   always exists).
fn run_hierarchical(
    cluster: &mut Cluster,
    app: &MiniApp,
    h: HierarchicalCkpt,
    costs: &RecoveryCosts,
    start: Cycles,
) -> Result<RecoveryReport, RankFailure> {
    assert!(h.local_interval > 0 && h.global_factor > 0);
    cluster.set_mem_intensity(app.mem_intensity);
    let topo = cluster.topo;
    let p0 = cluster.cfg.nodes as usize;
    let mut ranks: Vec<usize> = (0..p0).collect();
    let mut clocks = vec![start; p0];
    let mut quantum = app.thread_quantum(p0);
    let mut iter: u32 = 0;
    // Iteration 0 is implicitly a durable global checkpoint.
    let mut globals: Vec<GlobalSnap> = vec![GlobalSnap {
        iter: 0,
        clocks: clocks.clone(),
        nodes: ranks.clone(),
        commit: vec![start; p0],
    }];
    let mut local: Option<LocalSnap> = None;
    let mut last_ckpt_iter: u32 = 0;
    // Nodes removed from the job (fabric-dead or declared unreachable)
    // — ineligible as buddy restore sources.
    let mut gone = vec![false; p0];
    let mut report = RecoveryReport::start(p0);
    while iter < app.iterations {
        report.steps += 1;
        if iter > 0 && iter % h.local_interval == 0 && last_ckpt_iter != iter {
            // Only the CoW fork blocks; drains overlap compute.
            for c in &mut clocks {
                *c += costs.local_snapshot;
            }
            let buddy_commit: Vec<Cycles> = clocks
                .iter()
                .map(|&c| c + costs.local_drain + costs.buddy_copy)
                .collect();
            local = Some(LocalSnap {
                iter,
                clocks: clocks.clone(),
                nodes: ranks.clone(),
                buddy_commit,
            });
            report.local_ckpts += 1;
            if iter % h.global_interval() == 0 {
                globals.push(GlobalSnap {
                    iter,
                    clocks: clocks.clone(),
                    nodes: ranks.clone(),
                    commit: clocks.iter().map(|&c| c + costs.global_drain).collect(),
                });
                report.global_ckpts += 1;
            }
            last_ckpt_iter = iter;
        }
        let res = cluster.step_miniapp(app, quantum, &ranks, &mut clocks);
        match res {
            Ok(()) => iter += 1,
            Err(f) => {
                report.failures += 1;
                let confirmed = confirm_death(f.detected_at);
                if report.detection_latency.is_none() {
                    let died = cluster
                        .fabric
                        .node_dead_at(ranks[f.rank])
                        .unwrap_or(f.detected_at);
                    report.detection_latency = Some(confirmed - died);
                }
                // Widen the primary failure into the batch dead by the
                // confirmation sweep — a correlated event kills many
                // ranks in one detection window.
                let batch = FailureBatch::new(
                    f,
                    (0..ranks.len())
                        .filter(|&r| cluster.fabric.is_dead(ranks[r], confirmed))
                        .collect(),
                );
                report.ranks_lost += batch.len() as u32;
                for &r in &batch.ranks {
                    cluster.host.nodes[ranks[r]].crash_node(confirmed);
                    gone[ranks[r]] = true;
                }
                if !h.degraded {
                    return Err(f);
                }
                // When a node actually died (vs. an unreachable-peer
                // declaration), judge checkpoint durability against the
                // real death instant, not the later confirmation.
                let death_of = |node: usize| -> Cycles {
                    cluster.fabric.node_dead_at(node).unwrap_or(confirmed)
                };
                // Buddy restore: every dead rank's copy must have
                // committed before its node died, onto a buddy that is
                // not itself part of the batch.
                let buddy_ok = local.as_ref().is_some_and(|s| {
                    batch.ranks.iter().all(|&r| {
                        let node = s.nodes[r];
                        let buddy = h.buddy.buddy_of(&topo, node);
                        buddy != node
                            && !gone[buddy]
                            && !cluster.fabric.is_dead(buddy, confirmed)
                            && s.buddy_commit[r] <= death_of(node)
                    })
                });
                // Shrink once for the whole batch.
                for &r in batch.ranks.iter().rev() {
                    ranks.remove(r);
                }
                report.survivors = ranks.len();
                if ranks.is_empty() {
                    return Err(f);
                }
                quantum = app.thread_quantum_shrunk(p0, ranks.len());
                let (snap_iter, snap_clocks, restore_cost) = if buddy_ok {
                    let s = local.as_ref().expect("buddy_ok implies a local snapshot");
                    report.buddy_restores += 1;
                    (s.iter, s.clocks.clone(), costs.ckpt_restore)
                } else {
                    // Newest global whose dead-rank copies were durable
                    // before those nodes died. Iteration 0 always
                    // qualifies (committed at job start).
                    let g = globals
                        .iter()
                        .rev()
                        .find(|g| {
                            batch
                                .ranks
                                .iter()
                                .all(|&r| g.commit[r] <= death_of(g.nodes[r]))
                        })
                        .expect("iteration 0 is always durable");
                    report.global_restores += 1;
                    // A PFS restore re-reads every rank's state and
                    // re-stages it: restore + the write-back of the
                    // working copy (same asymmetric cost the blocking
                    // policy pays).
                    (g.iter, g.clocks.clone(), costs.ckpt_restore)
                };
                let mut rolled = snap_clocks;
                for &r in batch.ranks.iter().rev() {
                    rolled.remove(r);
                }
                for c in &mut rolled {
                    *c = (*c).max(confirmed) + costs.rebuild + restore_cost;
                }
                clocks = rolled;
                report.redone_iters += iter - snap_iter;
                iter = snap_iter;
                last_ckpt_iter = snap_iter;
                // Re-base both checkpoint levels onto the shrunk
                // communicator so the next failure rolls back
                // consistently (the restored state *is* the new
                // durable baseline).
                globals = vec![GlobalSnap {
                    iter: snap_iter,
                    clocks: clocks.clone(),
                    nodes: ranks.clone(),
                    commit: clocks.clone(),
                }];
                local = Some(LocalSnap {
                    iter: snap_iter,
                    clocks: clocks.clone(),
                    nodes: ranks.clone(),
                    // The restored image is durable everywhere already.
                    buddy_commit: clocks.clone(),
                });
            }
        }
    }
    report.time = *clocks.iter().max().expect("survivors exist") - start;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, OsVariant};
    use netsim::reliable::CrashTrigger;

    fn cluster(os: OsVariant, nodes: u32, crash_at: Option<Cycles>) -> Cluster {
        let mut cfg = ClusterConfig::paper(os).with_nodes(nodes).with_seed(99);
        cfg.horizon_secs = 30;
        if let Some(at) = crash_at {
            cfg = cfg.with_node_crash(1, CrashTrigger::AtTime(at));
        }
        Cluster::build(cfg)
    }

    fn short_app() -> MiniApp {
        MiniApp {
            iterations: 8,
            ..MiniApp::hpccg()
        }
    }

    #[test]
    fn fault_free_run_matches_run_miniapp_exactly() {
        let app = short_app();
        let plain = cluster(OsVariant::McKernel, 4, None)
            .run_miniapp(&app, Cycles::from_ms(1))
            .expect("fault-free");
        let mut c = cluster(OsVariant::McKernel, 4, None);
        let rep = run_resilient(
            &mut c,
            &app,
            RecoveryPolicy::ShrinkAndRedo,
            &RecoveryCosts::default(),
            Cycles::from_ms(1),
        )
        .expect("fault-free");
        assert_eq!(rep.time, plain, "resilience wrapper must add zero cost");
        assert_eq!(rep.failures, 0);
        assert_eq!(rep.redone_iters, 0);
        assert_eq!(rep.survivors, 4);
    }

    #[test]
    fn abort_is_a_typed_error_with_bounded_detection() {
        let crash = Cycles::from_ms(400);
        let mut c = cluster(OsVariant::LinuxCgroup, 4, Some(crash));
        let err = run_resilient(
            &mut c,
            &short_app(),
            RecoveryPolicy::Abort,
            &RecoveryCosts::default(),
            Cycles::from_ms(1),
        )
        .expect_err("node 1 dies mid-run");
        assert_eq!(err.rank, 1);
        // Detection is communication-driven, so it is bounded by one BSP
        // iteration (the next time anyone talks to the dead rank,
        // ~330 ms for HPC-CG) plus the straggler timeout and the full
        // retry budget — never unbounded, never a hang.
        let one_iter = short_app().thread_quantum(4) + Cycles::from_ms(50);
        let budget = c.fabric.policy().detection_budget();
        assert!(
            err.detected_at <= crash + one_iter + budget,
            "{} too late",
            err.detected_at
        );
    }

    #[test]
    fn shrink_and_redo_completes_on_survivors() {
        let crash = Cycles::from_ms(400);
        let mut c = cluster(OsVariant::McKernel, 4, Some(crash));
        let rep = run_resilient(
            &mut c,
            &short_app(),
            RecoveryPolicy::ShrinkAndRedo,
            &RecoveryCosts::default(),
            Cycles::from_ms(1),
        )
        .expect("survivors finish the job");
        assert_eq!(rep.failures, 1);
        assert_eq!(rep.survivors, 3);
        assert!(rep.redone_iters >= 1);
        assert!(rep.detection_latency.is_some());
        // The dead node was locally torn down too.
        assert!(!c.host.nodes[1].alive);
        // Weak scaling on 3 survivors re-runs at 4/3 work: slower than
        // the fault-free run but it terminates.
        let plain = cluster(OsVariant::McKernel, 4, None)
            .run_miniapp(&short_app(), Cycles::from_ms(1))
            .expect("fault-free");
        assert!(rep.time > plain);
    }

    #[test]
    fn checkpoint_restart_replays_from_the_last_snapshot() {
        let crash = Cycles::from_ms(900);
        let mut c = cluster(OsVariant::LinuxCgroup, 4, Some(crash));
        let rep = run_resilient(
            &mut c,
            &short_app(),
            RecoveryPolicy::CheckpointRestart { interval: 2 },
            &RecoveryCosts::default(),
            Cycles::from_ms(1),
        )
        .expect("survivors replay and finish");
        assert_eq!(rep.failures, 1);
        assert!(rep.checkpoints >= 1);
        // Rollback replays at most `interval` iterations per failure.
        assert!(rep.redone_iters <= 2 * rep.failures);
        assert_eq!(rep.survivors, 3);
    }

    fn domain_cluster(
        os: OsVariant,
        nodes: u32,
        nodes_per_rack: u32,
        event: Option<simcore::fault::DomainEvent>,
    ) -> Cluster {
        let mut cfg = ClusterConfig::paper(os)
            .with_nodes(nodes)
            .with_seed(99)
            .with_domains(nodes_per_rack);
        cfg.horizon_secs = 30;
        if let Some(ev) = event {
            cfg = cfg.with_domain_event(ev);
        }
        Cluster::build(cfg)
    }

    fn rack_kill(rack: usize, at: Cycles) -> simcore::fault::DomainEvent {
        simcore::fault::DomainEvent {
            at,
            scope: simcore::fault::DomainScope::Rack(rack),
            kind: simcore::fault::DomainEventKind::FailStop,
        }
    }

    #[test]
    fn buddy_placement_maps_into_the_right_domain() {
        let topo = DomainTopology::new(8, 4);
        for n in 0..8 {
            let same = BuddyPlacement::SameRack.buddy_of(&topo, n);
            assert_eq!(topo.rack_of(same), topo.rack_of(n), "same-rack stays home");
            assert_ne!(same, n);
            let cross = BuddyPlacement::PartnerRack.buddy_of(&topo, n);
            assert_ne!(topo.rack_of(cross), topo.rack_of(n), "cross-rack leaves home");
        }
    }

    #[test]
    fn hierarchical_fault_free_overhead_is_below_blocking() {
        // The async scheme's blocking cost per snapshot (CoW fork) is a
        // fraction of the blocking-coordinated write, at the *same*
        // checkpoint cadence.
        let app = MiniApp { iterations: 12, ..MiniApp::hpccg() };
        let plain = cluster(OsVariant::McKernel, 4, None)
            .run_miniapp(&app, Cycles::from_ms(1))
            .expect("fault-free");
        let run = |policy| {
            let mut c = cluster(OsVariant::McKernel, 4, None);
            run_resilient(&mut c, &app, policy, &RecoveryCosts::default(), Cycles::from_ms(1))
                .expect("fault-free")
        };
        let hier = run(RecoveryPolicy::Hierarchical(HierarchicalCkpt {
            local_interval: 2,
            global_factor: 3,
            buddy: BuddyPlacement::PartnerRack,
            degraded: true,
        }));
        let blocking = run(RecoveryPolicy::CheckpointRestart { interval: 2 });
        assert_eq!(hier.failures, 0);
        assert_eq!(hier.local_ckpts, 5, "iters 2,4,6,8,10");
        assert_eq!(hier.global_ckpts, 1, "iter 6");
        assert!(hier.time > plain, "snapshots are not free");
        assert!(
            hier.time - plain < blocking.time - plain,
            "async overhead {} must undercut blocking {}",
            (hier.time - plain).as_secs_f64(),
            (blocking.time - plain).as_secs_f64()
        );
    }

    #[test]
    fn node_death_restores_from_buddy_not_global() {
        // One node dies well after a local snapshot's buddy copy
        // committed: rollback must come from the buddy, bounded by the
        // local interval.
        let mut c = cluster(OsVariant::McKernel, 4, Some(Cycles::from_ms(1400)));
        let app = MiniApp { iterations: 12, ..MiniApp::hpccg() };
        let rep = run_resilient(
            &mut c,
            &app,
            RecoveryPolicy::Hierarchical(HierarchicalCkpt::paper_default()),
            &RecoveryCosts::default(),
            Cycles::from_ms(1),
        )
        .expect("degraded mode completes");
        assert_eq!(rep.failures, 1);
        assert_eq!(rep.ranks_lost, 1);
        assert_eq!(rep.buddy_restores, 1);
        assert_eq!(rep.global_restores, 0);
        assert!(
            rep.redone_iters <= HierarchicalCkpt::paper_default().local_interval,
            "buddy rollback is bounded by the local interval, redid {}",
            rep.redone_iters
        );
        assert_eq!(rep.survivors, 3);
    }

    #[test]
    fn rack_death_with_same_rack_buddies_falls_back_to_global() {
        // 8 nodes in 2 racks of 4. Rack 1 dies: same-rack buddies died
        // with their originals, so recovery must use the last global
        // checkpoint; cross-rack buddies survive and serve the restore.
        let app = MiniApp { iterations: 12, ..MiniApp::hpccg() };
        let kill = rack_kill(1, Cycles::from_ms(1600));
        let run = |buddy| {
            let mut c = domain_cluster(OsVariant::McKernel, 8, 4, Some(kill));
            run_resilient(
                &mut c,
                &app,
                RecoveryPolicy::Hierarchical(HierarchicalCkpt {
                    buddy,
                    ..HierarchicalCkpt::paper_default()
                }),
                &RecoveryCosts::default(),
                Cycles::from_ms(1),
            )
            .expect("degraded mode completes either way")
        };
        let same = run(BuddyPlacement::SameRack);
        assert_eq!(same.ranks_lost, 4, "the whole rack went in one batch");
        assert_eq!(same.failures, 1, "one detection window, one shrink");
        assert_eq!(same.global_restores, 1);
        assert_eq!(same.buddy_restores, 0);
        let cross = run(BuddyPlacement::PartnerRack);
        assert_eq!(cross.ranks_lost, 4);
        assert_eq!(cross.buddy_restores, 1, "partner-rack copies survived");
        assert_eq!(cross.global_restores, 0);
        assert!(
            cross.redone_iters <= same.redone_iters,
            "cross-rack buddies can only shorten the rollback"
        );
        assert_eq!(cross.survivors, 4);
    }

    #[test]
    fn degraded_mode_completes_where_abort_mode_loses() {
        let app = MiniApp { iterations: 12, ..MiniApp::hpccg() };
        let kill = rack_kill(1, Cycles::from_ms(1600));
        let abort = {
            let mut c = domain_cluster(OsVariant::McKernel, 8, 4, Some(kill));
            run_resilient(
                &mut c,
                &app,
                RecoveryPolicy::Hierarchical(HierarchicalCkpt {
                    degraded: false,
                    ..HierarchicalCkpt::paper_default()
                }),
                &RecoveryCosts::default(),
                Cycles::from_ms(1),
            )
        };
        assert!(abort.is_err(), "abort mode surfaces the failure");
        let mut c = domain_cluster(OsVariant::McKernel, 8, 4, Some(kill));
        let deg = run_resilient(
            &mut c,
            &app,
            RecoveryPolicy::Hierarchical(HierarchicalCkpt::paper_default()),
            &RecoveryCosts::default(),
            Cycles::from_ms(1),
        )
        .expect("survivors finish at half width");
        assert_eq!(deg.survivors, 4);
        // The dead rack was torn down; the surviving rack was not.
        assert!((4..8).all(|n| !c.host.nodes[n].alive));
        assert!((0..4).all(|n| c.host.nodes[n].alive));
    }

    #[test]
    fn batch_loss_shrinks_once_where_blocking_pays_per_victim() {
        // The blocking-coordinated policy discovers a rack kill one
        // victim at a time (a rollback per rank); the hierarchical
        // policy drains the whole batch in one detection window.
        let app = MiniApp { iterations: 12, ..MiniApp::hpccg() };
        let kill = rack_kill(1, Cycles::from_ms(1600));
        let mut c = domain_cluster(OsVariant::McKernel, 8, 4, Some(kill));
        let blocking = run_resilient(
            &mut c,
            &app,
            RecoveryPolicy::CheckpointRestart { interval: 6 },
            &RecoveryCosts::default(),
            Cycles::from_ms(1),
        )
        .expect("blocking policy also completes");
        assert_eq!(blocking.ranks_lost, 4);
        assert!(blocking.failures >= 2, "per-victim detection windows");
        let mut c = domain_cluster(OsVariant::McKernel, 8, 4, Some(kill));
        let hier = run_resilient(
            &mut c,
            &app,
            RecoveryPolicy::Hierarchical(HierarchicalCkpt::paper_default()),
            &RecoveryCosts::default(),
            Cycles::from_ms(1),
        )
        .expect("hierarchical completes");
        assert_eq!(hier.failures, 1);
        assert!(
            hier.redone_iters < blocking.redone_iters,
            "buddy restore ({}) must roll back strictly less than blocking ({})",
            hier.redone_iters,
            blocking.redone_iters
        );
    }

    #[test]
    fn every_policy_terminates_under_in_flight_crash() {
        // AfterSends trigger: the node dies mid-protocol rather than at
        // a tidy time boundary.
        for policy in [
            RecoveryPolicy::Abort,
            RecoveryPolicy::ShrinkAndRedo,
            RecoveryPolicy::CheckpointRestart { interval: 3 },
            RecoveryPolicy::Hierarchical(HierarchicalCkpt::paper_default()),
        ] {
            let mut cfg = ClusterConfig::paper(OsVariant::LinuxCgroup)
                .with_nodes(4)
                .with_seed(7);
            cfg.horizon_secs = 30;
            cfg = cfg.with_node_crash(2, CrashTrigger::AfterSends(40));
            let mut c = Cluster::build(cfg);
            let res = run_resilient(
                &mut c,
                &short_app(),
                policy,
                &RecoveryCosts::default(),
                Cycles::from_ms(1),
            );
            match (policy, res) {
                (RecoveryPolicy::Abort, Err(f)) => assert_eq!(f.rank, 2),
                (RecoveryPolicy::Abort, Ok(_)) => panic!("abort must surface the failure"),
                (_, Ok(rep)) => {
                    assert_eq!(rep.survivors, 3);
                    assert_eq!(rep.failures, 1);
                }
                (p, Err(f)) => panic!("{p:?} must complete, got {f}"),
            }
        }
    }
}
