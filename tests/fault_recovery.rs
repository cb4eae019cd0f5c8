//! Fault-injection integration tests: determinism of the fault schedule
//! under a fixed seed, recovery of the offload path under loss and
//! corruption, and liveness under proxy death (bounded -EIO, full
//! partition reclamation, no hangs).

use cluster::{node::NodeRuntime, ClusterConfig, OsVariant};
use hlwk_core::abi::{Errno, Sysno};
use hwmodel::cpu::{CoreId, NumaId};
use simcore::fault::FaultConfig;
use simcore::{Cycles, StreamRng};

const EIO: i64 = -(Errno::EIO as i64);

fn mck_node(seed: u64, faults: FaultConfig) -> NodeRuntime {
    let mut cfg = ClusterConfig::paper(OsVariant::McKernel)
        .with_nodes(1)
        .with_seed(seed)
        .with_faults(faults);
    cfg.horizon_secs = 5;
    NodeRuntime::build(&cfg, 0, &StreamRng::root(seed))
}

/// Drive a fixed offload workload; returns (rets, completion instants).
fn run_workload(node: &mut NodeRuntime, count: u64) -> (Vec<i64>, Vec<Cycles>) {
    let mut rets = Vec::new();
    let mut dones = Vec::new();
    let mut at = Cycles::from_ms(1);
    for i in 0..count {
        let len = 64 + (i % 4) * 64;
        let (ret, done) =
            node.offload_syscall(Sysno::GetRandom, [node.arena_va.raw(), len, 0, 0, 0, 0], at);
        rets.push(ret);
        dones.push(done);
        at = done + Cycles::from_us(10);
    }
    (rets, dones)
}

/// Same seed, same config, run twice: the fault schedule (what was
/// injected, when, on which leg), the retry counts, and every result and
/// completion instant must be byte-identical.
#[test]
fn fault_schedule_is_deterministic() {
    let cfg = FaultConfig::message_loss(0.15)
        .with_corruption(0.1)
        .with_delay(0.2, 5_000.0);
    let mut a = mck_node(0xFA_17, cfg);
    let mut b = mck_node(0xFA_17, cfg);
    let (rets_a, dones_a) = run_workload(&mut a, 40);
    let (rets_b, dones_b) = run_workload(&mut b, 40);
    assert_eq!(rets_a, rets_b);
    assert_eq!(dones_a, dones_b);
    assert_eq!(a.faults.fingerprint(), b.faults.fingerprint());
    assert_eq!(a.faults.counts(), b.faults.counts());
    assert_eq!(a.offload_retries, b.offload_retries);
    assert_eq!(a.nacks, b.nacks);
    assert!(
        !a.faults.log().is_empty(),
        "at those rates the plan must have fired"
    );
    // A different seed produces a different schedule (the plan draws from
    // its own stream, not a shared one).
    let mut c = mck_node(0xFA_18, cfg);
    let _ = run_workload(&mut c, 40);
    assert_ne!(a.faults.fingerprint(), c.faults.fingerprint());
}

/// With the plan disabled nothing is drawn and nothing is logged — the
/// fault-free path stays bit-identical to the seed behavior.
#[test]
fn disabled_plan_is_inert() {
    let mut n = mck_node(7, FaultConfig::off());
    let (rets, _) = run_workload(&mut n, 10);
    assert!(rets.iter().all(|&r| r > 0));
    assert!(n.faults.log().is_empty());
    assert_eq!(n.offload_retries, 0);
    assert_eq!(n.nacks, 0);
    assert_eq!(n.offload_eio, 0);
}

/// Message loss and corruption are masked by timeouts, NACKs and
/// retransmission: every offload still returns the right result, and the
/// dedup machinery guarantees none executed twice.
#[test]
fn loss_and_corruption_are_recovered() {
    let cfg = FaultConfig::message_loss(0.2).with_corruption(0.15);
    let mut n = mck_node(99, cfg);
    // A generous retry budget: with ~54% per-attempt failure here, the
    // default 8 attempts would occasionally exhaust (which is the correct
    // degradation — but this test is about full recovery).
    n.retry.max_attempts = 24;
    let before = n.linux.offloads_serviced;
    let (rets, _) = run_workload(&mut n, 30);
    for (i, ret) in rets.iter().enumerate() {
        let expected = 64 + (i as i64 % 4) * 64;
        assert_eq!(*ret, expected, "offload {i} must survive the faults");
    }
    assert!(n.offload_retries > 0, "at 20% loss retries must happen");
    let (drops, corruptions, ..) = n.faults.counts();
    assert!(drops + corruptions > 0);
    // Dedup: each of the 30 getrandom calls was serviced exactly once —
    // retransmits were answered from the completed cache, never re-run.
    let serviced = n.linux.offloads_serviced - before;
    assert_eq!(serviced, 30, "no duplicate execution under retransmission");
}

/// Proxy death: stranded offloads come back as -EIO within the heartbeat
/// detection bound, nothing hangs, and the partition (cores, memory,
/// tracking objects) is fully reclaimed — reusable immediately.
#[test]
fn proxy_death_liveness_and_reclamation() {
    // The crash fires on the first steady-state offload.
    let mut n = mck_node(5, FaultConfig::off().with_proxy_crash_at(1));
    let at = Cycles::from_ms(1);
    let (ret, done) = n.offload_syscall(Sysno::GetRandom, [n.arena_va.raw(), 64, 0, 0, 0, 0], at);
    assert_eq!(ret, EIO, "stranded offload fails with -EIO, not a hang");
    let hb_bound = Cycles::from_us(300); // paper_default: 100us x 3 misses
    assert!(
        done - at <= hb_bound + Cycles::from_us(100),
        "detection + recovery within the heartbeat bound: took {}",
        done - at
    );
    // The LWK application was SIGKILLed and the partition reclaimed.
    assert!(!n.proxy_alive);
    assert!(n.mck.is_none(), "LWK instance torn down");
    assert!(n.proxy_pid.is_none());
    let ihk = n.ihk.as_mut().expect("manager survives");
    assert_eq!(
        ihk.linux_cores().len(),
        20,
        "all cores returned to Linux (9 LWK + proxy + 10 NUMA-0)"
    );
    assert_eq!(n.linux.delegator.tracking_count(), 0, "tracking reclaimed");
    assert_eq!(n.linux.delegator.in_flight(), 0, "no stranded requests");
    // Memory came back too: the same partition can be created again.
    let again = ihk.create_os(
        &mut n.hw.mem,
        &(10..19).map(CoreId).collect::<Vec<_>>(),
        NumaId(1),
        16 << 30,
    );
    assert!(again.is_ok(), "partition is immediately reusable: {again:?}");
    // Subsequent offloads fast-fail instead of touching dead machinery.
    let (ret2, done2) =
        n.offload_syscall(Sysno::GetRandom, [n.arena_va.raw(), 64, 0, 0, 0, 0], done);
    assert_eq!(ret2, EIO);
    assert!(done2 - done < Cycles::from_us(1), "fast fail, no timeout wait");
    assert_eq!(n.offload_eio, 2);
}

/// External injection entry point: killing the proxy mid-burst answers
/// every in-flight request and leaves the node in the same safe state.
#[test]
fn injected_proxy_death_reports_stranded_requests() {
    let mut n = mck_node(11, FaultConfig::off());
    let (rets, dones) = run_workload(&mut n, 3);
    assert!(rets.iter().all(|&r| r > 0));
    let stranded = n
        .inject_proxy_death(dones[2] + Cycles::from_us(5))
        .expect("first injection succeeds");
    assert_eq!(stranded, 0, "synchronous workload leaves nothing in flight");
    assert!(!n.proxy_alive);
    // Idempotent: a second injection is a no-op.
    assert_eq!(n.inject_proxy_death(Cycles::from_ms(50)), None);
}

/// Back-pressure (queue-full) and delegator stalls delay but never lose
/// offloads.
#[test]
fn backpressure_and_stalls_only_delay() {
    let cfg = FaultConfig::off()
        .with_backpressure(0.2, 2)
        .with_stalls(0.3, 20_000.0);
    let mut n = mck_node(23, cfg);
    let (rets, _) = run_workload(&mut n, 20);
    for (i, ret) in rets.iter().enumerate() {
        let expected = 64 + (i as i64 % 4) * 64;
        assert_eq!(*ret, expected);
    }
    let (_, _, _, queue_fulls, stalls, _) = n.faults.counts();
    assert!(queue_fulls + stalls > 0, "the knobs must have fired");
}
