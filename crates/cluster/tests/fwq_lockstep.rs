//! FWQ's fast-forward against one `execute` per quantum.
//!
//! `fwq::run_for` appends the quanta a runtime promises are quiet
//! (`quiet_until`) without executing them. Each test drives one copy of
//! a runtime through `run_for` and an identical copy through the
//! per-quantum loop below, and compares the samples one for one.

use cluster::{Cluster, ClusterConfig, OsVariant};
use hwmodel::cpu::CoreId;
use linuxsim::daemons::DaemonSource;
use linuxsim::occupancy::CoreOccupancy;
use linuxsim::runtime::LinuxCoreRuntime;
use linuxsim::tick::TickSource;
use simcore::{Cycles, StreamRng};
use workloads::fwq;

/// FWQ with no fast-forward: every quantum runs through `exec`.
fn per_quantum(
    duration: Cycles,
    start: Cycles,
    mut exec: impl FnMut(Cycles, Cycles) -> Cycles,
) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = start;
    while t < start + duration {
        let done = exec(t, fwq::DEFAULT_QUANTUM);
        out.push((done - t).raw());
        t = done;
    }
    out
}

/// A core of the given shape, built afresh from `seed` on each call.
fn runtime(seed: u64, shape: &str, activity: f64) -> LinuxCoreRuntime {
    let rng = StreamRng::root(seed).stream("core", 0);
    let daemons = || {
        DaemonSource::standard_set(&rng)
            .into_iter()
            .map(|d| d.with_activity(activity))
            .collect()
    };
    let tick = || Some(TickSource::hz1000(rng.stream("tick", 0)));
    let exec = rng.stream("exec", 0);
    match shape {
        // The three Linux rows of `fig_ablation_sched`.
        "ticks + daemons" => LinuxCoreRuntime::with_rng(CoreId(0), tick(), daemons(), exec),
        "tickless" => LinuxCoreRuntime::with_rng(CoreId(0), None, daemons(), exec),
        "ticks only" => LinuxCoreRuntime::with_rng(CoreId(0), tick(), Vec::new(), exec),
        // Phase-gated IRQ pressure, as a co-located job adds: gated
        // arrivals bound the quiet stretch, ungated positions must not.
        "gated IRQs" => {
            let mut rt = LinuxCoreRuntime::with_rng(CoreId(0), tick(), daemons(), exec);
            let phases = (0..12)
                .map(|k| (Cycles::from_ms(7 * k + 2), Cycles::from_ms(7 * k + 5)))
                .collect();
            rt.push_daemon(
                DaemonSource::eth_irq(rng.stream("eth", 0))
                    .with_activity(20.0 * activity)
                    .with_windows(phases),
            );
            rt
        }
        _ => unreachable!("unknown shape {shape}"),
    }
}

/// Competitors on core 0 over a few stretches of the first 60 ms,
/// touching and overlapping, as the in-situ job registers them.
fn busy_core() -> CoreOccupancy {
    let mut occ = CoreOccupancy::new();
    for (from_us, to_us, tasks) in [
        (3_000, 9_000, 15),
        (9_000, 9_500, 2),
        (21_000, 33_000, 1),
        (30_000, 31_000, 4),
        (47_000, 47_004, 3),
    ] {
        occ.add_load(
            CoreId(0),
            Cycles::from_us(from_us),
            Cycles::from_us(to_us),
            tasks,
        );
    }
    occ.seal();
    occ
}

#[test]
fn fast_forward_matches_one_execute_per_quantum() {
    let duration = Cycles::from_ms(60);
    let start = Cycles(1);
    let mut idle = CoreOccupancy::new();
    idle.seal();
    let busy = busy_core();
    let mut runs = 0;
    for seed in [0xA4, 0x5eed] {
        for activity in [1.0, 40.0] {
            for shape in ["ticks + daemons", "tickless", "ticks only", "gated IRQs"] {
                for (occ, load) in [(&idle, "idle"), (&busy, "busy")] {
                    let mut ff = runtime(seed, shape, activity);
                    let mut calls = 0u64;
                    let fast = fwq::run_for(fwq::DEFAULT_QUANTUM, duration, start, |at, w| {
                        calls += 1;
                        let done = ff.execute(at, w, occ).finish;
                        (done, ff.quiet_until(done, occ))
                    });
                    let mut rt = runtime(seed, shape, activity);
                    let want = per_quantum(duration, start, |at, w| rt.execute(at, w, occ).finish);
                    let at = (0..want.len()).find(|&i| fast.get(i) != Some(&want[i]));
                    assert_eq!(
                        (fast.len(), at),
                        (want.len(), None),
                        "seed {seed:#x} activity {activity} {shape} on an {load} core"
                    );
                    assert!(
                        want.iter().any(|&s| s > fwq::DEFAULT_QUANTUM.raw()),
                        "{shape}: no quantum was interrupted"
                    );
                    if load == "idle" {
                        assert!(calls * 20 < want.len() as u64, "{shape}: {calls} calls");
                    }
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 32);
}

#[test]
fn a_standard_core_executes_once_per_interruption() {
    // The deterministic counterpart of FWQ's host-time claim: a 20 ms
    // run calls `execute` at most once per tick, per daemon arrival and
    // per 10 ms daemon epoch it crosses, plus once to start.
    let epoch = Cycles::from_ms(10);
    for seed in 0..8u64 {
        let rng = StreamRng::root(seed).stream("core", 0);
        let tick = TickSource::hz1000(rng.stream("tick", 0));
        let daemons = DaemonSource::standard_set(&rng);
        let mut rt = LinuxCoreRuntime::with_rng(
            CoreId(0),
            Some(tick.clone()),
            daemons.clone(),
            rng.stream("exec", 0),
        );
        let mut occ = CoreOccupancy::new();
        occ.seal();
        let start = Cycles::from_us(1);
        let mut calls = 0u64;
        let samples = fwq::run_for(fwq::DEFAULT_QUANTUM, Cycles::from_ms(20), start, |at, w| {
            calls += 1;
            let done = rt.execute(at, w, &occ).finish;
            (done, rt.quiet_until(done, &occ))
        });
        let end = start + Cycles(samples.iter().sum());
        let ticks = tick.interruptions_in(start, end).len() as u64;
        let epochs = start.raw() / epoch.raw()..end.raw().div_ceil(epoch.raw());
        // A whole-epoch window keeps every arrival the epoch draws.
        let arrivals: u64 = daemons
            .iter()
            .flat_map(|d| epochs.clone().map(move |e| (d, e)))
            .map(|(d, e)| d.interruptions_in(epoch * e, epoch * (e + 1)).len() as u64)
            .sum();
        let bound = ticks + arrivals + (epochs.end - epochs.start) + 1;
        assert!(
            calls <= bound,
            "seed {seed}: {calls} calls for {} quanta, bound {bound}",
            samples.len()
        );
        assert!(samples.len() > 13_000, "{} quanta", samples.len());
    }
}

#[test]
fn cluster_fwq_matches_one_execute_per_quantum() {
    let duration = Cycles::from_ms(40);
    let mut contended = 0;
    for seed in [0xF165, 7] {
        for os in OsVariant::all() {
            for insitu in [false, true] {
                let build = || {
                    let mut cfg = ClusterConfig::paper(os).with_nodes(1).with_seed(seed);
                    cfg.insitu = insitu;
                    cfg.horizon_secs = 60;
                    Cluster::build(cfg)
                };
                let mut c = build();
                // In situ, start 10 ms before the job's tasks first reach
                // the FWQ core or, where they never do, inside its first
                // busy phase, where the gated IRQs fire.
                let node = &c.host.nodes[0];
                let core = node.app_cores[0];
                let start = (0..60_000)
                    .map(Cycles::from_ms)
                    .find(|&t| node.linux.occupancy.competitors_at(core, t) > 0)
                    .map(|t| t.saturating_sub(Cycles::from_ms(10)))
                    .or(node.busy_phases.first().map(|&(a, b)| a.midpoint(b)))
                    .unwrap_or(Cycles::from_us(1));
                let fast = c.fwq(fwq::DEFAULT_QUANTUM, duration, start);

                let mut r = build();
                let node = &mut r.host.nodes[0];
                node.mem_intensity = 0.0;
                let core = node.app_cores[0];
                let mut with_competitors = 0;
                let want = per_quantum(duration, start, |at, w| {
                    if os != OsVariant::McKernel {
                        with_competitors +=
                            u32::from(node.linux.occupancy.competitors_at(core, at) > 0);
                    }
                    node.exec_app_thread(0, at, w)
                });
                assert_eq!(fast, want, "seed {seed:#x} {os:?} insitu {insitu}");
                contended += u32::from(with_competitors > 0);
            }
        }
    }
    // The cgroup-only in-situ runs put the job's tasks on the FWQ core.
    assert!(contended >= 2, "{contended} runs met competitors");
}
