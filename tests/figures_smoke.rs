//! Reduced-scale shape checks for every figure of the evaluation — the
//! same code paths the bench binaries drive, small enough for `cargo
//! test`. Each test asserts the *qualitative* claim of its figure.

use cluster::experiment::run_seed;
use cluster::{Cluster, ClusterConfig, OsVariant};
use simcore::{par, Cycles, Summary};
use workloads::fwq;
use workloads::miniapps::MiniApp;
use workloads::osu::{Collective, OsuConfig};

fn cluster(os: OsVariant, nodes: u32, insitu: bool, seed: u64) -> Cluster {
    let mut cfg = ClusterConfig::paper(os).with_nodes(nodes).with_seed(seed);
    cfg.insitu = insitu;
    cfg.horizon_secs = 30;
    Cluster::build(cfg)
}

/// Fig. 5: McKernel FWQ is flat with and without Hadoop; Linux is not;
/// cgroup-only under Hadoop is the worst.
#[test]
fn fig5_shape() {
    let quantum = fwq::DEFAULT_QUANTUM;
    let dur = Cycles::from_secs(2);
    let run = |os, insitu, seed| {
        let mut c = cluster(os, 1, insitu, seed);
        let samples = c.fwq(quantum, dur, Cycles::from_us(1));
        let worst = fwq::worst_window(&samples, fwq::WINDOW);
        Summary::from_samples(&worst.iter().map(|&x| x as f64).collect::<Vec<_>>())
    };
    let mck = run(OsVariant::McKernel, false, 1);
    assert_eq!(mck.max, quantum.raw() as f64, "LWK: virtually constant");
    let mck_hadoop = run(OsVariant::McKernel, true, 1);
    assert_eq!(mck_hadoop.max, quantum.raw() as f64, "no disturbance at all");
    let linux = run(OsVariant::LinuxCgroup, false, 1);
    assert!(linux.max > quantum.raw() as f64, "idle Linux still ticks");
    // Worst case under Hadoop across a few seeds: cgroup >> idle Linux.
    let worst_cgroup_hadoop = (1..=4)
        .map(|s| run(OsVariant::LinuxCgroup, true, s).max)
        .fold(0.0f64, f64::max);
    assert!(
        worst_cgroup_hadoop / quantum.raw() as f64 > 6.0,
        "cgroup+Hadoop slowdown {}",
        worst_cgroup_hadoop / quantum.raw() as f64
    );
}

/// Fig. 6: similar averages, lower variation on McKernel.
#[test]
fn fig6_shape() {
    let osu = OsuConfig {
        warmup: 5,
        iters: 6,
        iter_gap: Cycles::from_us(300),
    };
    let sweep = |os| -> Vec<f64> {
        par::parallel_map(4, |run| {
            let mut c = cluster(os, 8, false, run_seed(61, run));
            let res = c.run_osu(Collective::Allreduce, 1024, &osu, Cycles::from_ms(1)).expect("fault-free");
            res.latencies_us.iter().sum::<f64>() / res.latencies_us.len() as f64
        })
    };
    let linux = Summary::from_samples(&sweep(OsVariant::LinuxCgroup));
    let mck = Summary::from_samples(&sweep(OsVariant::McKernel));
    // Averages within ~15% of each other.
    assert!((linux.mean / mck.mean - 1.0).abs() < 0.15);
    // McKernel variation no worse than Linux.
    assert!(mck.max_variation_pct() <= linux.max_variation_pct() + 1e-9);
}

/// Fig. 7: under Hadoop, variation ordering cgroup >= isolcpus >= McKernel
/// for small messages; for large reduce McKernel exceeds isolcpus (the
/// registration-offload artifact).
#[test]
fn fig7_shape() {
    let osu = OsuConfig {
        warmup: 5,
        iters: 5,
        iter_gap: Cycles::from_us(300),
    };
    let measure = |os, bytes| {
        let vals = par::parallel_map(5, |run| {
            let mut c = cluster(os, 8, true, run_seed(71, run));
            let res = c.run_osu(Collective::Reduce, bytes, &osu, Cycles::from_ms(1)).expect("fault-free");
            res.latencies_us.iter().sum::<f64>() / res.latencies_us.len() as f64
        });
        Summary::from_samples(&vals).max_variation_pct()
    };
    // Small messages: McKernel is the quietest.
    let small_mck = measure(OsVariant::McKernel, 64);
    let small_cgroup = measure(OsVariant::LinuxCgroup, 64);
    assert!(small_mck < small_cgroup, "{small_mck} vs {small_cgroup}");
    // Large reduce: the offloaded-registration artifact makes McKernel's
    // large-message variation jump well above its own small-message noise
    // floor (at full 64-node scale it approaches/exceeds isolcpus; at this
    // reduced scale we assert the robust within-variant signature).
    let large_mck = measure(OsVariant::McKernel, 256 << 10);
    assert!(
        large_mck > 3.0 * small_mck,
        "registration artifact missing: large {large_mck}% vs small {small_mck}%"
    );
}

/// Fig. 8: McKernel outperforms Linux by percent-scale margins on plain
/// runs.
#[test]
fn fig8_shape() {
    let app = MiniApp {
        iterations: 8,
        ..MiniApp::hpccg()
    };
    let run = |os| {
        let mut c = cluster(os, 4, false, 81);
        c.run_miniapp(&app, Cycles::from_ms(1)).expect("fault-free").as_secs_f64()
    };
    let linux = run(OsVariant::LinuxCgroup);
    let mck = run(OsVariant::McKernel);
    let gain = linux / mck - 1.0;
    assert!(
        (0.005..0.10).contains(&gain),
        "McKernel gain {gain} outside the paper's 1-8% band"
    );
}

/// Fig. 9: variation ordering under Hadoop across repeated runs.
#[test]
fn fig9_shape() {
    let app = MiniApp {
        iterations: 25,
        ..MiniApp::ffvc()
    };
    let measure = |os| {
        let vals = par::parallel_map(6, |run| {
            let mut c = cluster(os, 2, true, run_seed(91, run));
            c.run_miniapp(&app, Cycles::from_ms(1)).expect("fault-free").as_secs_f64()
        });
        Summary::from_samples(&vals).max_variation_pct()
    };
    let cgroup = measure(OsVariant::LinuxCgroup);
    let iso = measure(OsVariant::LinuxCgroupIsolcpus);
    let mck = measure(OsVariant::McKernel);
    assert!(
        cgroup > iso && iso > mck,
        "isolation ordering violated: cgroup {cgroup}% isolcpus {iso}% mck {mck}%"
    );
    assert!(mck < 10.0, "McKernel stays percent-scale: {mck}%");
}
