//! Elastic multi-tenant serving: SLO-driven online LWK/Linux resizing
//! under a latency-sensitive request stream co-located with gang-
//! scheduled MPI jobs (`cluster::tenancy`, DESIGN.md D15).
//!
//! Not a figure from the paper — the paper partitions once at boot —
//! but the serving story its reserve-without-reboot mechanism enables:
//! LibrettOS-style dynamic adaptation of the LWK/Linux boundary to the
//! workload mix. Four profiles on the same cluster:
//!
//! * `idle`     — request stream alone at nominal load; the SLO
//!   controller sits in its dead band and never resizes;
//! * `coloc`    — two gang jobs ride the LWK cores (the high-priority
//!   one preempts the low via checkpoint rollback) while the stream
//!   serves beside them; p99 is gated against idle;
//! * `overload` — 2x admission rate; bounded admission sheds the
//!   excess (p999 hits the shed ceiling, p50 barely moves) and the
//!   breached SLO shrinks the LWK online for serving relief;
//! * `storm`    — a forced resize every window (100+ reserve/release
//!   cycles at the default length) with a width-pinned job that is
//!   evicted and resumed on every cycle; proves no request is lost,
//!   no job corrupted, and every released core fully reclaimed.
//!
//! Every number is simulated time — deterministic at any
//! `HLWK_THREADS` — so `--check` compares the committed
//! `BENCH_serve.json` exactly. Claims asserted in every mode:
//!
//! 1. conservation: every profile's arrivals == completed + shed;
//! 2. idle never resizes and sheds only a tail-trim fraction (<1%);
//!    overload stays within 1.5x of idle p50 throughout, sheds in
//!    bulk and degrades p999 above idle while saturated (pre-shrink),
//!    then >=1 SLO shrink restores the tail to idle-like levels;
//! 3. co-location keeps p99 within 1.5x of idle;
//! 4. both coloc jobs finish with byte-identical digests across >=1
//!    priority preemption;
//! 5. the storm completes its resize cycles (at least windows/2 - 2,
//!    and at least 100 at full length) with zero lost requests, the
//!    job resumed to a byte-identical digest, and every released core
//!    audited clean.
//!
//! Knobs: `HLWK_SERVE_NODES`, `HLWK_SERVE_WINDOWS`, `HLWK_SERVE_SEED`
//! (defaults match the committed baseline), `HLWK_BENCH_OUT`.
//! `--soak N` reruns the storm profile under N extra seeds.

use bench::{header, serve_nodes, serve_seed, serve_windows};
use cluster::{run_tenancy, Cluster, ClusterConfig, JobSpec, OsVariant, TenancyConfig, TenancyReport};
use simcore::{par, Cycles};
use workloads::miniapps::{IterComm, MiniApp};

#[derive(Clone, Copy, PartialEq)]
enum Profile {
    Idle,
    Coloc,
    Overload,
    Storm,
}

const PROFILES: [Profile; 4] = [Profile::Idle, Profile::Coloc, Profile::Overload, Profile::Storm];

impl Profile {
    fn label(self) -> &'static str {
        match self {
            Profile::Idle => "idle",
            Profile::Coloc => "coloc",
            Profile::Overload => "overload",
            Profile::Storm => "storm",
        }
    }
}

/// A small BSP gang: ~1 ms iterations so several fit per 10 ms window.
fn gang(priority: u8, arrive_window: u32, min_width: usize, iterations: u32) -> JobSpec {
    JobSpec {
        name: "gang",
        priority,
        arrive_window,
        min_width,
        app: MiniApp {
            iterations,
            work_per_iter: Cycles::from_ms(8),
            comm: IterComm {
                allreduces: vec![8],
                allgathers: vec![],
                halo_bytes: Some(4 << 10),
            },
            ..MiniApp::hpccg()
        },
    }
}

fn scenario(profile: Profile, seed: u64) -> TenancyConfig {
    let mut cfg = TenancyConfig::serving_default(serve_windows(), seed);
    // Hold the total baseline pool at the tuned 8-server operating
    // point (~56% utilization, pooled variance included) for any
    // HLWK_SERVE_NODES by scaling servers-per-node inversely: the
    // serving plane's dynamics are then identical at any node count
    // and only the elastic gain per shrink (one core per node) varies.
    cfg.base_serve_cores = (8 / serve_nodes()).max(1);
    match profile {
        Profile::Idle => {}
        Profile::Coloc => {
            // Low-priority long job from the start; a high-priority
            // short job lands on top of it and preempts.
            cfg.jobs = vec![gang(1, 0, 6, 64), gang(5, 2, 6, 16)];
        }
        Profile::Overload => {
            cfg.overload_x = 2.0;
        }
        Profile::Storm => {
            // Width-pinned gang: every shrink to lwk_min evicts it,
            // every grow resumes it from checkpoint.
            cfg.storm_period = Some(1);
            cfg.lwk_min = 8;
            cfg.jobs = vec![gang(1, 0, 9, 64)];
        }
    }
    cfg
}

fn run_profile(profile: Profile, seed: u64) -> TenancyReport {
    let mut ccfg = ClusterConfig::paper(OsVariant::McKernel)
        .with_nodes(serve_nodes())
        .with_seed(seed);
    ccfg.horizon_secs = 30;
    let mut cluster = Cluster::build(ccfg);
    run_tenancy(&mut cluster, &scenario(profile, seed))
}

/// Round to the precision `to_json` prints, so fresh runs compare
/// exactly against a parsed baseline.
fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

fn collect() -> Vec<(String, f64)> {
    let reports: Vec<TenancyReport> =
        par::parallel_map(PROFILES.len(), |i| run_profile(PROFILES[i], serve_seed()));

    println!(
        "{:>9} {:>9} {:>9} {:>7} {:>8} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6} {:>5} {:>5}",
        "profile", "arrivals", "served", "shed", "p50us", "p99us", "p999us", "maxus", "shrink",
        "grow", "preempt", "jobs", "width"
    );
    for (p, r) in PROFILES.iter().zip(&reports) {
        println!(
            "{:>9} {:>9} {:>9} {:>7} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>6} {:>6} {:>6} {:>5} {:>5}",
            p.label(),
            r.arrivals,
            r.completed,
            r.shed,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            r.max_us,
            r.shrinks,
            r.grows,
            r.preemptions,
            r.jobs_done,
            r.final_width,
        );
    }

    let mut metrics = Vec::new();
    for (p, r) in PROFILES.iter().zip(&reports) {
        let l = p.label();
        metrics.push((format!("{l}_arrivals"), r.arrivals as f64));
        metrics.push((format!("{l}_completed"), r.completed as f64));
        metrics.push((format!("{l}_shed"), r.shed as f64));
        metrics.push((format!("{l}_p50_us"), round4(r.p50_us)));
        metrics.push((format!("{l}_p99_us"), round4(r.p99_us)));
        metrics.push((format!("{l}_worst_p99_us"), round4(r.worst_p99_us)));
        metrics.push((format!("{l}_p999_us"), round4(r.p999_us)));
        metrics.push((format!("{l}_max_us"), round4(r.max_us)));
        metrics.push((format!("{l}_shrinks"), f64::from(r.shrinks)));
        metrics.push((format!("{l}_grows"), f64::from(r.grows)));
        metrics.push((format!("{l}_min_width"), r.min_width as f64));
    }
    let storm = &reports[3];
    let coloc = &reports[1];
    let over = &reports[2];
    metrics.push(("overload_pre_arrivals".into(), over.pre_relief_arrivals as f64));
    metrics.push(("overload_pre_shed".into(), over.pre_relief_shed as f64));
    metrics.push(("overload_pre_p999_us".into(), round4(over.pre_relief_p999_us)));
    metrics.push(("overload_post_p999_us".into(), round4(over.post_relief_p999_us)));
    metrics.push(("storm_resize_cycles".into(), f64::from(storm.resize_cycles)));
    metrics.push(("storm_cores_audited".into(), f64::from(storm.cores_audited)));
    metrics.push(("storm_preemptions".into(), f64::from(storm.preemptions)));
    metrics.push(("storm_resumes".into(), f64::from(storm.resumes)));
    metrics.push(("storm_redone_iters".into(), f64::from(storm.redone_iters)));
    metrics.push(("storm_jobs_done".into(), f64::from(storm.jobs_done)));
    metrics.push(("storm_digests_ok".into(), f64::from(u8::from(storm.digests_ok))));
    metrics.push(("coloc_preemptions".into(), f64::from(coloc.preemptions)));
    metrics.push(("coloc_jobs_done".into(), f64::from(coloc.jobs_done)));
    metrics.push(("coloc_digests_ok".into(), f64::from(u8::from(coloc.digests_ok))));
    metrics
}

fn find(metrics: &[(String, f64)], k: &str) -> f64 {
    metrics.iter().find(|(mk, _)| mk == k).expect("present").1
}

/// The acceptance claims, enforced in every mode. Returns true if any
/// failed.
fn assert_claims(metrics: &[(String, f64)]) -> bool {
    let mut failed = false;
    let mut claim = |ok: bool, msg: &str| {
        if !ok {
            eprintln!("CLAIM VIOLATION: {msg}");
            failed = true;
        }
    };

    // 1. Loss-free serving: conservation in every profile.
    for p in PROFILES {
        let l = p.label();
        let lost = find(metrics, &format!("{l}_arrivals"))
            - find(metrics, &format!("{l}_completed"))
            - find(metrics, &format!("{l}_shed"));
        claim(lost == 0.0, &format!("{l}: {lost} requests lost"));
    }

    // 2. Idle never resizes; overload sheds, stays within 1.5x of idle
    //    p50, degrades the tail, and gets elastic relief.
    claim(find(metrics, "idle_shrinks") == 0.0, "idle profile resized");
    // Bounded admission trims the extreme tail even at nominal load
    // (that is what "p999 degrades first" means); idle shed must stay
    // a tail-trim fraction while saturated overload sheds in bulk.
    let idle_frac = find(metrics, "idle_shed") / find(metrics, "idle_arrivals");
    claim(
        idle_frac < 0.01,
        &format!("idle shed {:.2}% of arrivals, above 1%", idle_frac * 100.0),
    );
    claim(find(metrics, "overload_shed") > 0.0, "2x overload did not shed");
    // Degradation and relief are phases of the same overload run: the
    // pre-shrink pool is saturated (bulk shed, tail pinned at the
    // admission ceiling), the post-shrink pool has the released LWK
    // cores and restores the tail to idle-like levels.
    let pre_frac = find(metrics, "overload_pre_shed") / find(metrics, "overload_pre_arrivals");
    claim(
        pre_frac > 2.0 * idle_frac.max(0.001),
        &format!(
            "saturated overload shed only {:.2}% (idle {:.2}%)",
            pre_frac * 100.0,
            idle_frac * 100.0
        ),
    );
    let p50_ratio = find(metrics, "overload_p50_us") / find(metrics, "idle_p50_us");
    claim(
        p50_ratio <= 1.5,
        &format!("overload p50 {p50_ratio:.3}x idle, above 1.5x"),
    );
    claim(
        find(metrics, "overload_pre_p999_us") > find(metrics, "idle_p999_us"),
        "saturated overload did not degrade p999 above idle",
    );
    claim(
        find(metrics, "overload_shrinks") >= 1.0,
        "overload SLO breach triggered no elastic shrink",
    );
    claim(
        find(metrics, "overload_post_p999_us") <= 1.25 * find(metrics, "idle_p999_us"),
        "elastic relief did not restore the overload tail",
    );

    // 3. Co-location isolation floor. Simulated time, so this is
    //    deterministic at any pool size — no wall-clock caveat.
    let p99_ratio = find(metrics, "coloc_p99_us") / find(metrics, "idle_p99_us");
    claim(
        p99_ratio <= 1.5,
        &format!("coloc p99 {p99_ratio:.3}x idle, above 1.5x"),
    );

    // 4. Preempted jobs finish with byte-identical results.
    claim(find(metrics, "coloc_preemptions") >= 1.0, "coloc saw no priority preemption");
    claim(find(metrics, "coloc_jobs_done") == 2.0, "coloc jobs did not finish");
    claim(find(metrics, "coloc_digests_ok") == 1.0, "coloc digest mismatch");

    // 5. The resize storm: cycle floor, reclaim audit, job survival.
    let windows = f64::from(serve_windows());
    let cycles = find(metrics, "storm_resize_cycles");
    claim(
        cycles >= windows / 2.0 - 2.0,
        &format!("storm completed {cycles} cycles, below floor"),
    );
    if serve_windows() >= 240 {
        claim(cycles >= 100.0, &format!("storm cycles {cycles} < 100 at full length"));
    }
    claim(
        find(metrics, "storm_cores_audited")
            == find(metrics, "storm_shrinks") * f64::from(serve_nodes()),
        "a released core skipped the reclaim audit",
    );
    claim(find(metrics, "storm_preemptions") >= 1.0, "storm never evicted the gang");
    claim(find(metrics, "storm_resumes") >= 1.0, "storm never resumed the gang");
    claim(find(metrics, "storm_jobs_done") == 1.0, "storm lost the gang job");
    claim(find(metrics, "storm_digests_ok") == 1.0, "storm corrupted the gang job");
    failed
}

fn to_json(metrics: &[(String, f64)]) -> String {
    let mut out = String::from("{\n  \"bench\": \"fig_serve\",\n  \"metrics\": {\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("    \"{k}\": {v:.4}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    if let Some(i) = args.iter().position(|a| a == "--soak") {
        let seeds: u64 = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--soak needs a seed count");
        for s in 0..seeds {
            let seed = serve_seed() ^ (0x9E37_79B9 * (s + 1));
            let rep = run_profile(Profile::Storm, seed);
            let lost = rep.arrivals - rep.completed - rep.shed;
            let ok = lost == 0
                && rep.digests_ok
                && rep.jobs_done == 1
                && rep.cores_audited == rep.shrinks * serve_nodes();
            println!(
                "soak seed {seed:#x}: {} cycles, {} preemptions, lost {lost}, {}",
                rep.resize_cycles,
                rep.preemptions,
                if ok { "ok" } else { "FAILED" }
            );
            if !ok {
                std::process::exit(1);
            }
        }
        println!("serve soak passed ({seeds} seeds)");
        return;
    }

    header(&format!(
        "Elastic tenancy — {} nodes, {} x 10 ms windows per profile",
        serve_nodes(),
        serve_windows()
    ));
    let metrics = collect();
    println!();
    for (k, v) in &metrics {
        println!("{k:>24}: {v:10.4}");
    }
    let mut failed = assert_claims(&metrics);

    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).expect("--check needs a baseline path");
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let base = bench::parse_metrics(&baseline);
        for (k, v) in &metrics {
            match base.iter().find(|(bk, _)| bk == k) {
                // Simulated time is deterministic: any drift at printed
                // precision is a real behavior change, not noise.
                Some((_, bv)) if (v - bv).abs() > 1e-9 => {
                    eprintln!("DETERMINISM REGRESSION: {k} = {v:.4} vs baseline {bv:.4}");
                    failed = true;
                }
                Some(_) => {}
                None => eprintln!("warning: baseline is missing metric {k}"),
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("serve check passed (exact match vs {path}; all claims hold)");
        return;
    }

    if failed {
        std::process::exit(1);
    }
    let out = std::env::var("HLWK_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&out, to_json(&metrics)).expect("write benchmark output");
    println!("wrote {out}");
}
