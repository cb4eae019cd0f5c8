//! Host wall-clock benchmark of the hlwk simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//! ```
//!
//! One warm-up cycle (set-up + unit) fixes the reference digest; then
//! cycles repeat until `--seconds` have passed (at least
//! [`MIN_CYCLES`]), each one timed in two parts. Every cycle must
//! reproduce the reference digest and pass its workload's output
//! checks. The last line of standard output is one JSON object:
//!
//! * `--trace 0`: the end-to-end metrics, `unit_ms` (median host time
//!   of one unit), `unit_tail_ms` (its highest percentile with ten
//!   cycles beyond it, see [`tail`]) and `setup_s` (median host time of
//!   one set-up);
//! * `--trace 1`: the per-layer metrics, from spans recorded around
//!   every call into a simulator layer: `<layer>_ms` is the layer's
//!   median self time per cycle, plus the bypass hit ratio, the traced
//!   unit time (its excess over `unit_ms` is the tracing overhead), the
//!   cycle count and the reference kernel's raw time. `--trace-out` also
//!   writes the spans as Chrome trace-event JSON.
//!
//! Both print the cycle count on standard error.
//!
//! Every host time is rescaled to the uncontended host's speed: the
//! fixed reference kernel in [`probe`] runs before the first cycle and
//! after each one, and a cycle's times are multiplied by
//! `probe::REFERENCE_S` over the mean of the two runs around it. On a
//! shared 2-vCPU KVM guest (Xeon Sapphire Rapids), co-tenants slow the
//! simulator by 1.3-1.8x in phases lasting up to tens of seconds, which
//! moved the median of a 20 s run by up to 40%; rescaled, it moves by
//! under 10%.
//!
//! Everything runs on one thread: the simulator's worker pools are
//! expected to be pinned to one worker by the caller (`HLWK_THREADS=1`,
//! `HLWK_ENGINE_THREADS=1`), and the replay is asked for one worker.

mod probe;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Fewest measured cycles a run makes, however short `--seconds` is.
const MIN_CYCLES: usize = 5;

/// Per-layer metrics every traced run reports (0 where a workload does
/// not call the layer): span name → metric name.
const LAYERS: [(&str, &str); 12] = [
    ("build", "build_ms"),
    ("record", "record_ms"),
    ("seats", "seats_ms"),
    ("replay", "replay_ms"),
    ("resolve", "resolve_ms"),
    ("fwq", "fwq_ms"),
    ("osu", "osu_ms"),
    ("miniapp", "miniapp_ms"),
    ("walk", "walk_ms"),
    ("offload", "offload_ms"),
    ("bypass", "bypass_ms"),
    // The benchmark's own work inside a cycle: output checks, digests.
    ("cycle", "harness_ms"),
];

/// Per-unit counts every traced run reports (0 where not applicable).
const COUNTS: [(&str, &str); 1] = [("bypass_hit_ratio", "ratio")];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(val == "1"),
            "--trace-out" => trace_out = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    (s[(n - 1) / 2] + s[n / 2]) / 2.0
}

/// The highest percentile with at least ten values beyond it (the
/// eleventh largest value), or the largest value when there are fewer
/// than eleven.
fn tail(v: &[f64]) -> f64 {
    let s = sorted(v);
    s[s.len().checked_sub(11).unwrap_or(s.len() - 1)]
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!("workloads: {}", workloads::NAMES.join(", "));
        std::process::exit(2);
    });
    let Some(mut w) = workloads::by_name(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (have {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };

    // Warm-up: fill caches, finish lazy set-up, fix the reference.
    let mut quiet = Tracer::new(false);
    w.setup(&mut quiet);
    let reference = w.run(&mut quiet);
    w.teardown();

    let mut tr = Tracer::new(args.trace);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut setup_s, mut unit_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (reference.ops, reference.failed);
    let mut counts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    // One reference-kernel run before the first cycle and after each.
    let kernel = probe::Probe::new();
    let mut probes = vec![kernel.run()];
    let mut scales = Vec::new();
    let mut cycle = 0u32;
    while setup_s.len() < MIN_CYCLES || started.elapsed() < budget {
        tr.set_cycle(cycle);
        let root = tr.begin("cycle");
        let t0 = Instant::now();
        w.setup(&mut tr);
        let t1 = Instant::now();
        let out = w.run(&mut tr);
        let t2 = Instant::now();
        tr.end(root);
        w.teardown();
        probes.push(kernel.run());

        let scale = probe::scale(probes[probes.len() - 2], probes[probes.len() - 1]);
        scales.push(scale);
        setup_s.push((t1 - t0).as_secs_f64() * scale);
        unit_ms.push((t2 - t1).as_secs_f64() * scale * 1e3);
        attempted += out.ops;
        failed += if out.digest == reference.digest {
            out.failed
        } else {
            out.ops
        };
        for (k, v) in out.counts {
            counts.entry(k).or_default().push(v);
        }
        cycle += 1;
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let self_ns = tr.self_time();
        for (span, metric) in LAYERS {
            let per_cycle: Vec<f64> = (0..cycle)
                .map(|c| {
                    let ns = self_ns.get(span).and_then(|m| m.get(&c)).copied();
                    ns.map_or(0.0, |ns| ns as f64 / 1e6 * scales[c as usize])
                })
                .collect();
            metrics.push((metric.to_string(), median(&per_cycle), "ms"));
        }
        for (name, unit) in COUNTS {
            let v = counts.get(name).map_or(0.0, |v| median(v));
            metrics.push((name.to_string(), v, unit));
        }
        metrics.push(("traced_unit_ms".into(), median(&unit_ms), "ms"));
        metrics.push(("cycles".into(), f64::from(cycle), "count"));
        metrics.push(("host_probe_ms".into(), median(&probes) * 1e3, "ms"));
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, tr.chrome_json()) {
                eprintln!("perfbench: cannot write trace {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("perfbench: wrote {} spans to {path}", tr.span_count());
        }
    } else {
        metrics.push(("unit_ms".into(), median(&unit_ms), "ms"));
        metrics.push(("unit_tail_ms".into(), tail(&unit_ms), "ms"));
        metrics.push(("setup_s".into(), median(&setup_s), "s"));
    }

    eprintln!(
        "perfbench: {} seed {}: {cycle} cycles, reference kernel median {:.3} ms, \
         rescaled unit ms min {:.3} median {:.3} tail {:.3} max {:.3}",
        args.workload,
        args.seed,
        median(&probes) * 1e3,
        unit_ms.iter().copied().fold(f64::INFINITY, f64::min),
        median(&unit_ms),
        tail(&unit_ms),
        unit_ms.iter().copied().fold(0.0, f64::max),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, unit)| format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}
