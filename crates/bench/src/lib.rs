//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary regenerates one figure of the paper's evaluation
//! (Sec. IV), printing the same series the figure plots. Knobs via
//! environment variables so CI can run quick versions:
//!
//! * `HLWK_RUNS` — repetitions (paper: 15);
//! * `HLWK_NODES` — top node count (paper: 64);
//! * `HLWK_FWQ_SECS` — FWQ measurement interval (paper: 30);
//! * `HLWK_OSU_ITERS` — timed iterations per OSU cell;
//! * `HLWK_BYPASS` — the offload-bypass policy of every McKernel node
//!   ([`paper_config`]): unset or `off`, `on`, or `on-but-cold`.
//!
//! The benches that keep a committed `BENCH_*.json` baseline share its
//! format and `--check` rule here: [`write`], [`read`] and [`check`] are
//! the only code that touches those files. Every baseline holds host
//! wall-clock time; simulated output is checked against the goldens
//! under `results/` by `fig_table`.

use cluster::{ClusterConfig, OsVariant};
use hlwk_core::mck::syscall::BypassConfig;
use simcore::Summary;

/// Repetitions (paper: 15).
pub fn runs() -> usize {
    env_or("HLWK_RUNS", 15)
}

/// Largest node count in sweeps (paper: 64).
pub fn max_nodes() -> u32 {
    env_or("HLWK_NODES", 64)
}

/// FWQ measurement interval in seconds (paper: 30).
pub fn fwq_secs() -> u64 {
    env_or("HLWK_FWQ_SECS", 10)
}

/// OSU timed iterations per cell.
pub fn osu_iters() -> usize {
    env_or("HLWK_OSU_ITERS", 8)
}

/// Seed base for the resilience sweep (`HLWK_SEED_BASE`). The default
/// reproduces the golden figure output; `scripts/ci.sh --soak` varies
/// it to hunt for schedule-dependent hangs.
pub fn seed_base() -> u64 {
    env_or("HLWK_SEED_BASE", 0x2E51)
}

/// Master seed for the failure-domain sweep (`HLWK_DOMAIN_SEED`). The
/// default reproduces the golden figure output; the soak varies it.
pub fn domain_seed() -> u64 {
    env_or("HLWK_DOMAIN_SEED", 0xD06E_5EED)
}

/// Master seed for the tenancy sweep (`HLWK_SERVE_SEED`). The default
/// reproduces the golden figure output; the soak varies it.
pub fn serve_seed() -> u64 {
    env_or("HLWK_SERVE_SEED", 0x5E12_7E4A)
}

/// The paper-shaped cluster config for `os`, with the offload-bypass
/// policy `HLWK_BYPASS` names. Every binary here that builds a cluster
/// config starts from this, so the bypass knob reaches all of them; the
/// simulator crates never read the environment.
pub fn paper_config(os: OsVariant) -> ClusterConfig {
    ClusterConfig {
        bypass: bypass_policy(std::env::var("HLWK_BYPASS").ok().as_deref()),
        ..ClusterConfig::paper(os)
    }
}

/// The bypass policy an `HLWK_BYPASS` value names: `on` arms promotion,
/// `on-but-cold` arms every check but never promotes, and anything else
/// (unset, `off`) leaves the bypass off.
fn bypass_policy(value: Option<&str>) -> BypassConfig {
    match value {
        Some("on") => BypassConfig {
            enabled: true,
            ..BypassConfig::default()
        },
        Some("on-but-cold") => BypassConfig {
            enabled: true,
            promote_after: u64::MAX,
            ..BypassConfig::default()
        },
        _ => BypassConfig::default(),
    }
}

fn env_or<T: std::str::FromStr + Copy>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Human-readable message size (matches the paper's axis labels).
pub fn size_label(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}kB", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

/// Node counts for a scaling sweep starting at `min`, doubling to
/// [`max_nodes`].
pub fn node_sweep(min: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut n = min;
    while n <= max_nodes() {
        out.push(n);
        n *= 2;
    }
    out
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Round a simulated metric to the 4 decimals its binary prints, so the
/// claims judge the same number the golden holds.
pub fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

/// Format a summary as `mean ± std [min..max]`.
pub fn fmt_summary(s: &Summary, unit: &str) -> String {
    format!(
        "{:>10.2} ± {:>8.2} {unit}  [{:.2} .. {:.2}]",
        s.mean, s.std_dev, s.min, s.max
    )
}

/// Iterations per host-clock metric (`HLWK_BENCH_ITERS`, default 20000).
pub fn bench_iters() -> u64 {
    env_or("HLWK_BENCH_ITERS", 20_000)
}

/// Where a bench writes its baseline: `HLWK_BENCH_OUT`, else `default`.
pub fn bench_out(default: &str) -> String {
    std::env::var("HLWK_BENCH_OUT").unwrap_or_else(|_| default.into())
}

/// The baseline path after `--check`, if the binary was asked to
/// compare a fresh run instead of writing one.
pub fn check_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--check")?;
    let path = args.get(i + 1).expect("--check needs a baseline path");
    Some(path.clone())
}

// ---------------------------------------------------------------------
// Baseline files: the `BENCH_*.json` format and its `--check` rule.
// ---------------------------------------------------------------------

/// How far a host wall-clock metric may regress against its baseline
/// before `--check` fails. Host load moves these numbers, so a fresh
/// value may reach this many times its baseline.
pub const TOLERANCE: f64 = 2.0;

/// Render `metrics` as the baseline file of the binary `bench`, each
/// value to 2 decimals.
fn render<K: AsRef<str>>(bench: &str, metrics: &[(K, f64)]) -> String {
    let mut out = format!("{{\n  \"bench\": \"{bench}\",\n  \"metrics\": {{\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        let k = k.as_ref();
        out.push_str(&format!("    \"{k}\": {v:.2}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

/// The flat `"key": number` lines of a baseline file, in file order.
fn parse(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, val)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if let Ok(v) = val.trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

/// Read the baseline at `path`; an unreadable file is fatal.
pub fn read(path: &str) -> Vec<(String, f64)> {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    parse(&json)
}

/// Write `metrics` to `path` as the baseline of the binary `bench`.
pub fn write<K: AsRef<str>>(path: &str, bench: &str, metrics: &[(K, f64)]) {
    std::fs::write(path, render(bench, metrics)).expect("write benchmark output");
    println!("wrote {path}");
}

/// Compare fresh `metrics` against `baseline`: each may reach
/// [`TOLERANCE`] times its baseline. Reports each failure on stderr and
/// each passing metric on stdout. A metric the baseline lacks fails.
/// Returns true if any metric failed.
pub fn check<K: AsRef<str>>(baseline: &[(String, f64)], metrics: &[(K, f64)]) -> bool {
    let mut failed = false;
    for (k, v) in metrics {
        let k = k.as_ref();
        let Some(&(_, base)) = baseline.iter().find(|(bk, _)| bk == k) else {
            eprintln!("MISSING BASELINE: {k} is not in the baseline");
            failed = true;
            continue;
        };
        if *v > base * TOLERANCE {
            eprintln!("PERF REGRESSION: {k} = {v:.2} vs baseline {base:.2} (>{TOLERANCE}x)");
            failed = true;
        } else {
            println!("{k:>24}: ok ({:.2}x of baseline)", v / base);
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_labels() {
        assert_eq!(size_label(2), "2");
        assert_eq!(size_label(1024), "1kB");
        assert_eq!(size_label(512 << 10), "512kB");
        assert_eq!(size_label(1 << 20), "1MB");
    }

    #[test]
    fn committed_baselines_render_back_byte_for_byte() {
        let offload = include_str!("../../../BENCH_offload.json");
        let engine = include_str!("../../../BENCH_engine.json");
        let e2e = include_str!("../../../BENCH_e2e.json");
        let mem = include_str!("../../../BENCH_mem.json");
        for (json, bench) in [
            (offload, "fig_offload_hotpath"),
            (engine, "fig_scale_app"),
            (e2e, "fig_table"),
            (mem, "fig_mem"),
        ] {
            let metrics = parse(json);
            assert!(!metrics.is_empty(), "{bench}: no metrics parsed");
            assert_eq!(render(bench, &metrics), json, "{bench}");
        }
    }

    #[test]
    fn check_applies_each_clock_rule() {
        let base = vec![("t_ns".to_string(), 100.0)];
        // Up to TOLERANCE x the baseline passes, anything past fails.
        assert!(!check(&base, &[("t_ns", 200.0)]));
        assert!(check(&base, &[("t_ns", 200.1)]));
        assert!(check(&base, &[("absent_ns", 1.0)]));
    }

    #[test]
    fn bypass_policy_maps_each_value() {
        let off = BypassConfig::default();
        assert!(!off.enabled);
        assert_eq!(bypass_policy(None), off);
        assert_eq!(bypass_policy(Some("off")), off);
        assert_eq!(
            bypass_policy(Some("on")),
            BypassConfig {
                enabled: true,
                ..off
            }
        );
        assert_eq!(
            bypass_policy(Some("on-but-cold")),
            BypassConfig {
                enabled: true,
                promote_after: u64::MAX,
                ..off
            }
        );
    }

    #[test]
    fn node_sweep_doubles() {
        std::env::remove_var("HLWK_NODES");
        assert_eq!(node_sweep(2), vec![2, 4, 8, 16, 32, 64]);
        assert_eq!(node_sweep(8), vec![8, 16, 32, 64]);
    }
}
