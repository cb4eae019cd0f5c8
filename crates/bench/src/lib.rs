//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary regenerates one figure of the paper's evaluation
//! (Sec. IV), printing the same series the figure plots. Knobs via
//! environment variables so CI can run quick versions:
//!
//! * `HLWK_RUNS` — repetitions (paper: 15);
//! * `HLWK_NODES` — top node count (paper: 64);
//! * `HLWK_FWQ_SECS` — FWQ measurement interval (paper: 30);
//! * `HLWK_OSU_ITERS` — timed iterations per OSU cell.

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

/// Mini-app iterations in the resilience sweep (`HLWK_RESIL_ITERS`).
pub fn resil_iters() -> u32 {
    env_or("HLWK_RESIL_ITERS", 12)
}

/// Mini-app iterations in the failure-domain sweep
/// (`HLWK_DOMAIN_ITERS`). The committed `BENCH_resilience.json`
/// baseline is recorded at the default; `--check` runs must not
/// override it.
pub fn domain_iters() -> u32 {
    env_or("HLWK_DOMAIN_ITERS", 12)
}

/// Seed base for the resilience sweep (`HLWK_SEED_BASE`). The default
/// reproduces the golden figure output; `scripts/ci.sh --soak` varies
/// it to hunt for schedule-dependent hangs.
pub fn seed_base() -> u64 {
    env_or("HLWK_SEED_BASE", 0x2E51)
}

/// Master seed for the failure-domain sweep (`HLWK_DOMAIN_SEED`).
/// Leave at the default for `--check` runs against the committed
/// baseline; the soak varies it.
pub fn domain_seed() -> u64 {
    env_or("HLWK_DOMAIN_SEED", 0xD06E_5EED)
}

/// Nodes in the elastic-tenancy serving sweep (`HLWK_SERVE_NODES`).
pub fn serve_nodes() -> u32 {
    env_or("HLWK_SERVE_NODES", 4)
}

/// Serving windows per tenancy profile (`HLWK_SERVE_WINDOWS`). The
/// committed `BENCH_serve.json` baseline is recorded at the default
/// (240 × 10 ms), where the resize storm completes 100+ cycles; CI
/// smokes run shorter.
pub fn serve_windows() -> u32 {
    env_or("HLWK_SERVE_WINDOWS", 240)
}

/// Master seed for the tenancy sweep (`HLWK_SERVE_SEED`). Leave at the
/// default for `--check` runs; the soak varies it.
pub fn serve_seed() -> u64 {
    env_or("HLWK_SERVE_SEED", 0x5E12_7E4A)
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

/// Format a summary as `mean ± std [min..max]`.
pub fn fmt_summary(s: &Summary, unit: &str) -> String {
    format!(
        "{:>10.2} ± {:>8.2} {unit}  [{:.2} .. {:.2}]",
        s.mean, s.std_dev, s.min, s.max
    )
}

/// Minimal parser for the flat `"key": number` JSON `fig_engine` writes.
pub fn parse_metrics(json: &str) -> Vec<(String, f64)> {
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

/// Render metrics back into the flat `fig_engine`-style JSON.
pub fn metrics_to_json(metrics: &[(String, f64)]) -> String {
    let mut out = String::from("{\n  \"bench\": \"fig_engine\",\n  \"metrics\": {\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("    \"{k}\": {v:.2}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

/// Merge `fresh` into the metrics already in `path` (keeps existing
/// entries; replaces stale values for the same keys), preserving order.
/// `fig_engine` rewrites the file wholesale, so the sweep that rides
/// along (`fig_scale_app`) must run after it and merge.
pub fn merge_metrics_into(path: &str, fresh: &[(String, f64)]) {
    let mut metrics = std::fs::read_to_string(path)
        .map(|s| parse_metrics(&s))
        .unwrap_or_default();
    for (k, v) in fresh {
        match metrics.iter_mut().find(|(mk, _)| mk == k) {
            Some((_, mv)) => *mv = *v,
            None => metrics.push((k.clone(), *v)),
        }
    }
    std::fs::write(path, metrics_to_json(&metrics)).expect("write benchmark output");
    println!("merged {} metrics into {path}", fresh.len());
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
    fn node_sweep_doubles() {
        std::env::remove_var("HLWK_NODES");
        assert_eq!(node_sweep(2), vec![2, 4, 8, 16, 32, 64]);
        assert_eq!(node_sweep(8), vec![8, 16, 32, 64]);
    }
}
