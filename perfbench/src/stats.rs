//! Order statistics and the resident-memory probe.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The p90 of `xs` when at least ten samples lie above it, else `None`.
pub fn p90_with_tail(xs: &[f64]) -> Option<f64> {
    let p = quantile(xs, 0.9);
    (xs.iter().filter(|&&x| x > p).count() >= 10).then_some(p)
}

/// This process's resident high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in the process status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(p90_with_tail(&few), None);
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(p90_with_tail(&many).is_some());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
