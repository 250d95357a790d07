//! Order statistics and process measurements shared by every workload.

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` taken as the mean of the values whose
/// ranks cover the quantiles `q ± half_width` (rank as in [`quantile`]).
/// Where the values fall in clusters with a gap between them, the plain
/// quantile jumps across the gap when a few values change side; this one
/// moves by the few values' share of the band. `0.0` for an empty slice.
pub fn band_quantile(values: &[f64], q: f64, half_width: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = |q: f64| q.clamp(0.0, 1.0) * last as f64;
    // The slack keeps a rank such as 0.55 × 100 = 55.000000000000007 whole.
    let lo = (rank(q - half_width) + 1e-9).floor() as usize;
    let hi = ((rank(q + half_width) - 1e-9).ceil() as usize).max(lo);
    let band = &sorted[lo..=hi];
    band.iter().sum::<f64>() / band.len() as f64
}

/// First quartile, median and third quartile with the rule of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed by `compare` match what an outside checker computes
/// from the same runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn band_quantiles_average_the_band_and_bridge_gaps() {
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        // Ranks 45..=55 of 0..=100.
        assert_eq!(band_quantile(&values, 0.5, 0.05), 50.0);
        assert_eq!(band_quantile(&values, 0.5, 0.0), 50.0);
        assert_eq!(band_quantile(&values, 1.0, 0.05), 97.5);
        assert_eq!(band_quantile(&[], 0.5, 0.05), 0.0);
        assert_eq!(band_quantile(&[3.0], 0.9, 0.05), 3.0);
        // Two equal clusters: one value changing side moves the plain
        // median across the whole gap, the band median by a tenth of it.
        let mut clusters: Vec<f64> = [1.0; 50].into_iter().chain([2.0; 51]).collect();
        let before = (
            quantile(&clusters, 0.5),
            band_quantile(&clusters, 0.5, 0.05),
        );
        clusters[50] = 1.0;
        let after = (
            quantile(&clusters, 0.5),
            band_quantile(&clusters, 0.5, 0.05),
        );
        assert_eq!(after.0 - before.0, -1.0);
        assert!((after.1 - before.1 + 1.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_the_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // Outside the data for tiny samples, exactly as Python does:
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
