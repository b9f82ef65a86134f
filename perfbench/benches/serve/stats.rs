//! Order statistics for timing samples.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `pct` (0..=100) of ascending `sorted`.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A timing distribution: the median and the highest percentile that
/// still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub count: usize,
    pub p50: u64,
    /// The tail percentile reported (0 when fewer than 20 samples).
    pub tail_pct: f64,
    pub tail: u64,
}

impl Dist {
    pub fn of(samples: &[u64]) -> Dist {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let tail_pct = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
            .into_iter()
            .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
            .unwrap_or(0.0);
        Dist {
            count: n,
            p50: percentile(&sorted, 50.0),
            tail_pct,
            tail: if tail_pct > 0.0 {
                percentile(&sorted, tail_pct)
            } else {
                0
            },
        }
    }
}
