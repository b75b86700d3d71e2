//! Order statistics: each request's median execution, the percentile rule
//! for verdict latencies, the faster half of a run's set-ups, and the
//! medians and quartiles `compare` reports.

use std::collections::BTreeMap;

/// The median of the values that share each key (`values[i]` belongs to
/// `keys[i]`).
pub fn median_by_key(keys: &[usize], values: &[f64]) -> BTreeMap<usize, f64> {
    let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (key, value) in keys.iter().zip(values) {
        groups.entry(*key).or_default().push(*value);
    }
    groups.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-quantile of ascending `sorted`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it — so p99 needs at
/// least 1000 samples.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// The median (mean of the middle two for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The lower half of `values`, ascending (the middle value included when
/// the count is odd).
pub fn lower_half(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(v.len().div_ceil(2));
    v
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` ("exclusive"), so spreads read the
/// same here as in any script that checks them. One value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}
