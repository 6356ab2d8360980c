//! Small order statistics over measured samples.

/// Median of `v` (sorted in place); 0 for an empty sample.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation between closest ranks
/// (sorted in place); 0 for an empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
