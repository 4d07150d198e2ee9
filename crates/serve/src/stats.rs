//! Latency statistics for the serving benchmark and reporters.
//!
//! The single entry point is [`percentile`], shared by perfbench and
//! `serve_smoke` so every reporter sorts with [`f64::total_cmp`].
//! The previous per-binary copies sorted with
//! `partial_cmp().expect(...)` / `unwrap()`, which panics the reporter
//! on a NaN sample — and NaN *does* occur in practice: a latency
//! derived from an empty window, a ratio over a zero-duration run, or a
//! summary of a summary that was itself empty. A measurement tool must
//! degrade to a strange number, never take the run down.

/// Nearest-rank percentile of an unsorted sample (`q` in `0..=1`).
///
/// Returns NaN for an empty sample. NaN samples cannot panic the sort
/// ([`f64::total_cmp`] is a total order that places NaN after every
/// finite value), so a poisoned sample skews the upper tail instead of
/// aborting the reporter.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let sample = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&sample, 0.50), 3.0);
        assert_eq!(percentile(&sample, 0.99), 5.0);
        assert_eq!(percentile(&sample, 1.0), 5.0);
    }

    #[test]
    fn empty_sample_reports_nan_instead_of_panicking() {
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn nan_and_zero_duration_samples_cannot_panic_the_reporter() {
        // A zero-duration run produces 0/0 latencies; a poisoned
        // sample mixes NaN into an otherwise healthy vector. Both must
        // yield a number (or NaN) — never a panic.
        let zero_duration = [f64::NAN];
        assert!(percentile(&zero_duration, 0.5).is_nan());

        let poisoned = [2.0, f64::NAN, 1.0, 3.0];
        assert_eq!(percentile(&poisoned, 0.25), 1.0);
        assert_eq!(percentile(&poisoned, 0.50), 2.0);
        // NaN sorts after every finite value under total_cmp: it can
        // only surface at the extreme upper tail.
        assert!(percentile(&poisoned, 1.0).is_nan());
        // Negative zero and infinity order totally as well.
        let weird = [f64::INFINITY, -0.0, 0.0, f64::NEG_INFINITY];
        assert_eq!(percentile(&weird, 0.5), -0.0);
        assert_eq!(percentile(&weird, 1.0), f64::INFINITY);
    }
}
