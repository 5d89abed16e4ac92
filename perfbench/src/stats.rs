//! Order statistics and operation tallies shared by every workload.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` of the samples at or below it. `None` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median and p99 of unsorted samples, with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    /// `None` for no samples.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            count: sorted.len(),
            p50: percentile(&sorted, 0.50)?,
            p99: percentile(&sorted, 0.99)?,
        })
    }
}

/// Median of unsorted samples (nearest rank); 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Each group's median, where sample `i` belongs to group `i % groups`:
/// the typical round of each of a cycle of rounds that do different
/// work, robust to a few rounds slowed by something else on the machine.
pub fn group_medians(samples: &[f64], groups: usize) -> Vec<f64> {
    let groups = groups.clamp(1, samples.len().max(1));
    (0..groups)
        .map(|g| {
            median(
                &samples
                    .iter()
                    .skip(g)
                    .step_by(groups)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Rate and tail latency per window of timestamped samples `(t, v)`,
/// `t` in seconds from the start: the median over the whole windows
/// inside `[0, span)` of each window's sample rate (1/s) and of its p99
/// of `v`. `None` when no whole window holds a sample.
pub fn windowed(samples: &[(f64, f64)], window: f64, span: f64) -> Option<(f64, f64)> {
    let windows = (span / window).floor() as usize;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, v) in samples {
        if t >= 0.0 {
            if let Some(w) = per.get_mut((t / window) as usize) {
                w.push(v);
            }
        }
    }
    if per.iter().all(Vec::is_empty) {
        return None;
    }
    let rates: Vec<f64> = per.iter().map(|w| w.len() as f64 / window).collect();
    let tails: Vec<f64> = per
        .iter()
        .filter_map(|w| Summary::of(w))
        .map(|s| s.p99)
        .collect();
    Some((median(&rates), median(&tails)))
}

/// Operations attempted and failed. A failure is any operation whose
/// output did not pass its check, whatever the cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok` says whether it passed its check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Count `n` operations that share one check result.
    pub fn record_many(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// Mark `n` already-counted operations as failed (a check that runs
    /// after the operations were counted), never beyond the attempted.
    pub fn fail(&mut self, n: u64) {
        self.failed = (self.failed + n).min(self.attempted);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Ten samples: p99 is the largest, the median the fifth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), Some(10.0));
        assert_eq!(percentile(&ten, 0.50), Some(5.0));
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p99, 5.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn group_medians_ignore_a_slow_round() {
        // Two groups (rounds alternate sets): 10, 20, 10, 20, 90 (slow), 20.
        let rounds = [10.0, 20.0, 10.0, 20.0, 90.0, 20.0];
        assert_eq!(group_medians(&rounds, 2), vec![10.0, 20.0]);
        assert_eq!(group_medians(&[4.0, 6.0, 5.0], 1), vec![5.0]);
        assert_eq!(group_medians(&[], 3), vec![0.0]);
    }

    #[test]
    fn windows_take_the_median_rate_and_tail() {
        // Three 1 s windows: 100 samples of 1.0, 100 of 2.0, 10 of 50.0,
        // then a partial window that must not count.
        let mut v = Vec::new();
        for i in 0..100 {
            v.push((i as f64 / 100.0, 1.0));
            v.push((1.0 + i as f64 / 100.0, 2.0));
        }
        for i in 0..10 {
            v.push((2.0 + i as f64 / 10.0, 50.0));
        }
        v.push((3.2, 1000.0));
        let (rate, p99) = windowed(&v, 1.0, 3.5).unwrap();
        assert_eq!(rate, 100.0);
        assert_eq!(p99, 2.0);
        assert!(windowed(&v, 1.0, 0.5).is_none());
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record_many(10, true);
        t.record_many(3, false);
        assert_eq!(
            t,
            Tally {
                attempted: 15,
                failed: 4
            }
        );
        t.fail(2);
        assert_eq!(t.failed, 6);
        t.fail(100);
        assert_eq!(t.failed, t.attempted);
        let mut u = Tally::default();
        u.merge(t);
        u.merge(Tally {
            attempted: 1,
            failed: 0,
        });
        assert_eq!(
            u,
            Tally {
                attempted: 16,
                failed: 15
            }
        );
    }
}
