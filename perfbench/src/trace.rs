//! Spans recorded from the benchmark's own code, around calls into each
//! layer's public functions. The replays call layers one after another,
//! never one inside another, so a span's duration is its self time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Self time and call count per span name, recorded by one thread.
#[derive(Default, Debug)]
pub struct Spans {
    spans: BTreeMap<String, (Duration, u64)>,
}

impl Spans {
    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Add one call of `elapsed` to the span `name`.
    pub fn add(&mut self, name: &str, elapsed: Duration) {
        match self.spans.get_mut(name) {
            Some((total, calls)) => {
                *total += elapsed;
                *calls += 1;
            }
            None => {
                self.spans.insert(name.to_string(), (elapsed, 1));
            }
        }
    }

    /// Fold another thread's spans into these.
    pub fn merge(&mut self, other: Spans) {
        for (name, (total, calls)) in other.spans {
            let slot = self.spans.entry(name).or_default();
            slot.0 += total;
            slot.1 += calls;
        }
    }

    /// Total self time of `name` in milliseconds (0 if never entered).
    pub fn ms(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |(total, _)| total.as_secs_f64() * 1e3)
    }

    /// Calls of `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |(_, calls)| *calls)
    }

    /// Mean self time of one call of `name` in microseconds (0 if never
    /// entered).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            calls => self.ms(name) * 1e3 / calls as f64,
        }
    }

    /// Self time summed over every span, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.spans
            .values()
            .map(|(total, _)| total.as_secs_f64() * 1e3)
            .sum()
    }
}

/// Run `f`, inside the span `name` when spans are being recorded. A
/// replay runs once with `None` and once with `Some` to measure what the
/// spans cost.
pub fn span<R>(spans: &mut Option<Spans>, name: &str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_merge() {
        let mut a = Spans::default();
        a.add("x", Duration::from_millis(2));
        a.add("x", Duration::from_millis(4));
        let mut b = Spans::default();
        b.add("x", Duration::from_millis(1));
        b.add("y", Duration::from_micros(500));
        a.merge(b);
        assert_eq!(a.calls("x"), 3);
        assert!((a.ms("x") - 7.0).abs() < 1e-9);
        assert!((a.mean_us("x") - 7000.0 / 3.0).abs() < 1e-6);
        assert!((a.total_ms() - 7.5).abs() < 1e-9);
        assert_eq!(a.ms("missing"), 0.0);
        assert_eq!(a.mean_us("missing"), 0.0);
        assert_eq!(a.time("z", || 3), 3);
        assert_eq!(a.calls("z"), 1);
        let mut on = Some(Spans::default());
        assert_eq!(span(&mut on, "w", || 4), 4);
        assert_eq!(on.unwrap().calls("w"), 1);
        let mut off = None;
        assert_eq!(span(&mut off, "w", || 5), 5);
        assert!(off.is_none());
    }
}
