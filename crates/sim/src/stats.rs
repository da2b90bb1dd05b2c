//! Streaming statistics for simulation metrics.

use std::collections::BTreeMap;
use std::fmt;

use siteselect_types::{SimDuration, SimTime};

/// Streaming mean/variance/min/max via Welford's algorithm.
///
/// # Example
///
/// ```
/// use siteselect_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds a duration sample, in seconds.
    pub fn push_duration(&mut self, d: SimDuration) {
        self.push(d.as_secs_f64());
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0.0 with fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
                self.count,
                self.mean(),
                self.std_dev(),
                self.min,
                self.max
            )
        }
    }
}

/// A fixed-bucket histogram over `[lo, hi)` with overflow/underflow buckets,
/// supporting percentile queries.
///
/// # Example
///
/// ```
/// use siteselect_sim::Histogram;
///
/// let mut h = Histogram::linear(0.0, 10.0, 10);
/// for x in 0..10 {
///     h.record(x as f64 + 0.5);
/// }
/// assert_eq!(h.count(), 10);
/// assert!(h.percentile(50.0).unwrap() >= 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `n` equal-width buckets over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `n == 0`.
    #[must_use]
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(n > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one sample.
    #[expect(clippy::indexing_slicing, reason = "idx is clamped to len-1 on the line above")]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total samples recorded, including under/overflow.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate percentile (`p` in `[0, 100]`), computed by linear
    /// interpolation within the containing bucket. Returns `None` when empty.
    /// Underflow samples are treated as `lo`, overflow samples as `hi`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let target = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if target <= seen {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if target <= seen + c {
                let within = (target - seen) as f64 / c.max(1) as f64;
                return Some(self.lo + width * (i as f64 + within));
            }
            seen += c;
        }
        Some(self.hi)
    }

    /// Iterates over `(bucket_lower_bound, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + width * i as f64, c))
    }
}

/// A hit/total ratio (cache hit rates, deadline success rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// Creates a zeroed ratio.
    #[must_use]
    pub fn new() -> Self {
        Ratio::default()
    }

    /// Builds a ratio from already-tallied counts, for one-shot percentage
    /// queries with uniform division-by-zero handling.
    ///
    /// # Example
    ///
    /// ```
    /// use siteselect_sim::Ratio;
    ///
    /// assert_eq!(Ratio::of(3, 4).percent(), 75.0);
    /// assert_eq!(Ratio::of(0, 0).percent(), 0.0); // never NaN
    /// ```
    #[must_use]
    pub fn of(hits: u64, total: u64) -> Self {
        Ratio { hits, total }
    }

    /// Records an event; `hit` marks it a success.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Successes so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Events so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Success fraction in `[0, 1]`; 0.0 when empty.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Success percentage in `[0, 100]`.
    #[must_use]
    pub fn percent(&self) -> f64 {
        self.fraction() * 100.0
    }

    /// Merges another ratio into this one.
    pub fn merge(&mut self, other: Ratio) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} ({:.2}%)", self.hits, self.total, self.percent())
    }
}

/// Time-weighted average of a piecewise-constant signal (queue lengths,
/// utilization).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    started: SimTime,
}

impl TimeWeighted {
    /// Creates a tracker with initial `value` at time `start`.
    #[must_use]
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: start,
            last_value: value,
            weighted_sum: 0.0,
            started: start,
        }
    }

    /// Updates the signal to `value` at time `now` (must not precede the
    /// previous update).
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.duration_since(self.last_time).as_secs_f64();
        self.weighted_sum += self.last_value * dt;
        self.last_time = now;
        self.last_value = value;
    }

    /// Adds `delta` to the current value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.last_value + delta;
        self.set(now, v);
    }

    /// Current value of the signal.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.last_value
    }

    /// Time-weighted average over `[start, now]`.
    #[must_use]
    pub fn average(&self, now: SimTime) -> f64 {
        let dt_tail = now.duration_since(self.last_time).as_secs_f64();
        let span = now.duration_since(self.started).as_secs_f64();
        if span <= 0.0 {
            return self.last_value;
        }
        (self.weighted_sum + self.last_value * dt_tail) / span
    }
}

/// A set of labelled monotone counters with deterministic iteration order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counter {
    counts: BTreeMap<String, u64>,
}

impl Counter {
    /// Creates an empty counter set.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to the counter named `key`.
    pub fn add(&mut self, key: &str, n: u64) {
        *self.counts.entry(key.to_owned()).or_insert(0) += n;
    }

    /// Increments the counter named `key` by one.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Current value of `key` (zero if never touched).
    #[must_use]
    pub fn get(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Iterates over `(label, count)` in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &Counter) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.counts.is_empty() {
            return write!(f, "(no counters)");
        }
        for (k, v) in self.iter() {
            writeln!(f, "{k}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut all = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            all.push(x);
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn merge_into_empty() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        b.push(3.0);
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 4.0);
        let mut c = OnlineStats::new();
        b.merge(&c); // merging empty is a no-op
        assert_eq!(b.count(), 2);
        c.push(1.0);
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::linear(0.0, 100.0, 100);
        for i in 0..1000 {
            h.record((i % 100) as f64);
        }
        let p50 = h.percentile(50.0).unwrap();
        assert!((45.0..=55.0).contains(&p50), "p50={p50}");
        let p99 = h.percentile(99.0).unwrap();
        assert!(p99 >= 95.0, "p99={p99}");
        assert_eq!(h.percentile(0.0).unwrap().floor(), 0.0);
    }

    #[test]
    fn histogram_overflow_underflow() {
        let mut h = Histogram::linear(0.0, 10.0, 10);
        h.record(-5.0);
        h.record(50.0);
        h.record(5.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(1.0), Some(0.0)); // underflow clamps to lo
        assert_eq!(h.percentile(100.0), Some(10.0)); // overflow clamps to hi
    }

    #[test]
    fn histogram_empty_returns_none() {
        let h = Histogram::linear(0.0, 1.0, 4);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.iter().count(), 4);
    }

    #[test]
    fn ratio_accumulates() {
        let mut r = Ratio::new();
        for i in 0..10 {
            r.record(i < 7);
        }
        assert_eq!(r.hits(), 7);
        assert_eq!(r.total(), 10);
        assert!((r.percent() - 70.0).abs() < 1e-12);
        let mut other = Ratio::new();
        other.record(true);
        r.merge(other);
        assert_eq!(r.hits(), 8);
        assert_eq!(r.total(), 11);
        assert!(r.to_string().contains('%'));
    }

    #[test]
    fn ratio_empty_is_zero() {
        assert_eq!(Ratio::new().fraction(), 0.0);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_secs(10), 2.0); // 0 for 10s
        tw.set(SimTime::from_secs(20), 4.0); // 2 for 10s
        let avg = tw.average(SimTime::from_secs(30)); // 4 for 10s
        assert!((avg - 2.0).abs() < 1e-12, "avg={avg}");
        assert_eq!(tw.value(), 4.0);
    }

    #[test]
    fn time_weighted_add_and_zero_span() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(5), 1.0);
        assert_eq!(tw.average(SimTime::from_secs(5)), 1.0);
        tw.add(SimTime::from_secs(10), 2.0);
        assert_eq!(tw.value(), 3.0);
    }

    #[test]
    fn counters_merge_and_iterate_in_order() {
        let mut a = Counter::new();
        a.incr("b_second");
        a.add("a_first", 5);
        let mut b = Counter::new();
        b.add("b_second", 2);
        a.merge(&b);
        assert_eq!(a.get("b_second"), 3);
        assert_eq!(a.get("a_first"), 5);
        assert_eq!(a.get("missing"), 0);
        let keys: Vec<_> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a_first", "b_second"]);
        assert!(!a.to_string().is_empty());
        assert_eq!(Counter::new().to_string(), "(no counters)");
    }
}
