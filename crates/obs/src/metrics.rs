//! Metric values: the power-of-two histogram a component owns by value,
//! and the ordered snapshot the system folds every instrument into at
//! report time.
//!
//! Nothing here is shared: a component counts into its own plain fields
//! whether or not `--metrics` is on, and `NumaGpuSystem::build_metrics`
//! reads them once the run is over. The snapshot lists metrics in the
//! order that fold pushes them, so it (and its JSON encoding) is
//! byte-stable across identical runs.

use numa_gpu_testkit::json::Json;

/// A distribution over power-of-two buckets, owned by the component that
/// feeds it.
///
/// `buckets` grows to the highest bucket a sample has reached, so the four
/// scalar fields and the vector header share one cache line and an MSHR
/// occupancy histogram never holds more buckets than its file can fill.
///
/// # Examples
///
/// ```
/// use numa_gpu_obs::Pow2Histogram;
///
/// let mut a = Pow2Histogram::default();
/// a.observe(0);
/// a.observe(5);
/// let mut b = Pow2Histogram::default();
/// b.observe(1000);
/// a.merge(&b);
/// let s = a.summary();
/// assert_eq!((s.count, s.sum, s.min, s.max), (3, 1005, 0, 1000));
/// assert_eq!(s.buckets.len(), 11); // 1000 is in [512, 1024)
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pow2Histogram(HistogramSummary);

impl Pow2Histogram {
    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        let h = &mut self.0;
        if h.count == 0 || v < h.min {
            h.min = v;
        }
        if v > h.max {
            h.max = v;
        }
        h.count += 1;
        h.sum = h.sum.saturating_add(v);
        let b = bucket_of(v);
        if h.buckets.len() <= b {
            h.buckets.resize(b + 1, 0);
        }
        h.buckets[b] += 1;
    }

    /// Folds `other`'s samples in: the result equals one histogram fed
    /// both sample streams, in any order.
    pub fn merge(&mut self, other: &Pow2Histogram) {
        let (h, o) = (&mut self.0, &other.0);
        if o.count == 0 {
            return;
        }
        if h.count == 0 || o.min < h.min {
            h.min = o.min;
        }
        h.max = h.max.max(o.max);
        h.count += o.count;
        h.sum = h.sum.saturating_add(o.sum);
        if h.buckets.len() < o.buckets.len() {
            h.buckets.resize(o.buckets.len(), 0);
        }
        for (mine, theirs) in h.buckets.iter_mut().zip(&o.buckets) {
            *mine += theirs;
        }
    }

    /// What has been recorded so far.
    pub fn summary(&self) -> &HistogramSummary {
        &self.0
    }
}

/// Bucket index of `v`: 0 for 0, else `floor(log2(v)) + 1` — bucket `b`
/// covers `[2^(b-1), 2^b)`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Point-in-time value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram summary.
    Histogram(HistogramSummary),
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`0` when empty).
    pub min: u64,
    /// Largest sample (`0` when empty).
    pub max: u64,
    /// Power-of-two bucket counts: `buckets[0]` holds zeros, `buckets[b]`
    /// holds samples in `[2^(b-1), 2^b)`.
    pub buckets: Vec<u64>,
}

/// An ordered capture of every instrument's value at the end of a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in the order they were pushed.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Counter value by name (`None` if absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name (`None` if absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// JSON object keyed by metric name, in `entries` order — the
    /// encoding is byte-stable for identical runs.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(name, value)| {
                    let v = match value {
                        MetricValue::Counter(v) | MetricValue::Gauge(v) => Json::UInt(*v),
                        MetricValue::Histogram(h) => Json::obj([
                            ("count", Json::UInt(h.count)),
                            ("sum", Json::UInt(h.sum)),
                            ("min", Json::UInt(h.min)),
                            ("max", Json::UInt(h.max)),
                            (
                                "buckets",
                                Json::Arr(h.buckets.iter().map(|&b| Json::UInt(b)).collect()),
                            ),
                        ]),
                    };
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_testkit::gen::{ints, one_of, vecs};
    use numa_gpu_testkit::{prop_assert_eq, prop_check};

    fn fed(samples: &[u64]) -> Pow2Histogram {
        let mut h = Pow2Histogram::default();
        for &v in samples {
            h.observe(v);
        }
        h
    }

    /// The summary written down from its definition, not from `observe`.
    fn by_definition(samples: &[u64]) -> HistogramSummary {
        let max = samples.iter().copied().max().unwrap_or(0);
        let mut buckets = vec![
            0;
            if samples.is_empty() {
                0
            } else {
                bucket_of(max) + 1
            }
        ];
        for &v in samples {
            buckets[bucket_of(v)] += 1;
        }
        HistogramSummary {
            count: samples.len() as u64,
            sum: samples.iter().fold(0, |acc, &v| acc.saturating_add(v)),
            min: samples.iter().copied().min().unwrap_or(0),
            max,
            buckets,
        }
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        assert_eq!(*fed(&[]).summary(), HistogramSummary::default());
        let zero = HistogramSummary {
            count: 1,
            buckets: vec![1],
            ..HistogramSummary::default()
        };
        assert_eq!(*fed(&[0]).summary(), zero);
        let mixed = HistogramSummary {
            count: 6,
            sum: 1010,
            min: 0,
            max: 1000,
            // the zero; 1; 2 and 3; 4; then 1000 in [512, 1024)
            buckets: vec![1, 1, 2, 1, 0, 0, 0, 0, 0, 0, 1],
        };
        assert_eq!(*fed(&[0, 1, 2, 3, 4, 1000]).summary(), mixed);
    }

    prop_check! {
        /// Merging per-part histograms equals one histogram fed every
        /// sample, and both equal the definition — so folding 64 SMs'
        /// histograms at report time reads what one shared cell read.
        fn merge_equals_feeding_the_concatenation(
            samples in vecs(
                one_of(vec![ints(0u64..16), ints(0u64..100_000), ints(u64::MAX - 8..u64::MAX)]),
                0..48,
            ),
            parts in ints(1usize..6),
        ) {
            let mut merged = Pow2Histogram::default();
            for part in samples.chunks(samples.len().div_ceil(parts).max(1)) {
                merged.merge(&fed(part));
            }
            merged.merge(&Pow2Histogram::default());
            prop_assert_eq!(&merged, &fed(&samples));
            prop_assert_eq!(merged.summary(), &by_definition(&samples));
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            entries: vec![
                ("z".to_string(), MetricValue::Counter(1)),
                ("a".to_string(), MetricValue::Gauge(2)),
            ],
        }
    }

    #[test]
    fn snapshot_preserves_registration_order_and_is_stable() {
        let s1 = sample_snapshot().to_json().to_string();
        let s2 = sample_snapshot().to_json().to_string();
        assert_eq!(s1, s2);
        assert_eq!(s1, r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter("z"), Some(1));
        assert_eq!(snap.gauge("a"), Some(2));
        assert_eq!(snap.counter("a"), None);
        assert!(snap.get("missing").is_none());
    }
}
