//! Order statistics: quartiles as the driver computes them, a fixed-size
//! latency histogram, and the median-over-segments summary every timing
//! metric is reported as.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the driver applies to the ten values of a metric. `None` below
/// two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range of `values`; zero below two values.
pub fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1)
}

/// A timing metric as reported: the median over the window's segments
/// (or a simulator's repetitions), their interquartile range, and how
/// many raw samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over segments.
    pub value: f64,
    /// Interquartile range over segments.
    pub iqr: f64,
    /// Raw samples (calls, events, repetitions) behind the value.
    pub samples: u64,
}

impl Summary {
    /// Summarizes per-segment values. An empty slice yields NaN, which
    /// the report refuses to print.
    pub fn over(per_segment: &[f64], samples: u64) -> Summary {
        Summary {
            value: median(per_segment).unwrap_or(f64::NAN),
            iqr: iqr(per_segment),
            samples,
        }
    }

    /// A value that is a count or a whole-window ratio, with no segment
    /// spread of its own.
    pub fn exact(value: f64, samples: u64) -> Summary {
        Summary {
            value,
            iqr: 0.0,
            samples,
        }
    }
}

/// Sub-bucket bits per octave: 128 sub-buckets keep the relative
/// quantization error under 0.8 %, below every bound in BENCHMARK.json.
const SUB_BITS: u32 = 7;
const SUB_COUNT: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_COUNT;

/// Latency histogram over nanoseconds with logarithmic buckets. Fixed
/// size, so a window of millions of calls costs the same memory as an
/// empty one and `peak_rss_mb` measures the program, not the recorder.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Box<[u64]>,
    total: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("total", &self.total)
            .field("max", &self.max)
            .finish()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0u64; BUCKETS].into_boxed_slice(),
            total: 0,
            max: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value < SUB_COUNT as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros();
        let sub = (value >> (octave - SUB_BITS)) as usize & (SUB_COUNT - 1);
        (octave - SUB_BITS + 1) as usize * SUB_COUNT + sub
    }

    /// Lowest value of bucket `index` and the bucket's width.
    fn bounds(index: usize) -> (u64, u64) {
        if index < SUB_COUNT {
            return (index as u64, 1);
        }
        let octave = (index / SUB_COUNT) as u32 + SUB_BITS - 1;
        let sub = (index % SUB_COUNT) as u64;
        let width = 1u64 << (octave - SUB_BITS);
        ((1u64 << octave) + sub * width, width)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::index(nanos)] += 1;
        self.total += 1;
        self.max = self.max.max(nanos);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile of nanosecond samples in microseconds; NaN when
    /// empty, which the report refuses to print.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q).map_or(f64::NAN, |ns| ns / 1e3)
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket by
    /// rank. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut before = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if rank < (before + count) as f64 {
                let (low, width) = Self::bounds(index);
                let within = (rank - before as f64 + 0.5) / count as f64;
                let value = low as f64 + width as f64 * within;
                return Some(value.min(self.max as f64));
            }
            before += count;
        }
        Some(self.max as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_is_median_and_iqr_of_segments() {
        let s = Summary::over(&[10.0, 12.0, 11.0, 30.0, 9.0], 500);
        assert_eq!(s.value, 11.0);
        assert_eq!(s.iqr, 21.0 - 9.5);
        assert_eq!(s.samples, 500);
        assert!(Summary::over(&[], 0).value.is_nan());
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        // Every bucket starts where the previous one ended, and a value
        // maps to the bucket whose bounds contain it.
        let mut expected_low = 0u64;
        for index in 0..BUCKETS - 1 {
            let (low, width) = LogHistogram::bounds(index);
            assert_eq!(low, expected_low, "bucket {index}");
            assert_eq!(LogHistogram::index(low), index);
            assert_eq!(LogHistogram::index(low + width - 1), index);
            expected_low = low + width;
        }
        assert_eq!(LogHistogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_are_within_one_percent() {
        let mut h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.max(), 1_000_000);
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.999, 999_000.0)] {
            let got = h.quantile(q).unwrap();
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.quantile(1.0), Some(1_000_000.0));
        assert_eq!(LogHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn histogram_small_values_are_exact_and_merge_adds() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in [5u64, 5, 5, 7] {
            a.record(v);
        }
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), 100);
        assert!((a.quantile(0.5).unwrap() - 5.5).abs() < 0.51);
    }
}
