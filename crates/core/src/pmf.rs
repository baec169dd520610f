//! Empirical probability mass functions over durations.
//!
//! The paper's model (§5.3.1) estimates the response-time distribution of a
//! replica as the **discrete convolution** of three terms (Eq. 2):
//!
//! ```text
//! R_i = S_i + W_i + T_i
//! ```
//!
//! where the pmfs of the service time `S_i` and queuing delay `W_i` are
//! computed "based on the relative frequency of their values recorded in the
//! sliding window", and `T_i` is the most recently measured two-way
//! gateway-to-gateway delay (a point mass).
//!
//! [`Pmf`] implements exactly this: bucketed relative-frequency estimation
//! ([`Pmf::from_samples`]), point masses ([`Pmf::point`]), convolution
//! ([`Pmf::convolve`]), constant shifts ([`Pmf::shift_by`]), and the
//! distribution function `F(t) = P(X ≤ t)` ([`Pmf::cdf`]).
//!
//! # Bucketing convention
//!
//! A sample `d` falls into bucket `⌊d / w⌋` for bucket width `w`, and every
//! bucket is represented by its **lower edge**. This makes convolution exact
//! in index space (the mean of a convolution is the sum of the means) at the
//! cost of a uniform downward bias of at most one bucket width per term. The
//! experiments use `w = 1 ms` against deadlines of 100–200 ms, so the bias is
//! below 1% and identical for every replica, which leaves the *ranking* used
//! by the selection algorithm untouched.

use core::fmt;

use crate::aqua;
use crate::time::Duration;

/// How far the total probability mass of a [`Pmf`] may drift from 1 due to
/// floating-point rounding before it is considered a bug.
///
/// Every pmf is built normalized, but repeated convolutions (up to the
/// 32-fold queue convolution of the `QueueScaled` estimator), rebucketing
/// round-trips, and tail pruning each add rounding error on the order of
/// `len · f64::EPSILON` per pass. Empirically the deepest pipeline the model
/// runs (window 100, 32-fold convolution, 1 ms buckets) stays within ~1e-13;
/// `1e-9` leaves three orders of magnitude of headroom while still being far
/// below anything that could reorder replicas (the selection compares
/// probabilities that differ by ≥ 1/l ≥ 0.01).
///
/// Shared by [`Pmf::cdf`] (which clamps its prefix sum to 1.0 — sound only
/// while the excess is below this bound, enforced by a debug assertion),
/// [`Pmf::quantile`] (as the acceptance slack so `quantile(cdf(t)) == t`
/// despite rounding), and the mass-drift regression tests.
pub const MASS_TOLERANCE: f64 = 1e-9;

/// The bucket bound that truncates nothing.
///
/// The `*_within` operations take an inclusive bound on the bucket index
/// and drop every output bucket past it. All supports are non-negative, so
/// a sum reaches a bucket `≤ bound` only from terms at buckets `≤ bound`:
/// truncating each intermediate product leaves every bucket up to the
/// bound exactly as the untruncated chain computes it.
pub const UNBOUNDED: u64 = u64::MAX;

/// Errors from constructing or combining [`Pmf`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PmfError {
    /// No samples were provided; a relative-frequency estimate needs at
    /// least one.
    EmptySamples,
    /// The bucket width was zero.
    ZeroBucketWidth,
    /// Two pmfs with different bucket widths were combined.
    BucketMismatch {
        /// Bucket width of the left-hand operand.
        left: Duration,
        /// Bucket width of the right-hand operand.
        right: Duration,
    },
}

impl fmt::Display for PmfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmfError::EmptySamples => write!(f, "cannot build a pmf from zero samples"),
            PmfError::ZeroBucketWidth => write!(f, "pmf bucket width must be positive"),
            PmfError::BucketMismatch { left, right } => {
                write!(f, "pmf bucket widths differ: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for PmfError {}

/// A discrete probability mass function over [`Duration`] values.
///
/// # Examples
///
/// Build the response-time distribution of Eq. 2 from measurements:
///
/// ```
/// use aqua_core::pmf::Pmf;
/// use aqua_core::time::Duration;
///
/// # fn main() -> Result<(), aqua_core::pmf::PmfError> {
/// let ms = Duration::from_millis;
/// let bucket = ms(1);
/// let service = Pmf::from_samples([ms(90), ms(100), ms(110)], bucket)?;
/// let queuing = Pmf::from_samples([ms(0), ms(0), ms(20)], bucket)?;
/// let gateway_delay = ms(4);
///
/// let response = service.convolve(&queuing)?.shift_by(gateway_delay);
/// // P(response ≤ 120 ms): all service/queue combinations except the
/// // (110, 20) and (100, 20) pairs arrive in time.
/// assert!(response.cdf(ms(120)) > 0.7);
/// assert!(response.cdf(ms(200)) > 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Pmf {
    /// Bucket width; all probabilities refer to multiples of this.
    bucket: Duration,
    /// Index (in buckets) of the first entry of `probs`.
    offset: u64,
    /// `probs[i]` is the probability of bucket `offset + i`. Non-empty;
    /// first and last entries are non-zero and the sum is ~1, except for
    /// the result of a `*_within` operation, which stops at its bound.
    probs: Vec<f64>,
}

impl Pmf {
    /// Builds the relative-frequency pmf of a set of duration samples.
    ///
    /// This is the estimator of §5.3.1: each retained sample contributes
    /// `1/n` of probability mass to its bucket.
    ///
    /// # Errors
    ///
    /// Returns [`PmfError::EmptySamples`] when no samples are supplied and
    /// [`PmfError::ZeroBucketWidth`] for a zero bucket width.
    pub fn from_samples<I>(samples: I, bucket: Duration) -> Result<Pmf, PmfError>
    where
        I: IntoIterator<Item = Duration>,
    {
        if bucket.is_zero() {
            return Err(PmfError::ZeroBucketWidth);
        }
        let indices: Vec<u64> = samples
            .into_iter()
            .map(|d| d.as_nanos() / bucket.as_nanos())
            .collect();
        if indices.is_empty() {
            return Err(PmfError::EmptySamples);
        }
        let (lo, hi) = index_bounds(indices.iter().copied());
        let mut probs = vec![0.0; span(lo, hi)];
        let weight = 1.0 / indices.len() as f64;
        for idx in indices {
            accumulate(&mut probs, (idx - lo) as usize, weight);
        }
        Ok(Pmf {
            bucket,
            offset: lo,
            probs,
        })
    }

    /// A point mass concentrated on the bucket containing `value`.
    ///
    /// Used for the gateway-to-gateway delay `T_i`, for which the paper keeps
    /// only "its most recently measured value rather than recording its
    /// history" (§5.3.1).
    ///
    /// # Errors
    ///
    /// Returns [`PmfError::ZeroBucketWidth`] for a zero bucket width.
    pub fn point(value: Duration, bucket: Duration) -> Result<Pmf, PmfError> {
        if bucket.is_zero() {
            return Err(PmfError::ZeroBucketWidth);
        }
        Ok(Pmf {
            bucket,
            offset: value.as_nanos() / bucket.as_nanos(),
            probs: vec![1.0],
        })
    }

    /// Builds a pmf from explicit `(duration, weight)` pairs, normalizing
    /// the weights to sum to one.
    ///
    /// Useful for synthetic distributions in tests and benchmarks.
    ///
    /// # Errors
    ///
    /// Returns [`PmfError::EmptySamples`] if no pair has positive weight, or
    /// [`PmfError::ZeroBucketWidth`] for a zero bucket width.
    pub fn from_weighted<I>(pairs: I, bucket: Duration) -> Result<Pmf, PmfError>
    where
        I: IntoIterator<Item = (Duration, f64)>,
    {
        if bucket.is_zero() {
            return Err(PmfError::ZeroBucketWidth);
        }
        let entries: Vec<(u64, f64)> = pairs
            .into_iter()
            .filter(|(_, w)| *w > 0.0 && w.is_finite())
            .map(|(d, w)| (d.as_nanos() / bucket.as_nanos(), w))
            .collect();
        if entries.is_empty() {
            return Err(PmfError::EmptySamples);
        }
        let (lo, hi) = index_bounds(entries.iter().map(|(i, _)| *i));
        let mut probs = vec![0.0; span(lo, hi)];
        let total: f64 = entries.iter().map(|(_, w)| *w).sum();
        for (idx, w) in entries {
            accumulate(&mut probs, (idx - lo) as usize, w / total);
        }
        Ok(Pmf {
            bucket,
            offset: lo,
            probs,
        })
    }

    /// Builds a relative-frequency pmf directly from `(bucket index, count)`
    /// pairs, e.g. the incrementally maintained counts of a
    /// [`crate::window::BucketedWindow`].
    ///
    /// Semantically equivalent to [`Pmf::from_samples`] over the underlying
    /// samples, but O(distinct buckets) instead of O(samples): the window
    /// already paid the bucketing cost, one sample at a time.
    ///
    /// # Errors
    ///
    /// Returns [`PmfError::EmptySamples`] when every count is zero and
    /// [`PmfError::ZeroBucketWidth`] for a zero bucket width.
    pub fn from_bucket_counts<I>(counts: I, bucket: Duration) -> Result<Pmf, PmfError>
    where
        I: IntoIterator<Item = (u64, u32)>,
    {
        if bucket.is_zero() {
            return Err(PmfError::ZeroBucketWidth);
        }
        let entries: Vec<(u64, u32)> = counts.into_iter().filter(|(_, c)| *c > 0).collect();
        if entries.is_empty() {
            return Err(PmfError::EmptySamples);
        }
        let (lo, hi) = index_bounds(entries.iter().map(|(i, _)| *i));
        let total: u64 = entries.iter().map(|(_, c)| u64::from(*c)).sum();
        let mut probs = vec![0.0; span(lo, hi)];
        for (idx, count) in entries {
            accumulate(
                &mut probs,
                (idx - lo) as usize,
                f64::from(count) / total as f64,
            );
        }
        Ok(Pmf {
            bucket,
            offset: lo,
            probs,
        })
    }

    /// The bucket width this pmf is quantized to.
    #[inline]
    pub fn bucket_width(&self) -> Duration {
        self.bucket
    }

    /// The number of (contiguous) buckets in the support, including interior
    /// zero-probability buckets.
    #[inline]
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Returns `false`: a pmf always carries at least one bucket.
    ///
    /// Provided for iterator-style symmetry with [`Pmf::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total probability mass (≈ 1 up to floating-point rounding).
    pub fn mass(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// Smallest value with positive probability (bucket lower edge).
    pub fn support_min(&self) -> Duration {
        Duration::from_nanos(self.offset * self.bucket.as_nanos())
    }

    /// Largest value with positive probability (bucket lower edge).
    pub fn support_max(&self) -> Duration {
        Duration::from_nanos((self.offset + self.probs.len() as u64 - 1) * self.bucket.as_nanos())
    }

    /// The distribution function `F(t) = P(X ≤ t)`.
    ///
    /// This is the quantity `F_Ri(t)` fed to the selection algorithm.
    pub fn cdf(&self, t: Duration) -> f64 {
        let t_idx = t.as_nanos() / self.bucket.as_nanos();
        if t_idx < self.offset {
            return 0.0;
        }
        let upto = (t_idx - self.offset).min(self.probs.len() as u64 - 1) as usize;
        let sum = self.probs.iter().take(upto + 1).sum::<f64>();
        // The prefix sum can exceed 1 only by accumulated rounding error,
        // which MASS_TOLERANCE bounds; the clamp keeps F(t) a probability.
        debug_assert!(
            sum <= 1.0 + MASS_TOLERANCE,
            "pmf mass drifted beyond MASS_TOLERANCE: {sum}"
        );
        sum.min(1.0)
    }

    /// Turns the pmf into its cumulative prefix sums for repeated CDF
    /// lookups, summing in place.
    ///
    /// [`CdfTable::value_at`] returns exactly what [`Pmf::cdf`] would (the
    /// prefix sums are accumulated in the same left-to-right order, so the
    /// rounding is bit-identical), but each lookup is O(1) instead of O(n).
    /// `horizon` is the bound the pmf was built within ([`UNBOUNDED`] for
    /// an untruncated one): the last bucket at which the table is exact.
    pub fn into_cumulative(self, horizon: u64) -> CdfTable {
        let mut cum = self.probs;
        let mut acc = 0.0;
        for p in &mut cum {
            acc += *p;
            *p = acc;
        }
        CdfTable {
            bucket: self.bucket,
            offset: self.offset,
            cum,
            horizon,
        }
    }

    /// The survival function `P(X > t) = 1 − F(t)`.
    pub fn prob_gt(&self, t: Duration) -> f64 {
        (1.0 - self.cdf(t)).max(0.0)
    }

    /// Mean of the distribution (using bucket lower edges).
    pub fn mean(&self) -> Duration {
        let bucket_ns = self.bucket.as_nanos() as f64;
        let mean_idx: f64 = self
            .probs
            .iter()
            .enumerate()
            .map(|(i, p)| (self.offset as f64 + i as f64) * p)
            .sum();
        Duration::from_nanos((mean_idx * bucket_ns).round() as u64)
    }

    /// Standard deviation of the distribution.
    pub fn std_dev(&self) -> Duration {
        let mean_idx: f64 = self
            .probs
            .iter()
            .enumerate()
            .map(|(i, p)| (self.offset as f64 + i as f64) * p)
            .sum();
        let var_idx: f64 = self
            .probs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let d = self.offset as f64 + i as f64 - mean_idx;
                d * d * p
            })
            .sum();
        Duration::from_nanos((var_idx.sqrt() * self.bucket.as_nanos() as f64).round() as u64)
    }

    /// The `p`-quantile: the smallest bucket value `v` with `F(v) ≥ p`.
    ///
    /// `p` is clamped to `[0, 1]`. `quantile(1.0)` is the support maximum.
    pub fn quantile(&self, p: f64) -> Duration {
        let p = p.clamp(0.0, 1.0);
        let mut acc = 0.0;
        for (i, prob) in self.probs.iter().enumerate() {
            acc += prob;
            if acc + MASS_TOLERANCE >= p {
                return Duration::from_nanos((self.offset + i as u64) * self.bucket.as_nanos());
            }
        }
        self.support_max()
    }

    /// Iterates over `(bucket lower edge, probability)` pairs, skipping
    /// zero-probability buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (Duration, f64)> + '_ {
        let bucket_ns = self.bucket.as_nanos();
        self.probs
            .iter()
            .enumerate()
            .filter(|(_, p)| **p > 0.0)
            .map(move |(i, p)| {
                (
                    Duration::from_nanos((self.offset + i as u64) * bucket_ns),
                    *p,
                )
            })
    }

    /// Discrete convolution: the distribution of the **sum** of two
    /// independent variables (the independence assumption of §5.3).
    ///
    /// # Errors
    ///
    /// Returns [`PmfError::BucketMismatch`] if the bucket widths differ.
    pub fn convolve(&self, other: &Pmf) -> Result<Pmf, PmfError> {
        self.convolve_within(other, UNBOUNDED)
    }

    /// [`Pmf::convolve`] keeping only the buckets up to `bound` (see
    /// [`UNBOUNDED`]); at least the first bucket is always kept.
    ///
    /// # Errors
    ///
    /// Returns [`PmfError::BucketMismatch`] if the bucket widths differ.
    pub fn convolve_within(&self, other: &Pmf, bound: u64) -> Result<Pmf, PmfError> {
        if self.bucket != other.bucket {
            return Err(PmfError::BucketMismatch {
                left: self.bucket,
                right: other.bucket,
            });
        }
        let offset = self.offset + other.offset;
        let mut probs = Vec::new();
        convolve_into(
            &self.probs,
            &other.probs,
            &mut probs,
            kept_len(offset, bound),
        );
        // Convolution is a sum of all pairwise products, so the output mass
        // must equal the product of the input masses up to rounding — the
        // same invariant MASS_TOLERANCE bounds for the cdf clamp.
        debug_assert!(
            mass_conserved(&probs, self.mass() * other.mass(), bound),
            "convolution drifted probability mass beyond MASS_TOLERANCE"
        );
        Ok(Pmf {
            bucket: self.bucket,
            offset,
            probs,
        })
    }

    /// The distribution of the sum of `n` independent copies of this
    /// variable: the `q`-fold self-convolution of the `QueueScaled` wait
    /// estimate (`W ≈ S^{*q}`).
    ///
    /// Uses exponentiation by squaring — ⌊log₂ n⌋ squarings plus
    /// `popcount(n) − 1` accumulating convolutions (5 for `n = 32`, ≤ 8 for
    /// any `n ≤ 32`, versus `n` sequential convolutions) — and reuses
    /// `scratch`'s buffers across calls so the hot path allocates only the
    /// result vector.
    ///
    /// Intermediate products are tail-pruned with `epsilon` (see
    /// [`Pmf::prune_tails`]; `0.0` disables pruning), bounding the support
    /// growth that makes deep convolutions quadratic. `n = 0` yields the
    /// point mass at zero.
    pub fn self_convolve(&self, n: u32, epsilon: f64, scratch: &mut ConvScratch) -> Pmf {
        self.self_convolve_within(n, epsilon, scratch, UNBOUNDED)
    }

    /// [`Pmf::self_convolve`] keeping only the buckets up to `bound` (see
    /// [`UNBOUNDED`]) of every intermediate product. A finite bound already
    /// caps the support, and what pruning would cut from the truncated end
    /// is not a tail, so a bounded chain ignores `epsilon`.
    pub fn self_convolve_within(
        &self,
        n: u32,
        epsilon: f64,
        scratch: &mut ConvScratch,
        bound: u64,
    ) -> Pmf {
        if n == 0 {
            return Pmf {
                bucket: self.bucket,
                offset: 0,
                probs: vec![1.0],
            };
        }
        let epsilon = if bound == UNBOUNDED { epsilon } else { 0.0 };
        let mut base = std::mem::take(&mut scratch.base);
        base.clear();
        base.extend_from_slice(&self.probs);
        let mut base_offset = self.offset;
        let mut acc = std::mem::take(&mut scratch.acc);
        acc.clear();
        let mut acc_offset = 0u64;
        let mut have_acc = false;
        let mut tmp = std::mem::take(&mut scratch.tmp);
        let mut k = n;
        loop {
            if k & 1 == 1 {
                if have_acc {
                    acc_offset += base_offset;
                    convolve_into(&acc, &base, &mut tmp, kept_len(acc_offset, bound));
                    std::mem::swap(&mut acc, &mut tmp);
                    prune_in_place(&mut acc, &mut acc_offset, epsilon);
                } else {
                    acc.extend_from_slice(&base);
                    acc_offset = base_offset;
                    have_acc = true;
                }
            }
            k >>= 1;
            if k == 0 {
                break;
            }
            base_offset *= 2;
            convolve_into(&base, &base, &mut tmp, kept_len(base_offset, bound));
            std::mem::swap(&mut base, &mut tmp);
            prune_in_place(&mut base, &mut base_offset, epsilon);
        }
        scratch.base = base;
        scratch.tmp = tmp;
        // Pruning renormalizes, so the n-fold sum must keep the n-th power
        // of the input mass up to the shared MASS_TOLERANCE bound.
        debug_assert!(
            mass_conserved(&acc, self.mass().powi(n as i32), bound),
            "self-convolution drifted probability mass beyond MASS_TOLERANCE"
        );
        // `acc` moves into the result; the scratch slot refills next call.
        Pmf {
            bucket: self.bucket,
            offset: acc_offset,
            probs: acc,
        }
    }

    /// Drops up to `epsilon` of total probability mass from the two tails
    /// (at most `epsilon / 2` per tail) and renormalizes so the remaining
    /// mass equals the original.
    ///
    /// Bounds the support growth of repeated convolutions: far tails carry
    /// vanishing mass but widen every subsequent convolution quadratically.
    /// With `epsilon ≤ 1e-12` the CDF at any deadline moves by less than
    /// the pruned mass — orders of magnitude below the ≥ 1/l resolution of
    /// the window estimator — so replica *ranking* is unaffected.
    /// `epsilon ≤ 0` is a no-op.
    pub fn prune_tails(&mut self, epsilon: f64) {
        prune_in_place(&mut self.probs, &mut self.offset, epsilon);
    }

    /// Shifts the distribution right by a constant delay (adding a
    /// deterministic term, e.g. the latest gateway-to-gateway delay).
    ///
    /// Equivalent to convolving with [`Pmf::point`] but O(1).
    #[must_use]
    pub fn shift_by(mut self, delay: Duration) -> Pmf {
        self.offset += delay.as_nanos() / self.bucket.as_nanos();
        self
    }

    /// Re-quantizes the pmf to a different bucket width.
    ///
    /// Coarsening (larger buckets) merges mass and makes convolution —
    /// the dominant cost of the model (Figure 3) — cheaper at the price of
    /// timing resolution; refining spreads each bucket's mass onto its
    /// lower edge (no information is invented). Mass is preserved exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PmfError::ZeroBucketWidth`] for a zero target width.
    pub fn rebucket(&self, bucket: Duration) -> Result<Pmf, PmfError> {
        if bucket.is_zero() {
            return Err(PmfError::ZeroBucketWidth);
        }
        if bucket == self.bucket {
            return Ok(self.clone());
        }
        let old_ns = self.bucket.as_nanos();
        let new_ns = bucket.as_nanos();
        let entries = self
            .probs
            .iter()
            .enumerate()
            .filter(|(_, p)| **p > 0.0)
            .map(|(i, p)| ((self.offset + i as u64) * old_ns / new_ns, *p));
        let entries: Vec<(u64, f64)> = entries.collect();
        let (lo, hi) = index_bounds(entries.iter().map(|(i, _)| *i));
        let mut probs = vec![0.0; span(lo, hi)];
        for (idx, p) in entries {
            accumulate(&mut probs, (idx - lo) as usize, p);
        }
        Ok(Pmf {
            bucket,
            offset: lo,
            probs,
        })
    }

    /// A mixture of pmfs with the given non-negative weights (normalized).
    ///
    /// Used by the multi-method extension (§8 ext. 1): a request whose method
    /// is unknown ahead of time mixes the per-method distributions.
    ///
    /// # Errors
    ///
    /// Returns [`PmfError::EmptySamples`] when `parts` is empty or all
    /// weights are non-positive, and [`PmfError::BucketMismatch`] when the
    /// components disagree on bucket width.
    pub fn mixture(parts: &[(f64, &Pmf)]) -> Result<Pmf, PmfError> {
        let active: Vec<&(f64, &Pmf)> = parts
            .iter()
            .filter(|(w, _)| *w > 0.0 && w.is_finite())
            .collect();
        if active.is_empty() {
            return Err(PmfError::EmptySamples);
        }
        let bucket = active
            .first()
            .map(|(_, p)| p.bucket)
            .ok_or(PmfError::EmptySamples)?;
        for (_, pmf) in &active {
            if pmf.bucket != bucket {
                return Err(PmfError::BucketMismatch {
                    left: bucket,
                    right: pmf.bucket,
                });
            }
        }
        let total_w: f64 = active.iter().map(|(w, _)| *w).sum();
        let lo = index_bounds(active.iter().map(|(_, p)| p.offset)).0;
        let hi = index_bounds(
            active
                .iter()
                .map(|(_, p)| p.offset + p.probs.len() as u64 - 1),
        )
        .1;
        let mut probs = vec![0.0; span(lo, hi)];
        for (w, pmf) in &active {
            let scale = w / total_w;
            for (i, &p) in pmf.probs.iter().enumerate() {
                accumulate(&mut probs, (pmf.offset - lo) as usize + i, p * scale);
            }
        }
        Ok(Pmf {
            bucket,
            offset: lo,
            probs,
        })
    }
}

/// Dense discrete convolution of two probability vectors into `out`,
/// keeping the first `max_len` output buckets.
///
/// One branch-free axpy per non-zero `a[i]`, over the sub-slice of `out`
/// it lands on, so the inner loop vectorizes. Every slot accumulates its
/// products in ascending `i`, and the products with a zero `b[j]` it no
/// longer skips add `+0.0`: results are bit-for-bit those of the
/// historical `Pmf::convolve` loop.
#[aqua::hot_path]
fn convolve_into(a: &[f64], b: &[f64], out: &mut Vec<f64>, max_len: usize) {
    let len = (a.len() + b.len() - 1).min(max_len);
    out.clear();
    out.resize(len, 0.0);
    for (i, &p) in a.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let Some(slots) = out.get_mut(i..) else {
            break;
        };
        for (slot, &q) in slots.iter_mut().zip(b) {
            *slot += p * q;
        }
    }
}

/// Number of buckets from `offset` through `bound` inclusive, never less
/// than one: a product whose support starts past the bound keeps its first
/// bucket, which no lookup up to the bound can reach.
fn kept_len(offset: u64, bound: u64) -> usize {
    usize::try_from(bound.saturating_sub(offset).saturating_add(1)).unwrap_or(usize::MAX)
}

/// Whether `probs` sums to `expected` within [`MASS_TOLERANCE`] — or, for
/// a product truncated at a finite bound, to no more than that.
fn mass_conserved(probs: &[f64], expected: f64, bound: u64) -> bool {
    let drift = probs.iter().sum::<f64>() - expected;
    drift <= MASS_TOLERANCE && (bound != UNBOUNDED || drift >= -MASS_TOLERANCE)
}

/// Smallest and largest index produced by `indices`.
///
/// Callers guarantee a non-empty iterator (they return
/// [`PmfError::EmptySamples`] first); on an empty one the bounds come back
/// inverted (`u64::MAX`, `0`) and [`span`] reports the violation.
fn index_bounds<I: Iterator<Item = u64>>(indices: I) -> (u64, u64) {
    indices.fold((u64::MAX, 0), |(lo, hi), i| (lo.min(i), hi.max(i)))
}

/// Bucket count of the inclusive index range `[lo, hi]`.
fn span(lo: u64, hi: u64) -> usize {
    debug_assert!(lo <= hi, "pmf index bounds inverted: [{lo}, {hi}]");
    // aqua-lint: allow(no-panic-in-hot-path) a span beyond usize::MAX cannot be allocated anyway; failing loudly beats truncating
    usize::try_from(hi.saturating_sub(lo) + 1).expect("bucket span fits in usize")
}

/// Adds `w` of probability mass to `probs[idx]`.
///
/// Every caller derives `idx` from the same bounds that sized `probs`
/// (`idx = bucket - lo ≤ hi - lo < probs.len()`), so the slot always
/// exists; a debug assertion guards the invariant instead of a panic.
fn accumulate(probs: &mut [f64], idx: usize, w: f64) {
    if let Some(slot) = probs.get_mut(idx) {
        *slot += w;
    } else {
        debug_assert!(false, "pmf bucket index {idx} outside allocated span");
    }
}

/// Trims ≤ `epsilon / 2` of mass from each tail of `probs` (never below one
/// bucket) and rescales the survivors so total mass is unchanged.
fn prune_in_place(probs: &mut Vec<f64>, offset: &mut u64, epsilon: f64) {
    if epsilon <= 0.0 || probs.len() <= 1 {
        return;
    }
    let total: f64 = probs.iter().sum();
    let budget = epsilon * total * 0.5;
    let mut start = 0usize;
    let mut cut_front = 0.0;
    for &p in probs.iter().take(probs.len() - 1) {
        if cut_front + p > budget {
            break;
        }
        cut_front += p;
        start += 1;
    }
    let mut end = probs.len();
    let mut cut_back = 0.0;
    for &p in probs.iter().skip(start + 1).rev() {
        if cut_back + p > budget {
            break;
        }
        cut_back += p;
        end -= 1;
    }
    if start == 0 && end == probs.len() {
        return;
    }
    probs.truncate(end);
    probs.drain(..start);
    *offset += start as u64;
    let removed = cut_front + cut_back;
    if removed > 0.0 {
        let scale = total / (total - removed);
        for p in probs.iter_mut() {
            *p *= scale;
        }
    }
}

/// The cumulative prefix sums of a [`Pmf`]: an O(1)-per-query view of
/// `F(t)`, built once by [`Pmf::into_cumulative`] and memoized by the model
/// cache while a replica's windows are unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfTable {
    bucket: Duration,
    offset: u64,
    /// `cum[i] = Σ probs[..=i]`, accumulated left-to-right exactly like
    /// [`Pmf::cdf`] does.
    cum: Vec<f64>,
    /// The last bucket at which the table equals the full distribution's
    /// `F`; [`UNBOUNDED`] unless the source pmf was built within a bound.
    horizon: u64,
}

impl CdfTable {
    /// `F(t) = P(X ≤ t)` — identical to [`Pmf::cdf`] on the source pmf,
    /// including the rounding of the prefix sum, but without re-summing.
    ///
    /// Past the table's horizon (a caller bug, see [`CdfTable::covers`])
    /// the answer is the last prefix sum: a lower bound on `F(t)`, so a
    /// selection made from it can only be more redundant, never less.
    pub fn value_at(&self, t: Duration) -> f64 {
        debug_assert!(self.covers(t), "cdf lookup at {t} is past the horizon");
        let t_idx = t.as_nanos() / self.bucket.as_nanos();
        if t_idx < self.offset {
            return 0.0;
        }
        let upto = (t_idx - self.offset).min(self.cum.len() as u64 - 1) as usize;
        self.cum.get(upto).copied().unwrap_or(1.0).min(1.0)
    }

    /// Whether `t` lies within the horizon the table was built to, i.e.
    /// whether [`CdfTable::value_at`] is exact there.
    #[inline]
    pub fn covers(&self, t: Duration) -> bool {
        t.as_nanos() / self.bucket.as_nanos() <= self.horizon
    }

    /// The bucket width of the source pmf.
    #[inline]
    pub fn bucket_width(&self) -> Duration {
        self.bucket
    }

    /// Number of buckets covered (same as the source pmf's `len`).
    #[inline]
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// Always `false`; mirrors [`Pmf::is_empty`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Reusable buffers for [`Pmf::self_convolve`].
///
/// Holding one of these per model cache keeps the q-fold convolution free
/// of steady-state allocations: the squaring chain ping-pongs between the
/// `base` and `tmp` buffers, and `acc` seeds the result vector.
#[derive(Debug, Default)]
pub struct ConvScratch {
    base: Vec<f64>,
    acc: Vec<f64>,
    tmp: Vec<f64>,
}

impl ConvScratch {
    /// Creates an empty scratch space (buffers grow on first use).
    pub fn new() -> Self {
        ConvScratch::default()
    }
}

impl fmt::Debug for Pmf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pmf")
            .field("bucket", &self.bucket)
            .field("support", &(self.support_min()..=self.support_max()))
            .field("mean", &self.mean())
            .field("mass", &self.mass())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn from_samples_relative_frequency() {
        let pmf = Pmf::from_samples([ms(10), ms(10), ms(20), ms(30)], ms(1)).unwrap();
        let buckets: Vec<_> = pmf.buckets().collect();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0], (ms(10), 0.5));
        assert_eq!(buckets[1], (ms(20), 0.25));
        assert_eq!(buckets[2], (ms(30), 0.25));
        assert!((pmf.mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_samples_rejects_empty_and_zero_bucket() {
        assert_eq!(
            Pmf::from_samples(std::iter::empty(), ms(1)).unwrap_err(),
            PmfError::EmptySamples
        );
        assert_eq!(
            Pmf::from_samples([ms(1)], Duration::ZERO).unwrap_err(),
            PmfError::ZeroBucketWidth
        );
    }

    #[test]
    fn samples_within_a_bucket_collapse() {
        let pmf = Pmf::from_samples(
            [Duration::from_micros(100), Duration::from_micros(900)],
            ms(1),
        )
        .unwrap();
        assert_eq!(pmf.len(), 1);
        assert_eq!(pmf.cdf(Duration::ZERO), 1.0, "both samples map to bucket 0");
    }

    #[test]
    fn cdf_step_semantics() {
        let pmf = Pmf::from_samples([ms(10), ms(20)], ms(1)).unwrap();
        assert_eq!(pmf.cdf(ms(9)), 0.0);
        assert_eq!(pmf.cdf(ms(10)), 0.5);
        assert_eq!(pmf.cdf(ms(19)), 0.5);
        assert_eq!(pmf.cdf(ms(20)), 1.0);
        assert_eq!(pmf.cdf(ms(1000)), 1.0);
        assert!((pmf.prob_gt(ms(10)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn point_mass_cdf() {
        let pmf = Pmf::point(ms(5), ms(1)).unwrap();
        assert_eq!(pmf.cdf(ms(4)), 0.0);
        assert_eq!(pmf.cdf(ms(5)), 1.0);
        assert_eq!(pmf.mean(), ms(5));
        assert_eq!(pmf.support_min(), ms(5));
        assert_eq!(pmf.support_max(), ms(5));
    }

    #[test]
    fn convolution_of_points_adds() {
        let a = Pmf::point(ms(3), ms(1)).unwrap();
        let b = Pmf::point(ms(4), ms(1)).unwrap();
        let c = a.convolve(&b).unwrap();
        assert_eq!(c.mean(), ms(7));
        assert_eq!(c.cdf(ms(6)), 0.0);
        assert_eq!(c.cdf(ms(7)), 1.0);
    }

    #[test]
    fn convolution_mass_and_mean_additive() {
        let a = Pmf::from_samples([ms(1), ms(2), ms(2), ms(5)], ms(1)).unwrap();
        let b = Pmf::from_samples([ms(10), ms(30)], ms(1)).unwrap();
        let c = a.convolve(&b).unwrap();
        assert!((c.mass() - 1.0).abs() < 1e-9);
        assert_eq!(
            c.mean().as_nanos(),
            a.mean().as_nanos() + b.mean().as_nanos()
        );
    }

    #[test]
    fn convolution_commutes() {
        let a = Pmf::from_samples([ms(1), ms(4)], ms(1)).unwrap();
        let b = Pmf::from_samples([ms(2), ms(2), ms(9)], ms(1)).unwrap();
        let ab = a.convolve(&b).unwrap();
        let ba = b.convolve(&a).unwrap();
        for t in 0..20 {
            assert!((ab.cdf(ms(t)) - ba.cdf(ms(t))).abs() < 1e-12);
        }
    }

    #[test]
    fn convolution_bucket_mismatch_rejected() {
        let a = Pmf::point(ms(1), ms(1)).unwrap();
        let b = Pmf::point(ms(1), ms(2)).unwrap();
        assert!(matches!(
            a.convolve(&b).unwrap_err(),
            PmfError::BucketMismatch { .. }
        ));
    }

    #[test]
    fn shift_matches_point_convolution() {
        let a = Pmf::from_samples([ms(2), ms(6), ms(6)], ms(1)).unwrap();
        let shifted = a.clone().shift_by(ms(10));
        let convolved = a.convolve(&Pmf::point(ms(10), ms(1)).unwrap()).unwrap();
        for t in 0..30 {
            assert!((shifted.cdf(ms(t)) - convolved.cdf(ms(t))).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let pmf = Pmf::from_samples([ms(10), ms(20), ms(30), ms(40)], ms(1)).unwrap();
        assert_eq!(pmf.quantile(0.0), ms(10));
        assert_eq!(pmf.quantile(0.25), ms(10));
        assert_eq!(pmf.quantile(0.5), ms(20));
        assert_eq!(pmf.quantile(0.75), ms(30));
        assert_eq!(pmf.quantile(1.0), ms(40));
    }

    #[test]
    fn std_dev_of_point_is_zero() {
        assert_eq!(Pmf::point(ms(9), ms(1)).unwrap().std_dev(), Duration::ZERO);
    }

    #[test]
    fn std_dev_of_symmetric_two_point() {
        let pmf = Pmf::from_samples([ms(10), ms(20)], ms(1)).unwrap();
        assert_eq!(pmf.std_dev(), ms(5));
    }

    #[test]
    fn from_weighted_normalizes() {
        let pmf = Pmf::from_weighted([(ms(1), 1.0), (ms(2), 3.0)], ms(1)).unwrap();
        assert!((pmf.cdf(ms(1)) - 0.25).abs() < 1e-12);
        assert!((pmf.mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_weighted_ignores_nonpositive_weights() {
        let pmf = Pmf::from_weighted([(ms(1), -2.0), (ms(2), 0.0), (ms(3), 1.0)], ms(1)).unwrap();
        assert_eq!(pmf.support_min(), ms(3));
        assert!(matches!(
            Pmf::from_weighted([(ms(1), 0.0)], ms(1)).unwrap_err(),
            PmfError::EmptySamples
        ));
    }

    #[test]
    fn rebucket_coarsens_and_preserves_mass() {
        let pmf = Pmf::from_samples([ms(10), ms(11), ms(12), ms(19)], ms(1)).unwrap();
        let coarse = pmf.rebucket(ms(5)).unwrap();
        assert_eq!(coarse.bucket_width(), ms(5));
        assert!((coarse.mass() - 1.0).abs() < 1e-12);
        // 10, 11, 12 land in bucket 2 (= 10 ms); 19 in bucket 3 (= 15 ms).
        assert!((coarse.cdf(ms(10)) - 0.75).abs() < 1e-12);
        assert!((coarse.cdf(ms(15)) - 1.0).abs() < 1e-12);
        // Means agree within one coarse bucket.
        let diff = pmf.mean().as_millis_f64() - coarse.mean().as_millis_f64();
        assert!(diff.abs() <= 5.0, "{diff}");
    }

    #[test]
    fn rebucket_identity_and_refine() {
        let pmf = Pmf::from_samples([ms(10), ms(20)], ms(5)).unwrap();
        assert_eq!(pmf.rebucket(ms(5)).unwrap(), pmf);
        let fine = pmf.rebucket(ms(1)).unwrap();
        assert_eq!(fine.cdf(ms(10)), 0.5, "mass stays on lower edges");
        assert!((fine.mass() - 1.0).abs() < 1e-12);
        assert!(pmf.rebucket(Duration::ZERO).is_err());
    }

    #[test]
    fn rebucket_speeds_up_convolution_support() {
        let samples: Vec<Duration> = (0..50).map(|i| ms(100 + i * 7)).collect();
        let fine = Pmf::from_samples(samples, ms(1)).unwrap();
        let coarse = fine.rebucket(ms(10)).unwrap();
        assert!(coarse.len() < fine.len() / 5, "support shrank");
    }

    #[test]
    fn mixture_averages_cdfs() {
        let a = Pmf::point(ms(10), ms(1)).unwrap();
        let b = Pmf::point(ms(20), ms(1)).unwrap();
        let mix = Pmf::mixture(&[(1.0, &a), (3.0, &b)]).unwrap();
        assert!((mix.cdf(ms(10)) - 0.25).abs() < 1e-12);
        assert!((mix.cdf(ms(20)) - 1.0).abs() < 1e-12);
        assert!((mix.mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixture_rejects_empty_and_mismatched() {
        assert!(matches!(
            Pmf::mixture(&[]).unwrap_err(),
            PmfError::EmptySamples
        ));
        let a = Pmf::point(ms(1), ms(1)).unwrap();
        let b = Pmf::point(ms(1), ms(2)).unwrap();
        assert!(matches!(
            Pmf::mixture(&[(1.0, &a), (1.0, &b)]).unwrap_err(),
            PmfError::BucketMismatch { .. }
        ));
    }

    #[test]
    fn debug_is_informative() {
        let pmf = Pmf::point(ms(2), ms(1)).unwrap();
        let s = format!("{pmf:?}");
        assert!(s.contains("Pmf"), "{s}");
        assert!(s.contains("mean"), "{s}");
    }

    #[test]
    fn from_bucket_counts_matches_samples() {
        let samples = [ms(10), ms(10), ms(20), ms(30), ms(30), ms(30)];
        let by_samples = Pmf::from_samples(samples, ms(1)).unwrap();
        let by_counts = Pmf::from_bucket_counts([(10, 2), (20, 1), (30, 3)], ms(1)).unwrap();
        assert_eq!(by_counts.support_min(), by_samples.support_min());
        assert_eq!(by_counts.support_max(), by_samples.support_max());
        for t in 0..40 {
            assert!((by_counts.cdf(ms(t)) - by_samples.cdf(ms(t))).abs() < 1e-12);
        }
        assert!((by_counts.mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_bucket_counts_rejects_empty_and_zero_bucket() {
        assert_eq!(
            Pmf::from_bucket_counts([(3, 0)], ms(1)).unwrap_err(),
            PmfError::EmptySamples
        );
        assert_eq!(
            Pmf::from_bucket_counts([(3, 1)], Duration::ZERO).unwrap_err(),
            PmfError::ZeroBucketWidth
        );
    }

    #[test]
    fn cumulative_table_matches_cdf_exactly() {
        let pmf = Pmf::from_samples(
            (0..50).map(|i| ms(100 + (i * i) % 37)).collect::<Vec<_>>(),
            ms(1),
        )
        .unwrap();
        let table = pmf.clone().into_cumulative(UNBOUNDED);
        for t in 90..150 {
            assert_eq!(
                table.value_at(ms(t)),
                pmf.cdf(ms(t)),
                "cached cdf diverged at t = {t} ms"
            );
        }
        assert_eq!(table.value_at(Duration::ZERO), 0.0);
        assert_eq!(table.len(), pmf.len());
        assert_eq!(table.bucket_width(), pmf.bucket_width());
    }

    #[test]
    fn self_convolve_matches_sequential() {
        let pmf = Pmf::from_samples([ms(3), ms(5), ms(5), ms(9)], ms(1)).unwrap();
        let mut scratch = ConvScratch::new();
        for n in 0..=9u32 {
            let fast = pmf.self_convolve(n, 0.0, &mut scratch);
            let mut slow = Pmf::point(Duration::ZERO, ms(1)).unwrap();
            for _ in 0..n {
                slow = slow.convolve(&pmf).unwrap();
            }
            assert_eq!(fast.support_min(), slow.support_min(), "n = {n}");
            assert_eq!(fast.support_max(), slow.support_max(), "n = {n}");
            for t in 0..100 {
                assert!(
                    (fast.cdf(ms(t)) - slow.cdf(ms(t))).abs() < 1e-12,
                    "n = {n}, t = {t}"
                );
            }
        }
    }

    #[test]
    fn self_convolve_pruning_preserves_mass_and_cdf() {
        let pmf = Pmf::from_weighted([(ms(1), 1.0), (ms(2), 1e6), (ms(40), 1.0)], ms(1)).unwrap();
        let mut scratch = ConvScratch::new();
        let exact = pmf.self_convolve(8, 0.0, &mut scratch);
        let pruned = pmf.self_convolve(8, 1e-12, &mut scratch);
        assert!(pruned.len() <= exact.len(), "pruning never grows support");
        assert!((pruned.mass() - exact.mass()).abs() < MASS_TOLERANCE);
        for t in (0..400).step_by(7) {
            assert!(
                (pruned.cdf(ms(t)) - exact.cdf(ms(t))).abs() < 1e-9,
                "t = {t}"
            );
        }
    }

    #[test]
    fn prune_tails_drops_negligible_tails_only() {
        let mut pmf = Pmf::from_weighted(
            [
                (ms(1), 1e-15),
                (ms(10), 1.0),
                (ms(11), 1.0),
                (ms(90), 1e-15),
            ],
            ms(1),
        )
        .unwrap();
        let before = pmf.mass();
        pmf.prune_tails(1e-12);
        assert_eq!(pmf.support_min(), ms(10));
        assert_eq!(pmf.support_max(), ms(11));
        assert!((pmf.mass() - before).abs() < 1e-15, "mass renormalized");
        // A zero epsilon is a no-op.
        let copy = pmf.clone();
        pmf.prune_tails(0.0);
        assert_eq!(pmf, copy);
    }

    #[test]
    fn mass_drift_bounded_after_repeated_convolve_rebucket_round_trips() {
        // Regression for the MASS_TOLERANCE contract: a deep pipeline of
        // convolutions, rebucket round-trips, and pruning must keep the
        // total mass within the documented bound, or the cdf clamp and the
        // quantile slack stop being sound.
        let samples: Vec<Duration> = (0..100).map(|i| ms(50 + (i * 13) % 97)).collect();
        let base = Pmf::from_samples(samples, ms(1)).unwrap();
        let mut scratch = ConvScratch::new();
        let mut acc = base.self_convolve(32, 1e-12, &mut scratch);
        for _ in 0..8 {
            acc = acc.rebucket(ms(5)).unwrap().rebucket(ms(1)).unwrap();
            acc = acc.convolve(&base).unwrap();
            acc.prune_tails(1e-12);
        }
        let drift = (acc.mass() - 1.0).abs();
        assert!(
            drift < MASS_TOLERANCE,
            "mass drifted by {drift:e} — exceeds MASS_TOLERANCE"
        );
        // quantile/cdf still agree at the drifted mass: the p = 1.0 quantile
        // may land before the last bucket (the slack forgives a sub-tolerance
        // tail), but its cdf must be 1.0 up to the documented bound.
        let q = acc.quantile(1.0);
        assert!(q <= acc.support_max());
        assert!(acc.cdf(q) >= 1.0 - MASS_TOLERANCE);
        assert_eq!(acc.cdf(acc.support_max()), 1.0, "clamped at full mass");
    }

    /// The loop `convolve_into` replaced, kept as the reference the new
    /// kernel must reproduce bit for bit.
    fn convolve_reference(a: &[f64], b: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(a.len() + b.len() - 1, 0.0);
        for (i, &p) in a.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            for (slot, &q) in out.iter_mut().skip(i).zip(b.iter()) {
                if q == 0.0 {
                    continue;
                }
                *slot += p * q;
            }
        }
    }

    #[test]
    fn bounded_convolution_is_exact_up_to_the_bound() {
        let a = Pmf::from_samples([ms(3), ms(5), ms(5), ms(9)], ms(1)).unwrap();
        let b = Pmf::from_samples([ms(2), ms(2), ms(30)], ms(1)).unwrap();
        let full = a.convolve(&b).unwrap();
        for bound in 0..45u64 {
            let cut = a.convolve_within(&b, bound).unwrap();
            assert!(cut.mass() <= full.mass() + 1e-15);
            for t in 0..=bound {
                assert_eq!(cut.cdf(ms(t)), full.cdf(ms(t)), "bound {bound}, t {t}");
            }
        }
        // Support starting past the bound: one bucket survives, out of reach.
        let cut = a.convolve_within(&b, 4).unwrap();
        assert_eq!(cut.len(), 1);
        assert_eq!(cut.cdf(ms(4)), 0.0);
    }

    #[test]
    fn bounded_self_convolution_skips_pruning_and_stays_exact() {
        let pmf = Pmf::from_weighted([(ms(1), 1.0), (ms(2), 1e6), (ms(40), 1.0)], ms(1)).unwrap();
        let mut scratch = ConvScratch::new();
        for n in 0..=32u32 {
            let exact = pmf.self_convolve(n, 0.0, &mut scratch);
            let cut = pmf.self_convolve_within(n, 1e-3, &mut scratch, 60);
            assert!(cut.support_max() <= ms(60) || cut.len() == 1, "n = {n}");
            for t in 0..=60 {
                assert_eq!(cut.cdf(ms(t)), exact.cdf(ms(t)), "n = {n}, t = {t}");
            }
        }
    }

    #[test]
    fn table_reports_what_it_covers() {
        let pmf = Pmf::from_samples([ms(10), ms(20)], ms(1)).unwrap();
        let bounded = pmf.clone().into_cumulative(15);
        assert!(bounded.covers(ms(15)) && !bounded.covers(ms(16)));
        assert_eq!(bounded.value_at(ms(15)), 0.5);
        assert!(pmf.into_cumulative(UNBOUNDED).covers(Duration::MAX));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past the horizon")]
    fn lookup_past_the_horizon_is_flagged_in_debug_builds() {
        let table = Pmf::point(ms(3), ms(1)).unwrap().into_cumulative(5);
        let _ = table.value_at(ms(6));
    }

    mod kernel {
        use super::*;
        use proptest::prelude::*;

        /// Probability-like vectors with exact zeros mixed in, down to a
        /// single bucket.
        fn weights() -> impl Strategy<Value = Vec<f64>> {
            prop::collection::vec(prop_oneof![2 => 0.0f64..1.0, 1 => Just(0.0f64)], 1..120)
        }

        proptest! {
            #[test]
            fn dense_kernel_matches_the_old_loop_bit_for_bit(
                a in weights(),
                b in weights(),
                max_len in 1usize..260,
            ) {
                let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                let (mut old, mut new) = (Vec::new(), Vec::new());
                convolve_reference(&a, &b, &mut old);
                convolve_into(&a, &b, &mut new, usize::MAX);
                prop_assert_eq!(bits(&old), bits(&new));
                // A bounded call is a prefix of the full product.
                convolve_into(&a, &b, &mut new, max_len);
                old.truncate(max_len);
                prop_assert_eq!(bits(&old), bits(&new));
            }
        }
    }
}
