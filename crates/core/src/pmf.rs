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
//! A planner never needs the whole distribution, only `F` at `t − δ`.
//! [`CdfTable`] answers that point query without a final convolution: it
//! keeps the service term's sparse counts and one cumulative count vector
//! for the rest, in exact integer arithmetic.
//!
//! A `QueueScaled` table, `R = S^{*(q+1)}`, built to a horizon at a queue
//! depth `q` of 2–5 also keeps `P2 = S⊛S` (and `P3 = S⊛S⊛S` for `q` of 4
//! or 5), and factorises `R` from them: it sums over `S`, `P2` or `P3`
//! and cumulates `P2` or `P3`. The table that replaces it refreshes those
//! powers from the few buckets of `S` that moved, `D = S_new − S_old`:
//!
//! ```text
//! P3 += 3·P2⊛D + 3·S⊛D⊛D + D⊛D⊛D
//! P2 += 2·S⊛D + D⊛D
//! ```
//!
//! instead of squaring `S` again. Every entry is an integer count, so a
//! refreshed table reads what a fresh one does, bit for bit.
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
use std::sync::OnceLock;

use crate::aqua;
use crate::time::Duration;

/// How far the total probability mass of a [`Pmf`] may drift from 1 due to
/// floating-point rounding before it is considered a bug.
///
/// Every pmf is built normalized, but repeated convolutions (up to the
/// 32-fold queue convolution of the `QueueScaled` estimator) and tail
/// pruning each add rounding error on the order of
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
pub struct Pmf {
    /// Bucket width; all probabilities refer to multiples of this.
    bucket: Duration,
    /// Index (in buckets) of the first entry of `probs`.
    offset: u64,
    /// `probs[i]` is the probability of bucket `offset + i`. Non-empty;
    /// first and last entries are non-zero and the sum is ~1.
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
        if self.bucket != other.bucket {
            return Err(PmfError::BucketMismatch {
                left: self.bucket,
                right: other.bucket,
            });
        }
        let mut probs = Vec::new();
        convolve_into(&self.probs, &other.probs, &mut probs, usize::MAX);
        // Convolution is a sum of all pairwise products, so the output mass
        // must equal the product of the input masses up to rounding — the
        // same invariant MASS_TOLERANCE bounds for the cdf clamp.
        debug_assert!(
            mass_conserved(&probs, self.mass() * other.mass()),
            "convolution drifted probability mass beyond MASS_TOLERANCE"
        );
        Ok(Pmf {
            bucket: self.bucket,
            offset: self.offset + other.offset,
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
    /// `prune_in_place`; `0.0` disables pruning), bounding the support
    /// growth that makes deep convolutions quadratic. `n = 0` yields the
    /// point mass at zero.
    pub fn self_convolve(&self, n: u32, epsilon: f64, scratch: &mut ConvScratch) -> Pmf {
        scratch.base.clear();
        scratch.base.extend_from_slice(&self.probs);
        // The full product, not the symmetric square: fractional weights
        // round differently in another order, and this chain keeps its sums.
        let (offset, probs) = scratch.power(self.offset, n, None, epsilon, |a, out, max_len| {
            convolve_into(a, a, out, max_len)
        });
        // Pruning renormalizes, so the n-fold sum must keep the n-th power
        // of the input mass up to the shared MASS_TOLERANCE bound.
        debug_assert!(
            mass_conserved(&probs, self.mass().powi(n as i32)),
            "self-convolution drifted probability mass beyond MASS_TOLERANCE"
        );
        Pmf {
            bucket: self.bucket,
            offset,
            probs,
        }
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

/// `a ⊛ a` into `out`, keeping the first `max_len` buckets, with half the
/// multiplications of [`convolve_into`]: the square is symmetric, so each
/// cross product `a[i]·a[j]`, `i < j`, is taken once and doubled. Every
/// slot accumulates in ascending `i`, so a kept slot does not depend on
/// `max_len`, and on integer-valued weights whose sums stay below 2^53 the
/// result equals `convolve_into(a, a, ..)` exactly.
#[aqua::hot_path]
fn square_into(a: &[f64], out: &mut Vec<f64>, max_len: usize) {
    let len = (2 * a.len()).saturating_sub(1).min(max_len);
    out.clear();
    out.resize(len, 0.0);
    for (i, &p) in a.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let Some((diagonal, cross)) = out.get_mut(2 * i..).and_then(<[f64]>::split_first_mut)
        else {
            break;
        };
        *diagonal += p * p;
        let twice = p + p;
        for (slot, &q) in cross.iter_mut().zip(a.get(i + 1..).unwrap_or_default()) {
            *slot += twice * q;
        }
    }
}

/// Number of buckets from `offset` through `bound` inclusive (all of them
/// without a bound), never less than one: a product whose support starts
/// past the bound keeps its first bucket, which no lookup up to the bound
/// can reach.
fn len_within(offset: u64, bound: Option<u64>) -> usize {
    bound.map_or(usize::MAX, |bound| {
        usize::try_from(bound.saturating_sub(offset)).map_or(usize::MAX, |n| n.saturating_add(1))
    })
}

/// Whether `probs` sums to `expected` within [`MASS_TOLERANCE`].
fn mass_conserved(probs: &[f64], expected: f64) -> bool {
    (probs.iter().sum::<f64>() - expected).abs() <= MASS_TOLERANCE
}

/// Turns weights into their running totals, left to right, in place.
fn prefix_sums(weights: &mut [f64]) {
    let mut acc = 0.0;
    for w in weights {
        acc += *w;
        *w = acc;
    }
}

/// Writes ascending sparse `(bucket, count)` pairs into `out` as dense
/// integer-valued weights; returns their first bucket, or `None` for no
/// pairs.
fn spread(counts: &[(u64, u32)], out: &mut Vec<f64>) -> Option<u64> {
    let &(first, _) = counts.first()?;
    let &(last, _) = counts.last()?;
    out.clear();
    out.resize(span(first, last), 0.0);
    for &(at, count) in counts {
        accumulate(out, (at - first) as usize, f64::from(count));
    }
    Some(first)
}

/// The number of samples behind `(bucket, count)` pairs, as a weight.
fn total_count(counts: &[(u64, u32)]) -> f64 {
    counts
        .iter()
        .map(|&(_, count)| u64::from(count))
        .sum::<u64>() as f64
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
///
/// Bounds the support growth of repeated convolutions: far tails carry
/// vanishing mass but widen every subsequent convolution quadratically.
/// With `epsilon ≤ 1e-12` the CDF at any deadline moves by less than the
/// pruned mass — orders of magnitude below the ≥ 1/l resolution of the
/// window estimator — so replica *ranking* is unaffected. `epsilon ≤ 0` is
/// a no-op.
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

/// The wait term `W` of Eq. 2, as [`CdfTable::of_counts`] takes it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wait<'a> {
    /// A queuing-delay window's `(bucket, count)` pairs.
    Counts(&'a [(u64, u32)]),
    /// `S^{*q}`: the service counts convolved with themselves `q` times.
    ServiceFold(u32),
}

/// The gateway-delay term `T` of Eq. 2, as [`CdfTable::of_counts`] takes it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Delay<'a> {
    /// A point mass: shifts the sum right by this many buckets.
    Shift(u64),
    /// A delay window's `(bucket, count)` pairs, convolved into `W`.
    Counts(&'a [(u64, u32)]),
}

/// 2^53: below it an `f64` holds every integer exactly, so sums of
/// integer counts that stay below it are exact in any order.
const EXACT_BELOW: f64 = 9_007_199_254_740_992.0;

/// The most buckets a service window may have moved by since the table a
/// rebuild replaces for the new table to refresh that one's kept powers.
const MAX_MOVED: usize = 8;

/// The most samples a service window may hold for its table to keep
/// powers of `S`: every partial sum of a refresh between two such tables
/// is then below `16 · (2^16)³ = 2^52`.
const MAX_FACTORED_SAMPLES: f64 = 65_536.0;

/// A term of `R = S^{*(q+1)}` that a table sums over or keeps cumulated:
/// the service counts, or one of the powers it keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Term {
    /// `S`, as its sparse `(bucket, count)` pairs.
    Service,
    /// `P2 = S⊛S`.
    Square,
    /// `P3 = S⊛S⊛S`.
    Cube,
}

impl Term {
    /// How many copies of `S` the term sums: its first bucket is this
    /// many times `S`'s.
    fn degree(self) -> u64 {
        match self {
            Term::Service => 1,
            Term::Square => 2,
            Term::Cube => 3,
        }
    }
}

/// The `(outer, inner)` factors of `S^{*(q+1)}` taken from kept powers,
/// for the queue depths that have them.
fn factors(q: u32) -> Option<(Term, Term)> {
    match q {
        2 => Some((Term::Service, Term::Square)),
        3 => Some((Term::Square, Term::Square)),
        4 => Some((Term::Square, Term::Cube)),
        5 => Some((Term::Cube, Term::Cube)),
        _ => None,
    }
}

/// The powers of its service counts a table keeps, dense from bucket 0
/// through its horizon bucket: `square` when `q ≥ 2` factorises, `cube`
/// too when `q ∈ {4, 5}`, each empty when not kept.
#[derive(Debug, Clone, Default)]
struct Powers {
    square: Vec<f64>,
    cube: Vec<f64>,
    /// Whether they were refreshed from the replaced table's, not built.
    refreshed: bool,
}

impl Powers {
    /// The weights of a kept power, dense from bucket 0.
    fn of(&self, term: Term) -> &[f64] {
        match term {
            Term::Service => &[],
            Term::Square => &self.square,
            Term::Cube => &self.cube,
        }
    }
}

/// `S_new − S_old` between two service windows: the buckets whose counts
/// differ, with signed count changes, at most [`MAX_MOVED`] of them.
#[derive(Debug)]
struct Moved {
    len: usize,
    pairs: [(u64, f64); MAX_MOVED],
}

impl Moved {
    /// One merge-walk of the two ascending pair lists; `None` when more
    /// than [`MAX_MOVED`] buckets differ.
    fn between(old: &[(u64, u32)], new: &[(u64, u32)]) -> Option<Moved> {
        let mut moved = Moved {
            len: 0,
            pairs: [(0, 0.0); MAX_MOVED],
        };
        let (mut old, mut new) = (old.iter(), new.iter());
        let (mut left, mut right) = (old.next(), new.next());
        loop {
            let (at, by) = match (left, right) {
                (None, None) => return Some(moved),
                (Some(&(a, x)), Some(&(b, y))) if a == b => {
                    (left, right) = (old.next(), new.next());
                    if x == y {
                        continue;
                    }
                    (a, f64::from(y) - f64::from(x))
                }
                (Some(&(a, x)), Some(&(b, _))) if a < b => {
                    left = old.next();
                    (a, -f64::from(x))
                }
                (Some(&(a, x)), None) => {
                    left = old.next();
                    (a, -f64::from(x))
                }
                (_, Some(&(b, y))) => {
                    right = new.next();
                    (b, f64::from(y))
                }
            };
            *moved.pairs.get_mut(moved.len)? = (at, by);
            moved.len += 1;
        }
    }

    fn pairs(&self) -> &[(u64, f64)] {
        self.pairs.get(..self.len).unwrap_or_default()
    }
}

/// A bucket as an index into a vector dense from bucket 0.
fn index(bucket: u64) -> usize {
    usize::try_from(bucket).unwrap_or(usize::MAX)
}

/// Adds `scale` times the convolution of `left` and `right` to `out`,
/// dense from bucket 0, at the buckets it holds.
fn add_products(
    out: &mut [f64],
    scale: f64,
    left: impl Iterator<Item = (u64, f64)>,
    right: &[(u64, f64)],
) {
    for (a, x) in left {
        let x = scale * x;
        for &(b, y) in right {
            if let Some(slot) = out.get_mut(index(a + b)) {
                *slot += x * y;
            }
        }
    }
}

/// Makes `weights`, whose first entry is bucket `offset`, dense from
/// bucket 0 with exactly `len` entries.
fn from_zero(weights: &mut Vec<f64>, offset: u64, len: usize) {
    let offset = index(offset).min(len);
    weights.truncate(len - offset);
    weights.resize(len, 0.0);
    weights.rotate_right(offset);
}

/// `F(t) = P(R ≤ t)` of Eq. 2's response time `R = S + (W + T)`, answered
/// as a point query over the integer counts of its terms. The outer term
/// (`S` as its sparse `(bucket, count)` pairs, or a power of `S` the table
/// keeps) is summed over, and the rest is one cumulative count vector
/// `Wcum`, so
///
/// ```text
/// F(t) = Σ_a s[a] · Wcum[t − a] / (|S|·|W|)
/// ```
///
/// costs one multiply-add per bucket of the outer term and one division —
/// no convolution of the outer term with the rest, and nothing built past
/// the buckets a lookup can reach.
///
/// The first bucket a table is read at is memoized with its value, so a
/// planner reading every table at the same `t − δ` pays the sum once per
/// table. The memo is transparent: a lookup returns the same value whether
/// it hits or not.
#[derive(Debug, Clone)]
pub struct CdfTable {
    bucket: Duration,
    /// The service window's `(bucket, count)` pairs, ascending by bucket.
    service: Vec<(u64, u32)>,
    /// The term [`CdfTable::value_at`] sums over.
    outer: Term,
    /// The powers of `S` kept for the next table to refresh from.
    powers: Powers,
    /// The bucket `cum[0]` describes.
    offset: u64,
    /// `cum[i]`: the count of `W + T` at buckets `≤ offset + i`. Non-empty.
    cum: Vec<f64>,
    /// `|S|·|W|` (times `|T|` for a delay window): `F(t)` is the count of
    /// sums `≤ t` over this.
    total: f64,
    /// The last bucket at which the table equals the full distribution's
    /// `F`; `None` when it is exact everywhere.
    horizon: Option<u64>,
    /// The first bucket read and its value.
    memo: OnceLock<(u64, f64)>,
}

impl CdfTable {
    /// The table of Eq. 2's `R = S + W + T` from the integer counts of its
    /// terms: the `service` counts become the outer term (or a power of
    /// them, below), and the inner one is `W` (convolved with the delay
    /// window's counts for a windowed `T`; a point-mass `T` shifts the sum
    /// instead).
    ///
    /// Every weight is an integer held in an `f64`, so every sum is exact
    /// while the total `|S|·|W|` (times `|T|` for a delay window) stays
    /// below 2^53, and [`CdfTable::value_at`] returns the exact rational
    /// rounded once. `S^{*q}` doubles its operand's weights with each
    /// squaring; past 2^53 the sums round like any float arithmetic.
    ///
    /// With an inclusive `horizon` bucket, every product keeps only the
    /// inner buckets a lookup up to it can reach, `horizon − T − min outer`:
    /// all supports are non-negative, so a kept bucket sums exactly the
    /// products the untruncated one does, and the table agrees with an
    /// unbounded one bit for bit up to the horizon.
    ///
    /// A bounded `S^{*q}` table with `q ∈ 2..=5` whose total stays below
    /// 2^53, over at most [`MAX_FACTORED_SAMPLES`] service samples,
    /// factorises `R = S^{*(q+1)}` from kept powers `P2 = S⊛S` and
    /// `P3 = S⊛S⊛S` ([`factors`]). Those are refreshed from `held`, the
    /// table this one replaces, when it kept them to the same horizon and
    /// the service counts moved in at most [`MAX_MOVED`] buckets; else they
    /// are built by squaring. Every other table sums over `S` and builds
    /// its inner term by the squaring chain of [`ConvScratch::power`].
    ///
    /// `None` when `service` or a window in use is empty.
    ///
    /// The table's vectors come from `scratch`'s spares (see
    /// [`ConvScratch::recycle`]), so a rebuild that recycled the table it
    /// replaces allocates nothing.
    #[aqua::hot_path]
    pub(crate) fn of_counts(
        bucket: Duration,
        service: &[(u64, u32)],
        wait: Wait<'_>,
        delay: Delay<'_>,
        horizon: Option<u64>,
        held: Option<&CdfTable>,
        scratch: &mut ConvScratch,
    ) -> Option<CdfTable> {
        let &(first, _) = service.first()?;
        let service_total = total_count(service);
        let (shift, delay_total) = match delay {
            Delay::Shift(buckets) => (buckets, 1.0),
            Delay::Counts(counts) => (0, total_count(counts)),
        };
        let factored = match (wait, horizon) {
            (Wait::ServiceFold(q), Some(horizon))
                if service_total.powi(q as i32 + 1) * delay_total < EXACT_BELOW
                    && service_total <= MAX_FACTORED_SAMPLES =>
            {
                factors(q).map(|factors| (factors, horizon))
            }
            _ => None,
        };
        let outer = factored.map_or(Term::Service, |((outer, _), _)| outer);
        let reach = horizon.map(|h| h.saturating_sub(shift.saturating_add(outer.degree() * first)));
        let mut powers = Powers::default();
        let (mut offset, mut inner, mut inner_total) = match (wait, factored) {
            (Wait::Counts(counts), _) => {
                let mut dense = scratch.spare_weights();
                (spread(counts, &mut dense)?, dense, total_count(counts))
            }
            (Wait::ServiceFold(q), Some(((_, kept), horizon))) => {
                let cube = outer == Term::Cube || kept == Term::Cube;
                let held = held.filter(|held| held.bucket == bucket);
                powers = scratch.powers(service, horizon, cube, held);
                let from = kept.degree() * first;
                let mut dense = scratch.spare_weights();
                let weights = powers.of(kept).iter().skip(index(from));
                dense.extend(weights.take(len_within(from, reach)));
                if dense.is_empty() {
                    // Starts past the horizon: no lookup up to it reads it.
                    dense.push(0.0);
                }
                (from, dense, service_total.powi(q as i32))
            }
            (Wait::ServiceFold(q), None) => {
                spread(service, &mut scratch.base)?;
                let (offset, fold) = scratch.power(first, q, reach, 0.0, square_into);
                (offset, fold, service_total.powi(q as i32))
            }
        };
        if let Delay::Counts(counts) = delay {
            offset += spread(counts, &mut scratch.base)?;
            let kept = len_within(offset, reach);
            convolve_into(&inner, &scratch.base, &mut scratch.tmp, kept);
            std::mem::swap(&mut inner, &mut scratch.tmp);
            inner_total *= delay_total;
        }
        inner.truncate(len_within(offset, reach));
        prefix_sums(&mut inner);
        let mut pairs = scratch.spare_pairs();
        pairs.extend_from_slice(service);
        Some(CdfTable {
            bucket,
            service: pairs,
            outer,
            powers,
            offset: shift + offset,
            cum: inner,
            total: service_total * inner_total,
            horizon,
            memo: OnceLock::new(),
        })
    }

    /// `F(t) = P(R ≤ t)`, the exact rational rounded once while the
    /// table's total stays below 2^53.
    ///
    /// Past the table's horizon (a caller bug, see [`CdfTable::covers`])
    /// the answer sums the last weights kept: a lower bound on `F(t)`, so a
    /// selection made from it can only be more redundant, never less.
    #[aqua::hot_path]
    pub fn value_at(&self, t: Duration) -> f64 {
        debug_assert!(self.covers(t), "cdf lookup at {t} is past the horizon");
        let at = t.as_nanos() / self.bucket.as_nanos();
        match self.memo.get() {
            Some(&(memo_at, value)) if memo_at == at => value,
            _ => {
                let value = self.sum_at(at);
                // Only the first bucket read is kept; a set that loses a
                // race to another reader's keeps theirs, which is as good.
                let _ = self.memo.set((at, value));
                value
            }
        }
    }

    /// `F` at bucket `at`, summed over the outer term's buckets.
    #[aqua::hot_path]
    fn sum_at(&self, at: u64) -> f64 {
        let Some(reach) = at.checked_sub(self.offset) else {
            return 0.0;
        };
        let sum = match self.outer {
            Term::Service => {
                let weights = self.service.iter().map(|&(a, n)| (a, f64::from(n)));
                self.fold(reach, weights)
            }
            power => {
                let from = power.degree() * self.first_bucket();
                let weights = self.powers.of(power).iter().skip(index(from));
                self.fold(reach, (from..).zip(weights.copied()))
            }
        };
        (sum / self.total).min(1.0)
    }

    /// `Σ_a w_a · cum[reach − a]` over the ascending `(a, w_a)` of the
    /// outer term, reading `cum`'s last entry past its end.
    #[inline]
    fn fold(&self, reach: u64, outer: impl Iterator<Item = (u64, f64)>) -> f64 {
        let last = self.cum.len().saturating_sub(1);
        let mut sum = 0.0;
        for (a, weight) in outer {
            // Ascending buckets: once one is past reach, all later are.
            let Some(upto) = reach.checked_sub(a) else {
                break;
            };
            let upto = usize::try_from(upto).map_or(last, |upto| upto.min(last));
            sum += weight * self.cum.get(upto).copied().unwrap_or(0.0);
        }
        sum
    }

    /// The service window's first bucket.
    fn first_bucket(&self) -> u64 {
        self.service.first().map_or(0, |&(at, _)| at)
    }

    /// Whether `t` lies within the horizon the table was built to, i.e.
    /// whether [`CdfTable::value_at`] is exact there.
    #[inline]
    pub fn covers(&self, t: Duration) -> bool {
        self.horizon
            .is_none_or(|horizon| t.as_nanos() / self.bucket.as_nanos() <= horizon)
    }

    /// The bucket width of the windows the table was built from.
    #[inline]
    pub fn bucket_width(&self) -> Duration {
        self.bucket
    }

    /// Whether the powers of `S` this table keeps were refreshed from the
    /// table it replaced, rather than built by squaring.
    #[inline]
    pub fn is_refreshed(&self) -> bool {
        self.powers.refreshed
    }
}

/// Reusable buffers for [`Pmf::self_convolve`] and the tables of
/// [`CdfTable::of_counts`].
///
/// Holding one of these per table memo keeps rebuilding tables free of
/// steady-state allocations: the squaring chain ping-pongs between the
/// `base` and `tmp` buffers, and every vector a table keeps — its service
/// pairs, its cumulative counts, its kept powers, the `q = 0` unit mass,
/// the power chain's result, the `History` spread — is taken from the
/// spares that `ConvScratch::recycle` returns retired tables' vectors to.
#[derive(Debug, Default)]
pub struct ConvScratch {
    base: Vec<f64>,
    tmp: Vec<f64>,
    /// Weight vectors of recycled tables, cleared.
    weights: Vec<Vec<f64>>,
    /// Service-pair vectors of recycled tables, cleared.
    pairs: Vec<Vec<(u64, u32)>>,
}

impl ConvScratch {
    /// Creates an empty scratch space (buffers grow on first use).
    pub fn new() -> Self {
        ConvScratch::default()
    }

    /// Takes `table` apart and keeps its vectors for the next tables
    /// built with this scratch. The spares never outnumber the vectors
    /// the tables a memo held at once had: a table is built from spares
    /// whenever any are left.
    pub(crate) fn recycle(&mut self, table: CdfTable) {
        let CdfTable {
            mut service,
            mut cum,
            powers,
            ..
        } = table;
        service.clear();
        self.pairs.push(service);
        cum.clear();
        self.weights.push(cum);
        for mut kept in [powers.square, powers.cube] {
            if kept.capacity() > 0 {
                kept.clear();
                self.weights.push(kept);
            }
        }
    }

    /// An empty weight vector: a recycled one while any is left.
    #[aqua::hot_path]
    fn spare_weights(&mut self) -> Vec<f64> {
        if let Some(spare) = self.weights.pop() {
            return spare;
        }
        // aqua-lint: allow(no-alloc-in-select) pool miss: no table recycled yet, so the new vector grows on first use
        Vec::new()
    }

    /// An empty service-pair vector: a recycled one while any is left.
    #[aqua::hot_path]
    fn spare_pairs(&mut self) -> Vec<(u64, u32)> {
        if let Some(spare) = self.pairs.pop() {
            return spare;
        }
        // aqua-lint: allow(no-alloc-in-select) pool miss: no table recycled yet, so the new vector grows on first use
        Vec::new()
    }

    /// `P2 = S⊛S` and, with `cube`, `P3 = S⊛S⊛S` of the non-empty
    /// `service` counts, dense from bucket 0 through `horizon`.
    ///
    /// They are refreshed from `held`'s when it kept them to the same
    /// horizon and the two service windows differ in at most
    /// [`MAX_MOVED`] buckets. With `D = S_new − S_old` and the held `S` and
    /// `P2`:
    ///
    /// ```text
    /// P3 += 3·P2⊛D + 3·S⊛D⊛D + D⊛D⊛D
    /// P2 += 2·S⊛D + D⊛D
    /// ```
    ///
    /// evaluated through `X = P2 + S⊛D`: `P3 += 3·D⊛X + D⊛D⊛D`, one axpy
    /// per moved bucket, then `P2 = X + S⊛D + D⊛D`. Every entry is an
    /// integer count and every partial sum stays below 2^53
    /// ([`MAX_FACTORED_SAMPLES`]), so a refreshed power equals a built one
    /// bit for bit. Otherwise they are built: `P2` by [`square_into`], `P3`
    /// as `P2 ⊛ S`.
    #[aqua::hot_path]
    fn powers(
        &mut self,
        service: &[(u64, u32)],
        horizon: u64,
        cube: bool,
        held: Option<&CdfTable>,
    ) -> Powers {
        let refresh = held
            .filter(|held| {
                held.horizon == Some(horizon)
                    && !held.powers.square.is_empty()
                    && (!cube || !held.powers.cube.is_empty())
            })
            .and_then(|held| Some((held, Moved::between(&held.service, service)?)));
        let mut powers = Powers {
            square: self.spare_weights(),
            ..Powers::default()
        };
        if cube {
            powers.cube = self.spare_weights();
        }
        if let Some((held, moved)) = refresh {
            let moved = moved.pairs();
            let old_service = || held.service.iter().map(|&(a, n)| (a, f64::from(n)));
            powers.square.extend_from_slice(&held.powers.square);
            if cube {
                // `P2 + S⊛D = S_old⊛S_new`, where both updates meet.
                add_products(&mut powers.square, 1.0, old_service(), moved);
                // `P3 + 3·D⊛(P2 + S⊛D) + D⊛D⊛D`, one moved bucket of the
                // first `D` at a time: an axpy, then its `D⊛D` products.
                powers.cube.extend_from_slice(&held.powers.cube);
                for &(at, by) in moved {
                    let slots = powers.cube.get_mut(index(at)..).unwrap_or_default();
                    let scale = 3.0 * by;
                    for (slot, &weight) in slots.iter_mut().zip(&powers.square) {
                        *slot += scale * weight;
                    }
                    let shifted = moved.iter().map(|&(b, y)| (at + b, y));
                    add_products(&mut powers.cube, by, shifted, moved);
                }
                add_products(&mut powers.square, 1.0, old_service(), moved);
            } else {
                add_products(&mut powers.square, 2.0, old_service(), moved);
            }
            // `P2 + 2·S⊛D + D⊛D`.
            add_products(&mut powers.square, 1.0, moved.iter().copied(), moved);
            powers.refreshed = true;
            return powers;
        }
        let len = index(horizon).saturating_add(1);
        let first = spread(service, &mut self.base).unwrap_or(0);
        let square_from = Term::Square.degree() * first;
        square_into(
            &self.base,
            &mut powers.square,
            len_within(square_from, Some(horizon)),
        );
        if cube {
            let cube_from = Term::Cube.degree() * first;
            let kept = len_within(cube_from, Some(horizon));
            convolve_into(&powers.square, &self.base, &mut powers.cube, kept);
            from_zero(&mut powers.cube, cube_from, len);
        }
        from_zero(&mut powers.square, square_from, len);
        powers
    }

    /// The `n`-fold self-convolution of the weights in `base`, whose first
    /// bucket is `offset`, by squaring: ⌊log₂ n⌋ squarings with `square`
    /// plus `popcount(n) − 1` accumulating products. Returns the first
    /// bucket and the weights; `n = 0` yields the unit point mass at zero.
    ///
    /// Every product keeps only its buckets up to `bound` (exact there, as
    /// supports are non-negative) and sheds up to `epsilon` of tail mass
    /// ([`prune_in_place`]). Exact tables pass `0.0`: they never prune,
    /// and their integer weights let them square with [`square_into`].
    fn power(
        &mut self,
        offset: u64,
        n: u32,
        bound: Option<u64>,
        epsilon: f64,
        square: fn(&[f64], &mut Vec<f64>, usize),
    ) -> (u64, Vec<f64>) {
        let mut acc = self.spare_weights();
        if n == 0 {
            acc.push(1.0);
            return (0, acc);
        }
        let mut base = std::mem::take(&mut self.base);
        let mut base_offset = offset;
        let mut acc_offset = 0u64;
        let mut have_acc = false;
        let mut tmp = std::mem::take(&mut self.tmp);
        let mut k = n;
        loop {
            if k & 1 == 1 {
                if have_acc {
                    acc_offset += base_offset;
                    convolve_into(&acc, &base, &mut tmp, len_within(acc_offset, bound));
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
            square(&base, &mut tmp, len_within(base_offset, bound));
            std::mem::swap(&mut base, &mut tmp);
            prune_in_place(&mut base, &mut base_offset, epsilon);
        }
        self.base = base;
        self.tmp = tmp;
        (acc_offset, acc)
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
        let pmf = Pmf::from_bucket_counts([(1, 1), (2, 1_000_000), (40, 1)], ms(1)).unwrap();
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
    fn pruning_drops_negligible_tails_only() {
        let mut probs = vec![0.0; 90];
        probs[0] = 1e-15;
        probs[9] = 0.5;
        probs[10] = 0.5;
        probs[89] = 1e-15;
        let before: f64 = probs.iter().sum();
        let mut offset = 1;
        prune_in_place(&mut probs, &mut offset, 1e-12);
        assert_eq!((offset, probs.len()), (10, 2), "support is 10..=11 ms");
        assert!(
            (probs.iter().sum::<f64>() - before).abs() < 1e-15,
            "mass renormalized"
        );
        // A zero epsilon is a no-op.
        let copy = probs.clone();
        prune_in_place(&mut probs, &mut offset, 0.0);
        assert_eq!(probs, copy);
    }

    #[test]
    fn mass_drift_bounded_after_repeated_convolutions() {
        // Regression for the MASS_TOLERANCE contract: a deep pipeline of
        // pruned convolutions must keep the
        // total mass within the documented bound, or the cdf clamp and the
        // quantile slack stop being sound.
        let samples: Vec<Duration> = (0..100).map(|i| ms(50 + (i * 13) % 97)).collect();
        let base = Pmf::from_samples(samples, ms(1)).unwrap();
        let mut scratch = ConvScratch::new();
        let mut acc = base.self_convolve(32, 1e-12, &mut scratch);
        for _ in 0..8 {
            acc = acc.convolve(&base).unwrap();
            prune_in_place(&mut acc.probs, &mut acc.offset, 1e-12);
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

    /// Service {10, 12}, wait {0, 2}, shift 3: sums 13, 15, 15 and 17.
    fn two_by_two(horizon: Option<u64>) -> CdfTable {
        CdfTable::of_counts(
            ms(1),
            &[(10, 1), (12, 1)],
            Wait::Counts(&[(0, 1), (2, 1)]),
            Delay::Shift(3),
            horizon,
            None,
            &mut ConvScratch::new(),
        )
        .unwrap()
    }

    #[test]
    fn counts_table_reads_the_exact_rational() {
        let table = two_by_two(None);
        for (t, f) in [
            (0, 0.0),
            (12, 0.0),
            (13, 0.25),
            (14, 0.25),
            (15, 0.75),
            (17, 1.0),
        ] {
            assert_eq!(table.value_at(ms(t)), f, "t = {t}");
        }
        assert_eq!(table.value_at(Duration::MAX), 1.0);
        // The memo holds the first bucket read and never changes an answer.
        assert_eq!(table.memo.get(), Some(&(0, 0.0)));
        assert_eq!(table.value_at(ms(15)), 0.75);
        let (service, wait) = (vec![(3, 2), (5, 1)], [(1, 1), (4, 3)]);
        let windowed = CdfTable::of_counts(
            ms(1),
            &service,
            Wait::ServiceFold(2),
            Delay::Counts(&wait),
            None,
            None,
            &mut ConvScratch::new(),
        )
        .unwrap();
        // S^{*2} = {6 ×4, 8 ×4, 10 ×1}; ⊛ T = {7 ×4, 9 ×4, 10 ×12, 11 ×1,
        // 12 ×12, 14 ×3}. At 14: s = 3 (×2) reads the 21 at ≤ 11, s = 5 the
        // 8 at ≤ 9.
        assert_eq!(windowed.total, 3.0 * 9.0 * 4.0);
        assert_eq!(windowed.value_at(ms(14)), (2.0 * 21.0 + 8.0) / 108.0);
    }

    #[test]
    fn a_bounded_chain_is_a_prefix_of_the_unbounded_one() {
        let counts = [(3, 2), (4, 1), (7, 5), (9, 1)];
        let mut scratch = ConvScratch::new();
        for n in 0..=9u32 {
            spread(&counts, &mut scratch.base);
            let (offset, full) = scratch.power(3, n, None, 0.0, square_into);
            for bound in [0u64, 10, 25, 40] {
                spread(&counts, &mut scratch.base);
                let (cut_offset, cut) = scratch.power(3, n, Some(bound), 0.0, square_into);
                assert_eq!(cut_offset, offset, "n = {n}");
                let kept = len_within(offset, Some(bound)).min(full.len());
                assert_eq!(cut.get(..kept), full.get(..kept), "n = {n}, bound {bound}");
            }
            let mass: f64 = full.iter().sum();
            assert_eq!(mass, 9f64.powi(n as i32), "integer weights stay exact");
        }
    }

    #[test]
    fn table_reports_what_it_covers() {
        let bounded = two_by_two(Some(15));
        assert!(bounded.covers(ms(15)) && !bounded.covers(ms(16)));
        assert_eq!(bounded.value_at(ms(15)), 0.75);
        assert!(two_by_two(None).covers(Duration::MAX));
        assert_eq!(bounded.bucket_width(), ms(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past the horizon")]
    fn lookup_past_the_horizon_is_flagged_in_debug_builds() {
        let _ = two_by_two(Some(5)).value_at(ms(6));
    }

    #[test]
    fn moved_buckets_are_the_signed_difference_of_two_windows() {
        let old = [(3, 2), (5, 1), (9, 4)];
        let new = [(1, 1), (3, 2), (5, 3), (10, 4)];
        let moved = Moved::between(&old, &new).unwrap();
        assert_eq!(
            moved.pairs(),
            [(1, 1.0), (5, 2.0), (9, -4.0), (10, 4.0)].as_slice()
        );
        assert!(Moved::between(&old, &old).unwrap().pairs().is_empty());
        let wide: Vec<(u64, u32)> = (0..9).map(|at| (2 * at, 1)).collect();
        assert!(Moved::between(&[], &wide).is_none(), "one bucket too many");
        assert!(Moved::between(&[], &wide[1..]).is_some());
    }

    mod refresh {
        use super::*;
        use proptest::prelude::*;

        /// A window's `(bucket, count)` pairs: up to 24 buckets in 0..60.
        fn window() -> impl Strategy<Value = Vec<(u64, u32)>> {
            prop::collection::vec((0u64..60, 1u32..5), 1..24)
        }

        fn merged(mut pairs: Vec<(u64, u32)>) -> Vec<(u64, u32)> {
            pairs.sort_unstable_by_key(|&(at, _)| at);
            pairs.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                }
                same
            });
            pairs
        }

        fn table(
            service: &[(u64, u32)],
            q: u32,
            horizon: Option<u64>,
            held: Option<&CdfTable>,
            scratch: &mut ConvScratch,
        ) -> CdfTable {
            let wait = Wait::ServiceFold(q);
            CdfTable::of_counts(
                ms(1),
                service,
                wait,
                Delay::Shift(2),
                horizon,
                held,
                scratch,
            )
            .unwrap()
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|w| w.to_bits()).collect()
        }

        proptest! {
            /// A table refreshed from the one it replaces keeps the powers
            /// a fresh one builds, bit for bit, and reads what the fresh
            /// one and today's chain read at every bucket up to the
            /// horizon. It refreshes exactly when the held table kept the
            /// powers it needs to the same horizon and at most
            /// `MAX_MOVED` buckets moved.
            #[test]
            fn a_refreshed_table_is_a_fresh_one(
                old in window(),
                added in prop::collection::vec((0u64..60, 1u32..5), 0..12),
                dropped in 0usize..4,
                held_q in prop_oneof![2u32..=5, 0u32..=7],
                q in prop_oneof![2u32..=5, 0u32..=7],
                horizon in 0u64..400,
                same_horizon in prop_oneof![3 => Just(true), 1 => Just(false)],
            ) {
                let old = merged(old);
                // Drop the lowest buckets and add new pairs, so the diff
                // ranges from nothing to more than `MAX_MOVED` buckets.
                let new = merged(old.iter().skip(dropped).copied().chain(added).collect());
                if new.is_empty() {
                    return Ok(());
                }
                let mut scratch = ConvScratch::new();
                let held_horizon = if same_horizon { horizon } else { horizon + 1 };
                let held = table(&old, held_q, Some(held_horizon), None, &mut scratch);
                let refreshed = table(&new, q, Some(horizon), Some(&held), &mut scratch);
                let fresh = table(&new, q, Some(horizon), None, &mut scratch);
                let chain = table(&new, q, None, None, &mut scratch);
                let count = |pairs: &[(u64, u32)], at| {
                    pairs.iter().find(|&&(b, _)| b == at).map_or(0, |&(_, n)| n)
                };
                let moved = (0..120).filter(|&at| count(&old, at) != count(&new, at)).count() <= 8;
                let cubed = |(outer, inner)| outer == Term::Cube || inner == Term::Cube;
                let (needs, kept) = (factors(q).map(cubed), factors(held_q).map(cubed));
                let can = match (needs, kept) {
                    (Some(cube), Some(has_cube)) => !cube || has_cube,
                    _ => false,
                };
                prop_assert_eq!(refreshed.is_refreshed(), can && moved && same_horizon);
                prop_assert!(!fresh.is_refreshed());
                prop_assert_eq!(bits(&refreshed.powers.square), bits(&fresh.powers.square));
                prop_assert_eq!(bits(&refreshed.powers.cube), bits(&fresh.powers.cube));
                for t in 0..=horizon {
                    let (r, f, c) = (
                        refreshed.value_at(ms(t)),
                        fresh.value_at(ms(t)),
                        chain.value_at(ms(t)),
                    );
                    prop_assert!(
                        r.to_bits() == f.to_bits() && f.to_bits() == c.to_bits(),
                        "q = {q} at {t}: refreshed {r}, fresh {f}, chain {c}"
                    );
                }
            }
        }
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

            #[test]
            fn symmetric_square_matches_the_full_product(
                a in weights(),
                max_len in 1usize..260,
            ) {
                let (mut full, mut square) = (Vec::new(), Vec::new());
                // Integer weights: the same exact sums in another order.
                let counts: Vec<f64> = a.iter().map(|w| (w * 1e4).floor()).collect();
                convolve_into(&counts, &counts, &mut full, max_len);
                square_into(&counts, &mut square, max_len);
                prop_assert_eq!(&full, &square);
                // Fractional weights: equal up to rounding.
                convolve_into(&a, &a, &mut full, usize::MAX);
                square_into(&a, &mut square, usize::MAX);
                prop_assert_eq!(full.len(), square.len());
                for (f, s) in full.iter().zip(&square) {
                    prop_assert!((f - s).abs() <= 1e-12 * f.max(1.0), "{f} vs {s}");
                }
            }
        }
    }
}
