//! Log-bucketed latency histograms (HDR-style, std-only).
//!
//! Buckets grow by a factor of ~1.2 (plus one, so the low range stays
//! exact), which bounds the relative quantization error of any recorded
//! value — and therefore of any percentile read back out — at ~20%, while
//! covering the full `u64` microsecond range in ~250 buckets. The bucket
//! layout is a process-wide constant, so histograms merge by summing
//! bucket counts: the merge is commutative and associative, which is what
//! lets per-thread shards and per-worker partials combine in any order.
//!
//! Two flavors share the layout:
//!
//! * [`Histogram`] — concurrent recording: N shards of atomic bucket
//!   counters; threads pick a shard by a cheap thread-local index, so
//!   recording is a lock-free `fetch_add` with low cache-line contention.
//! * [`HistSnapshot`] — a plain (non-atomic) frozen view: what reports,
//!   JSON export and the Prometheus endpoint read percentiles from.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Shard count for concurrent [`Histogram`]s. A power of two; threads are
/// striped across shards round-robin.
const N_SHARDS: usize = 16;

/// The process-wide bucket layout.
struct Layout {
    bounds: Vec<u64>,
    /// `octave[b]`: the first bucket whose bound reaches `2^b` — where the
    /// search for a value with `b` as its top bit starts.
    octave: [u16; 64],
}

fn layout() -> &'static Layout {
    static LAYOUT: OnceLock<Layout> = OnceLock::new();
    LAYOUT.get_or_init(|| {
        let mut b = vec![0u64]; // bucket 0: exactly zero
        let mut hi = 1u64;
        loop {
            b.push(hi);
            if hi > u64::MAX / 2 {
                break;
            }
            // ~x1.2 growth, but always at least +1 so small buckets stay
            // exact (1, 2, 3, ... 8, 9, 10, 12, 14, ...).
            hi = (hi + 1).max(hi / 5 * 6);
        }
        *b.last_mut().unwrap() = u64::MAX;
        let octave = std::array::from_fn(|bit| b.partition_point(|&x| x < 1 << bit) as u16);
        Layout { bounds: b, octave }
    })
}

/// Inclusive upper bounds of every bucket, ascending; the last entry is
/// `u64::MAX` (the overflow bucket). `bounds()[i]` is the largest value
/// bucket `i` holds.
pub fn bounds() -> &'static [u64] {
    &layout().bounds
}

/// The bucket index holding `v`: the first bucket whose upper bound is
/// `>= v`. An octave holds about four buckets, so the scan from the
/// octave's first is short (this runs once per sample, and once per cell
/// when table statistics are collected).
pub fn bucket_index(v: u64) -> usize {
    let Layout { bounds, octave } = layout();
    let mut i = v
        .checked_ilog2()
        .map_or(0, |bit| octave[bit as usize] as usize);
    while bounds[i] < v {
        i += 1;
    }
    i
}

/// The inclusive upper bound of bucket `i` — the value a percentile read
/// reports for samples landing in that bucket (an overestimate of at most
/// ~20%).
pub fn bucket_bound(i: usize) -> u64 {
    bounds()[i.min(bounds().len() - 1)]
}

fn shard_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
    }
    SHARD.with(|s| *s)
}

struct Shard {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
}

/// A concurrent log-bucketed histogram: recording is one thread-local
/// load plus two relaxed `fetch_add`s, with no locks anywhere.
pub struct Histogram {
    shards: Vec<Shard>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram over the global bucket layout.
    pub fn new() -> Histogram {
        let n = bounds().len();
        Histogram {
            shards: (0..N_SHARDS)
                .map(|_| Shard {
                    counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
                    sum: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let shard = &self.shards[shard_id()];
        shard.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Freezes the current contents into a plain snapshot (merging every
    /// shard; concurrent `record`s may or may not be included).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut snap = HistSnapshot::new();
        for shard in &self.shards {
            for (i, c) in shard.counts.iter().enumerate() {
                snap.counts[i] += c.load(Ordering::Relaxed);
            }
            snap.sum = snap.sum.wrapping_add(shard.sum.load(Ordering::Relaxed));
        }
        snap.count = snap.counts.iter().sum();
        snap
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram({:?})", self.snapshot())
    }
}

/// A frozen, single-threaded histogram: bucket counts plus exact sample
/// count and sum. Also usable directly as a cheap accumulator where no
/// concurrency is involved (trace reports).
#[derive(Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples (not quantized), modulo 2^64 — the same
    /// in every build profile, like the atomic shards it is merged from.
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot::new()
    }
}

impl HistSnapshot {
    /// An empty snapshot/accumulator.
    pub fn new() -> HistSnapshot {
        HistSnapshot {
            counts: vec![0; bounds().len()],
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample (single-threaded accumulation).
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Merges another histogram in (commutative: bucket-wise sums).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Takes out `other`, whose samples must all have been recorded or
    /// merged into this one: the bucket-wise mirror of
    /// [`merge`](Self::merge), so `merge` then `subtract` is the identity.
    pub fn subtract(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            debug_assert!(*a >= *b, "subtracting samples never recorded");
            *a -= b;
        }
        debug_assert!(self.count >= other.count);
        self.count -= other.count;
        self.sum = self.sum.wrapping_sub(other.sum);
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Nearest-rank percentile, reported as the holding bucket's upper
    /// bound (so the true value is overestimated by at most ~20%).
    /// `pct` is clamped to `0.0..=100.0`; an empty histogram reports 0.
    pub fn percentile(&self, pct: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let pct = if pct.is_nan() {
            0.0
        } else {
            pct.clamp(0.0, 100.0)
        };
        let rank = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        self.max()
    }

    /// The upper bound of the highest non-empty bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_bound)
            .unwrap_or(0)
    }

    /// Mean of the recorded samples (exact, from the un-quantized sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate fraction of recorded samples `<= v`, in `0.0..=1.0`.
    ///
    /// Whole buckets below `v` count fully; the bucket straddling `v` is
    /// apportioned by linear interpolation, so the error is bounded by
    /// the ~20% bucket growth factor. An empty histogram reports 0.
    /// This is the selectivity primitive behind range-predicate
    /// cardinality estimates.
    pub fn fraction_le(&self, v: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut seen = 0u64;
        let mut lower = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let bound = bucket_bound(i);
            if bound <= v {
                seen += c;
            } else {
                if v > lower && c > 0 {
                    let part = (v - lower) as f64 / (bound - lower) as f64;
                    return (seen as f64 + part * c as f64) / self.count as f64;
                }
                break;
            }
            lower = bound;
        }
        (seen as f64 / self.count as f64).min(1.0)
    }

    /// Iterates non-empty buckets as `(upper_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bound(i), c))
    }

    /// Serializes as a sparse JSON object:
    /// `{"count":N,"sum":S,"buckets":[[bound,count],...]}`.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .nonzero_buckets()
            .map(|(b, c)| Json::Arr(vec![Json::Int(b as i64), Json::Int(c as i64)]))
            .collect();
        Json::Obj(vec![
            ("count".into(), Json::Int(self.count as i64)),
            ("sum".into(), Json::Int(self.sum as i64)),
            ("buckets".into(), Json::Arr(buckets)),
        ])
    }

    /// Parses the sparse JSON form back. Bucket bounds that don't match
    /// the process layout land in the nearest covering bucket.
    pub fn from_json(j: &Json) -> Result<HistSnapshot, String> {
        let mut snap = HistSnapshot::new();
        snap.count = j
            .get("count")
            .and_then(Json::as_i64)
            .ok_or("missing count")? as u64;
        snap.sum = j.get("sum").and_then(Json::as_i64).ok_or("missing sum")? as u64;
        let buckets = j
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("missing buckets")?;
        for pair in buckets {
            let pair = pair.as_arr().ok_or("bucket entry is not a pair")?;
            let (bound, count) = match pair {
                [b, c] => (
                    b.as_i64().ok_or("bad bucket bound")? as u64,
                    c.as_i64().ok_or("bad bucket count")? as u64,
                ),
                _ => return Err("bucket entry is not a pair".into()),
            };
            snap.counts[bucket_index(bound)] += count;
        }
        Ok(snap)
    }
}

impl std::fmt::Debug for HistSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HistSnapshot{{count:{}, sum:{}, p50:{}, p95:{}, max:{}}}",
            self.count,
            self.sum,
            self.percentile(50.0),
            self.percentile(95.0),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_le_tracks_uniform_data() {
        let mut h = HistSnapshot::new();
        assert_eq!(h.fraction_le(10), 0.0, "empty histogram");
        for v in 0..10_000u64 {
            h.record(v);
        }
        assert_eq!(h.fraction_le(u64::MAX), 1.0);
        // 10_000 lands inside the last occupied bucket: interpolation may
        // apportion part of it, but the answer must be close to 1.
        assert!(h.fraction_le(10_000) > 0.9);
        for &v in &[100u64, 1_000, 5_000, 9_000] {
            let got = h.fraction_le(v);
            let want = (v + 1) as f64 / 10_000.0;
            assert!(
                (got - want).abs() < 0.25 * want.max(0.01),
                "v={v}: got {got:.4}, want {want:.4}"
            );
        }
        // Monotonic in v.
        let fr: Vec<f64> = (0..14).map(|i| h.fraction_le(1u64 << i)).collect();
        assert!(fr.windows(2).all(|w| w[0] <= w[1]), "{fr:?}");
    }

    #[test]
    fn bucket_layout_is_monotonic_and_covers_u64() {
        let b = bounds();
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), u64::MAX);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        // ~x1.2 growth keeps the table small.
        assert!(b.len() < 300, "{} buckets", b.len());
    }

    #[test]
    fn bucket_index_is_the_first_bound_reaching_the_value() {
        let edges = bounds()
            .iter()
            .flat_map(|&b| [b.saturating_sub(1), b, b.saturating_add(1)]);
        for v in edges.chain((0..64).map(|bit| 1 << bit)) {
            assert_eq!(bucket_index(v), bounds().partition_point(|&b| b < v), "{v}");
        }
    }

    #[test]
    fn bucket_bound_overestimates_by_at_most_20_percent() {
        for v in [1u64, 7, 99, 300, 12_345, 1_000_000, u64::MAX / 3] {
            let bound = bucket_bound(bucket_index(v));
            assert!(bound >= v);
            assert!(
                (bound as f64) <= v as f64 * 1.21,
                "value {v} quantized to {bound}"
            );
        }
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let mut h = HistSnapshot::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count, 1000);
        assert_eq!(h.sum, 500_500);
        let p50 = h.percentile(50.0);
        assert!((500..=605).contains(&p50), "p50={p50}");
        let p95 = h.percentile(95.0);
        assert!((950..=1150).contains(&p95), "p95={p95}");
        assert!(h.percentile(0.0) >= 1);
        assert_eq!(h.percentile(100.0), h.max());
        assert_eq!(HistSnapshot::new().percentile(50.0), 0);
    }

    #[test]
    fn concurrent_recording_merges_exactly() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = &h;
                s.spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v * 8 + t);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 8000);
        let expected: u64 = (0..8000u64).sum();
        assert_eq!(snap.sum, expected);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = HistSnapshot::new();
        let mut b = HistSnapshot::new();
        for v in [1u64, 50, 3000, 12] {
            a.record(v);
        }
        for v in [7u64, 50, 900_000] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 7);
        // Samples whose sum passes u64::MAX (a column holding i64::MIN
        // and i64::MAX maps to both ends) wrap instead of panicking.
        a.record(u64::MAX);
        b.record(u64::MAX);
        let mut ab = a.clone();
        ab.merge(&b);
        b.merge(&a);
        assert_eq!(ab, b);
        assert_eq!(ab.sum, 3_063 + 900_057 - 2, "2 * u64::MAX is -2 mod 2^64");
    }

    #[test]
    fn subtract_undoes_record() {
        let mut kept = HistSnapshot::new();
        for v in [0u64, 3, 3, 4_096, u64::MAX] {
            kept.record(v);
        }
        let mut removed = HistSnapshot::new();
        let mut both = kept.clone();
        for v in [3u64, 17, 1_000_000, u64::MAX] {
            removed.record(v);
            both.record(v);
        }
        both.subtract(&removed);
        assert_eq!(both, kept);
        both.subtract(&kept);
        assert_eq!(both, HistSnapshot::new());
    }

    #[test]
    fn json_round_trip() {
        let mut h = HistSnapshot::new();
        for v in [0u64, 1, 2, 300, 300, 1_000_000] {
            h.record(v);
        }
        let text = h.to_json().to_string();
        let back = HistSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
        assert!(HistSnapshot::from_json(&Json::parse("{}").unwrap()).is_err());
    }
}
