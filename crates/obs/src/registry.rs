//! The global metrics registry: counters, gauges, u64 histograms with
//! fixed log2 buckets, and span statistics.
//!
//! Metrics are addressed by a `&'static str` name plus a dynamic label
//! (`""` for unlabelled). Registration goes through a sharded
//! `Mutex<HashMap>` — paid once per `(name, label)` pair per call site
//! when handles are cached (see the [`crate::counter!`] macro) — and the
//! returned handle is a leaked `&'static` whose operations are plain
//! atomics, so recording never takes a lock and is safe from the
//! `imt-bitcode::par` worker threads.
//!
//! [`snapshot`] returns every metric sorted by `(name, label)`, which
//! makes reports and manifests deterministic regardless of thread
//! scheduling. [`reset`] zeroes values in place (it never unregisters),
//! so call-site-cached handles stay valid across resets.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    fn zero(&self) {
        self.value.store(0, Relaxed);
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Replaces the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.value.store(value, Relaxed);
    }

    /// Raises the value to at least `value`.
    #[inline]
    pub fn set_max(&self, value: u64) {
        self.value.fetch_max(value, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    fn zero(&self) {
        self.value.store(0, Relaxed);
    }
}

/// Bucket count of every [`Histogram`]: one underflow bucket for 0 plus
/// one bucket per power of two up to `2^63`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value lands in: 0 holds exactly the value 0; bucket
/// `i >= 1` holds `[2^(i-1), 2^i - 1]`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        value.ilog2() as usize + 1
    }
}

/// Inclusive `(low, high)` bounds of a bucket (for rendering).
///
/// # Panics
///
/// Panics if `index >= HISTOGRAM_BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < HISTOGRAM_BUCKETS, "bucket {index} out of range");
    if index == 0 {
        (0, 0)
    } else if index == HISTOGRAM_BUCKETS - 1 {
        (1 << (index - 1), u64::MAX)
    } else {
        (1 << (index - 1), (1 << index) - 1)
    }
}

/// A u64 histogram over fixed log2 buckets, with exact count, sum, min
/// and max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.min.fetch_min(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let min = self.min.load(Relaxed);
        if min == u64::MAX && self.count() == 0 {
            0
        } else {
            min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Count in one bucket (see [`bucket_index`]).
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index].load(Relaxed)
    }

    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let n = self.bucket(i);
                (n > 0).then_some((i, n))
            })
            .collect()
    }

    fn zero(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }
}

/// Aggregated wall-time of one span name: count, total, min and max in
/// nanoseconds. Written by [`crate::span::SpanGuard`] on drop.
#[derive(Debug)]
pub struct SpanStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for SpanStat {
    fn default() -> Self {
        SpanStat {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl SpanStat {
    /// Records one completed span of `ns` nanoseconds.
    pub fn record(&self, ns: u64) {
        self.count.fetch_add(1, Relaxed);
        self.total_ns.fetch_add(ns, Relaxed);
        self.min_ns.fetch_min(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
    }

    /// Completed spans.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Total recorded nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Relaxed)
    }

    /// Shortest recorded span (0 when empty).
    pub fn min_ns(&self) -> u64 {
        let min = self.min_ns.load(Relaxed);
        if min == u64::MAX && self.count() == 0 {
            0
        } else {
            min
        }
    }

    /// Longest recorded span.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Relaxed)
    }

    /// Mean nanoseconds per span (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.total_ns() as f64 / count as f64
    }

    fn zero(&self) {
        self.count.store(0, Relaxed);
        self.total_ns.store(0, Relaxed);
        self.min_ns.store(u64::MAX, Relaxed);
        self.max_ns.store(0, Relaxed);
    }
}

#[derive(Clone, Copy)]
enum Entry {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
    Span(&'static SpanStat),
}

impl Entry {
    fn kind(self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
            Entry::Span(_) => "span",
        }
    }
}

#[derive(PartialEq, Eq, Hash)]
struct Key {
    name: &'static str,
    label: String,
}

const SHARDS: usize = 16;

type Shard = Mutex<HashMap<Key, Entry>>;

fn shards() -> &'static [Shard; SHARDS] {
    static SHARDS_CELL: OnceLock<[Shard; SHARDS]> = OnceLock::new();
    SHARDS_CELL.get_or_init(|| std::array::from_fn(|_| Mutex::new(HashMap::new())))
}

// Entries are only ever inserted (never mutated in place), and the leaked
// values are updated with atomics, so a panic inside a lock scope cannot
// leave the map torn — poisoning is safely ignorable.
fn lock(shard: &Shard) -> std::sync::MutexGuard<'_, HashMap<Key, Entry>> {
    shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn shard_for(name: &str, label: &str) -> &'static Shard {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut hasher);
    label.hash(&mut hasher);
    &shards()[hasher.finish() as usize % SHARDS]
}

/// Finds or creates the `(name, label)` entry.
///
/// # Panics
///
/// Panics if the pair is already registered under a different metric
/// kind — a name-collision bug worth failing loudly on.
fn register(name: &'static str, label: &str, make: fn() -> Entry) -> Entry {
    let entry = {
        let mut map = lock(shard_for(name, label));
        let key = Key {
            name,
            label: label.to_string(),
        };
        *map.entry(key).or_insert_with(make)
    };
    let wanted = make().kind();
    assert!(
        entry.kind() == wanted,
        "metric `{name}`/`{label}` already registered as a {}, requested as a {wanted}",
        entry.kind(),
    );
    entry
}

/// The counter `name` (unlabelled).
pub fn counter(name: &'static str) -> &'static Counter {
    counter_labeled(name, "")
}

/// The counter `name` with `label`.
pub fn counter_labeled(name: &'static str, label: &str) -> &'static Counter {
    match register(name, label, || {
        Entry::Counter(Box::leak(Box::new(Counter::default())))
    }) {
        Entry::Counter(c) => c,
        _ => unreachable!("register checked the kind"),
    }
}

/// The gauge `name` (unlabelled).
pub fn gauge(name: &'static str) -> &'static Gauge {
    gauge_labeled(name, "")
}

/// The gauge `name` with `label`.
pub fn gauge_labeled(name: &'static str, label: &str) -> &'static Gauge {
    match register(name, label, || {
        Entry::Gauge(Box::leak(Box::new(Gauge::default())))
    }) {
        Entry::Gauge(g) => g,
        _ => unreachable!("register checked the kind"),
    }
}

/// The histogram `name` (unlabelled).
pub fn histogram(name: &'static str) -> &'static Histogram {
    histogram_labeled(name, "")
}

/// The histogram `name` with `label`.
pub fn histogram_labeled(name: &'static str, label: &str) -> &'static Histogram {
    match register(name, label, || {
        Entry::Histogram(Box::leak(Box::new(Histogram::default())))
    }) {
        Entry::Histogram(h) => h,
        _ => unreachable!("register checked the kind"),
    }
}

/// The span statistics `name` (unlabelled).
pub fn span_stat(name: &'static str) -> &'static SpanStat {
    span_stat_labeled(name, "")
}

/// The span statistics `name` with `label`.
pub fn span_stat_labeled(name: &'static str, label: &str) -> &'static SpanStat {
    match register(name, label, || {
        Entry::Span(Box::leak(Box::new(SpanStat::default())))
    }) {
        Entry::Span(s) => s,
        _ => unreachable!("register checked the kind"),
    }
}

/// A point-in-time copy of one metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram summary plus its non-empty buckets.
    Histogram {
        /// Values recorded.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// Smallest recorded value.
        min: u64,
        /// Largest recorded value.
        max: u64,
        /// `(bucket index, count)`, ascending, empty buckets omitted.
        buckets: Vec<(usize, u64)>,
    },
    /// Span timing summary.
    Span {
        /// Completed spans.
        count: u64,
        /// Total nanoseconds.
        total_ns: u64,
        /// Shortest span.
        min_ns: u64,
        /// Longest span.
        max_ns: u64,
    },
}

impl SnapshotValue {
    /// The metric kind as it appears in manifests.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotValue::Counter(_) => "counter",
            SnapshotValue::Gauge(_) => "gauge",
            SnapshotValue::Histogram { .. } => "histogram",
            SnapshotValue::Span { .. } => "span",
        }
    }
}

/// One registered metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Static metric name.
    pub name: &'static str,
    /// Label (`""` for unlabelled).
    pub label: String,
    /// The value.
    pub value: SnapshotValue,
}

/// Copies every registered metric, sorted by `(name, label)` so output is
/// deterministic regardless of registration or scheduling order.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let mut out = Vec::new();
    for shard in shards() {
        let map = lock(shard);
        for (key, entry) in map.iter() {
            let value = match entry {
                Entry::Counter(c) => SnapshotValue::Counter(c.get()),
                Entry::Gauge(g) => SnapshotValue::Gauge(g.get()),
                Entry::Histogram(h) => SnapshotValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    buckets: h.nonzero_buckets(),
                },
                Entry::Span(s) => SnapshotValue::Span {
                    count: s.count(),
                    total_ns: s.total_ns(),
                    min_ns: s.min_ns(),
                    max_ns: s.max_ns(),
                },
            };
            out.push(MetricSnapshot {
                name: key.name,
                label: key.label.clone(),
                value,
            });
        }
    }
    out.sort_by(|a, b| (a.name, &a.label).cmp(&(b.name, &b.label)));
    out
}

/// Zeroes every registered metric in place. Handles cached by call sites
/// (e.g. via [`crate::counter!`]) remain valid; nothing is unregistered.
pub fn reset() {
    for shard in shards() {
        let map = lock(shard);
        for entry in map.values() {
            match entry {
                Entry::Counter(c) => c.zero(),
                Entry::Gauge(g) => g.zero(),
                Entry::Histogram(h) => h.zero(),
                Entry::Span(s) => s.zero(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Bounds invert the index at every boundary.
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "low bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "high bound of bucket {i}");
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        let _lock = crate::test_lock();
        let h = histogram("registry.test.hist");
        for v in [0u64, 1, 3, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 107);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert_eq!(h.bucket(0), 1); // the 0
        assert_eq!(h.bucket(1), 1); // the 1
        assert_eq!(h.bucket(2), 2); // the 3s
        assert_eq!(h.bucket(7), 1); // 100 in [64,127]
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (7, 1)]);
    }

    #[test]
    fn empty_histogram_min_is_zero() {
        let _lock = crate::test_lock();
        let h = histogram("registry.test.hist_empty");
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn labels_address_distinct_metrics() {
        let _lock = crate::test_lock();
        let a = counter_labeled("registry.test.labels", "mmul/k5");
        let b = counter_labeled("registry.test.labels", "mmul/k6");
        let a2 = counter_labeled("registry.test.labels", "mmul/k5");
        assert!(std::ptr::eq(a, a2), "same (name, label) must be shared");
        assert!(!std::ptr::eq(a, b), "labels must not collide");
        a.add(2);
        b.add(5);
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_collision_panics() {
        let _lock = crate::test_lock();
        counter("registry.test.kind_collision");
        gauge("registry.test.kind_collision");
    }

    #[test]
    fn concurrent_counter_increments_do_not_lose_updates() {
        let _lock = crate::test_lock();
        let c = counter("registry.test.concurrent");
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    // Exercise both the cached-handle and lookup paths.
                    for i in 0..PER_THREAD {
                        if i % 2 == 0 {
                            c.inc();
                        } else {
                            counter("registry.test.concurrent").inc();
                        }
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn snapshot_is_sorted_and_reset_zeroes_in_place() {
        let _lock = crate::test_lock();
        let c = counter_labeled("registry.test.snap", "b");
        counter_labeled("registry.test.snap", "a").inc();
        c.add(3);
        let snap = snapshot();
        let mine: Vec<_> = snap
            .iter()
            .filter(|m| m.name == "registry.test.snap")
            .collect();
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].label, "a");
        assert_eq!(mine[1].label, "b");
        assert_eq!(mine[1].value, SnapshotValue::Counter(3));
        reset();
        assert_eq!(c.get(), 0, "reset zeroes but keeps the handle valid");
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn gauge_set_max_ratchets() {
        let _lock = crate::test_lock();
        let g = gauge("registry.test.gauge_max");
        g.set(10);
        g.set_max(5);
        assert_eq!(g.get(), 10);
        g.set_max(20);
        assert_eq!(g.get(), 20);
    }

    #[test]
    fn span_stat_aggregates() {
        let _lock = crate::test_lock();
        let s = span_stat("registry.test.span");
        s.record(100);
        s.record(300);
        assert_eq!(s.count(), 2);
        assert_eq!(s.total_ns(), 400);
        assert_eq!(s.min_ns(), 100);
        assert_eq!(s.max_ns(), 300);
        assert!((s.mean_ns() - 200.0).abs() < f64::EPSILON);
    }
}
