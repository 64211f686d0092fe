//! Counters, gauges, and fixed-bucket log₂ histograms, plus the global
//! FLOP/byte totals that bridge `sickle-energy` meters into span energy
//! attribution.
//!
//! Metric handles are `&'static` and registered once by name (the
//! `counter!`/`gauge!`/`histogram!` macros cache the handle in a local
//! `OnceLock`), so the steady-state update path is a single relaxed atomic
//! RMW — no locks, no allocation, no map lookup.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::sink::{self, Event, EventKind};
use crate::{now_ns, thread_id};

// ---------------------------------------------------------------------------
// Process-wide FLOP/byte totals (the sickle-energy bridge)
// ---------------------------------------------------------------------------

static FLOPS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Joules per FLOP / per byte used for span energy attribution; they match
/// `sickle_energy::MachineModel::frontier_node`.
const J_PER_FLOP: f64 = 10e-12;
const J_PER_BYTE: f64 = 1e-9;

/// Adds to the process-wide FLOP total (called by `EnergyMeter`).
#[inline]
pub fn add_flops(n: u64) {
    FLOPS.fetch_add(n, Ordering::Relaxed);
}

/// Adds to the process-wide byte total (called by `EnergyMeter`).
#[inline]
pub fn add_bytes(n: u64) {
    BYTES.fetch_add(n, Ordering::Relaxed);
}

/// Process-wide FLOPs recorded so far.
pub fn flops_total() -> u64 {
    FLOPS.load(Ordering::Relaxed)
}

/// Process-wide bytes recorded so far.
pub fn bytes_total() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Modeled joules for `flops` + `bytes` under the span energy coefficients.
pub fn span_joules(flops: u64, bytes: u64) -> f64 {
    flops as f64 * J_PER_FLOP + bytes as f64 * J_PER_BYTE
}

// ---------------------------------------------------------------------------
// Numeric conversion for macro arguments
// ---------------------------------------------------------------------------

/// Converts span/metric argument values to `f64` (implemented for the
/// numeric primitives so `span!("x", cubes = n)` takes a `usize` directly).
pub trait ToMetric {
    /// The value as `f64`.
    fn to_metric(&self) -> f64;
}

macro_rules! impl_to_metric {
    ($($t:ty),*) => {$(
        impl ToMetric for $t {
            #[inline]
            fn to_metric(&self) -> f64 {
                *self as f64
            }
        }
    )*};
}

impl_to_metric!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

// ---------------------------------------------------------------------------
// Counters, gauges, histograms
// ---------------------------------------------------------------------------

/// Monotone counter. Updates are relaxed atomic adds; when tracing is
/// enabled each update also emits a `Value` event with the running total.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` and (when tracing) records the new total.
    #[inline]
    pub fn add(&self, n: u64) {
        let total = self.value.fetch_add(n, Ordering::Relaxed) + n;
        if crate::enabled() {
            sink::push(Event {
                name: self.name,
                tid: thread_id(),
                ts_ns: now_ns(),
                kind: EventKind::Value {
                    value: total as f64,
                },
            });
        }
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge.
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge and (when tracing) records the observation.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        if crate::enabled() {
            sink::push(Event {
                name: self.name,
                tid: thread_id(),
                ts_ns: now_ns(),
                kind: EventKind::Value { value: v },
            });
        }
    }

    /// Current value (NaN before the first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of log₂ buckets in a histogram: bucket `i` covers `[2^i, 2^(i+1))`
/// (bucket 0 also absorbs everything below 1).
pub const HIST_BUCKETS: usize = 64;

/// Fixed-bucket log₂ histogram with lock-free recording; percentiles are
/// approximate (geometric midpoint of the covering bucket), which is
/// accurate to within a factor of √2 — plenty for p50/p95/p99 latency and
/// rate reporting.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    #[inline]
    fn bucket_of(v: f64) -> usize {
        if v < 1.0 || !v.is_finite() {
            0
        } else {
            (v.log2().floor() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: f64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        if crate::enabled() {
            sink::push(Event {
                name: self.name,
                tid: thread_id(),
                ts_ns: now_ns(),
                kind: EventKind::Value { value: v },
            });
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`): the geometric midpoint of
    /// the bucket where the cumulative count crosses `q`. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        quantile_of_buckets(&counts, q)
    }
}

/// Shared bucket→quantile math, usable on non-atomic bucket snapshots (the
/// exporter aggregates span durations into plain `[u64; 64]` arrays).
pub fn quantile_of_buckets(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= target {
            // Geometric midpoint of [2^i, 2^(i+1)); bucket 0 reports 1.0.
            return 2f64.powi(i as i32) * std::f64::consts::SQRT_2;
        }
    }
    2f64.powi(counts.len() as i32 - 1)
}

/// Index of the log₂ bucket covering `v` (exposed for exporter reuse).
pub fn bucket_of(v: f64) -> usize {
    Histogram::bucket_of(v)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// How many `(ts, value)` samples each metric's ring buffer keeps. Every
/// [`snapshot`] call appends one sample, so at a 1 s polling cadence the
/// window covers roughly the last minute.
pub const RING_SAMPLES: usize = 64;

struct Entry {
    metric: Metric,
    /// Time series of `(now_ns, value)` pairs appended by [`snapshot`],
    /// from which per-second rates are computed. Touched only on the
    /// (cold) snapshot path — the hot update path never takes this lock.
    ring: Mutex<VecDeque<(u64, f64)>>,
}

impl Entry {
    fn new(metric: Metric) -> Entry {
        Entry {
            metric,
            ring: Mutex::new(VecDeque::with_capacity(RING_SAMPLES)),
        }
    }
}

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers (or retrieves) the counter named `name`. Call once and cache
/// the handle — the macros do this via a local `OnceLock`.
pub fn register_counter(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock().expect("metric registry poisoned");
    for e in reg.iter() {
        if let Metric::Counter(c) = e.metric {
            if c.name == name {
                return c;
            }
        }
    }
    let c: &'static Counter = Box::leak(Box::new(Counter {
        name,
        value: AtomicU64::new(0),
    }));
    reg.push(Entry::new(Metric::Counter(c)));
    c
}

/// Registers (or retrieves) the gauge named `name`.
pub fn register_gauge(name: &'static str) -> &'static Gauge {
    let mut reg = registry().lock().expect("metric registry poisoned");
    for e in reg.iter() {
        if let Metric::Gauge(g) = e.metric {
            if g.name == name {
                return g;
            }
        }
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge {
        name,
        bits: AtomicU64::new(f64::NAN.to_bits()),
    }));
    reg.push(Entry::new(Metric::Gauge(g)));
    g
}

/// Registers (or retrieves) the histogram named `name`.
pub fn register_histogram(name: &'static str) -> &'static Histogram {
    let mut reg = registry().lock().expect("metric registry poisoned");
    for e in reg.iter() {
        if let Metric::Histogram(h) = e.metric {
            if h.name == name {
                return h;
            }
        }
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram {
        name,
        buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
    }));
    reg.push(Entry::new(Metric::Histogram(h)));
    h
}

/// One registered metric's state at snapshot time — the named replacement
/// for the old anonymous `(name, kind, value, p50, p95, p99)` tuple, now
/// also carrying the ring-buffer-derived rate. Serde-serializable so the
/// serving plane can ship it inside a `Stats` response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// Registered metric name.
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: String,
    /// Counter total, gauge value, or histogram observation count.
    pub value: f64,
    /// Approximate p50 (histograms; 0 otherwise).
    pub p50: f64,
    /// Approximate p95 (histograms; 0 otherwise).
    pub p95: f64,
    /// Approximate p99 (histograms; 0 otherwise).
    pub p99: f64,
    /// Change in `value` per second over the ring-buffer window (counter
    /// increments/s, histogram observations/s; 0 for gauges and until two
    /// snapshots exist).
    pub rate_per_sec: f64,
}

impl MetricSnapshot {
    /// True for monotone kinds where `rate_per_sec` is meaningful.
    pub fn is_monotone(&self) -> bool {
        self.kind != "gauge"
    }
}

/// Appends `value` to the ring and returns the per-second rate across the
/// retained window (0 until two samples span a positive interval).
fn ring_rate(ring: &Mutex<VecDeque<(u64, f64)>>, now: u64, value: f64) -> f64 {
    let mut ring = ring.lock().unwrap_or_else(|e| e.into_inner());
    if ring.len() == RING_SAMPLES {
        ring.pop_front();
    }
    ring.push_back((now, value));
    let (&(t0, v0), &(t1, v1)) = match (ring.front(), ring.back()) {
        (Some(first), Some(last)) if last.0 > first.0 => (first, last),
        _ => return 0.0,
    };
    (v1 - v0) / ((t1 - t0) as f64 / 1e9)
}

/// Snapshot of every registered metric, in registration order. Each call
/// also feeds the per-metric ring buffers, so rates reflect the interval
/// between snapshots — poll at a steady cadence (as `sickle-top` does) for
/// smooth rates.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let now = now_ns();
    let reg = registry().lock().expect("metric registry poisoned");
    reg.iter()
        .map(|e| {
            let (name, kind, raw, p50, p95, p99) = match e.metric {
                Metric::Counter(c) => (c.name, "counter", c.get() as f64, 0.0, 0.0, 0.0),
                Metric::Gauge(g) => (g.name, "gauge", g.get(), 0.0, 0.0, 0.0),
                Metric::Histogram(h) => (
                    h.name,
                    "histogram",
                    h.count() as f64,
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                ),
            };
            // A never-set gauge reads NaN; sanitize so the snapshot always
            // serializes to valid JSON.
            let value = if raw.is_finite() { raw } else { 0.0 };
            let rate = if kind == "gauge" {
                let _ = ring_rate(&e.ring, now, value);
                0.0
            } else {
                ring_rate(&e.ring, now, value)
            };
            MetricSnapshot {
                name: name.to_string(),
                kind: kind.to_string(),
                value,
                p50,
                p95,
                p99,
                rate_per_sec: rate,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_dedupes_by_name() {
        let a = register_counter("metrics.test.dedupe");
        let b = register_counter("metrics.test.dedupe");
        assert!(std::ptr::eq(a, b));
        a.add(2);
        assert_eq!(b.get(), 2);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = register_histogram("metrics.test.hist");
        for _ in 0..90 {
            h.record(100.0); // bucket 6: [64, 128)
        }
        for _ in 0..10 {
            h.record(100_000.0); // bucket 16: [65536, 131072)
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((64.0..128.0).contains(&p50), "p50 = {p50}");
        assert!((65536.0..131072.0).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(0.95) <= p99);
    }

    #[test]
    fn quantile_handles_empty_and_tiny() {
        let h = register_histogram("metrics.test.empty");
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(0.0); // below 1 → bucket 0
        assert!(h.quantile(0.5) >= 1.0);
    }

    #[test]
    fn flop_byte_totals_accumulate() {
        let f0 = flops_total();
        let b0 = bytes_total();
        add_flops(123);
        add_bytes(45);
        assert!(flops_total() >= f0 + 123);
        assert!(bytes_total() >= b0 + 45);
    }

    #[test]
    fn snapshot_names_kinds_and_rates() {
        let c = register_counter("metrics.test.snapshot.ctr");
        let rows = snapshot();
        let row = rows
            .iter()
            .find(|r| r.name == "metrics.test.snapshot.ctr")
            .expect("registered counter appears");
        assert_eq!(row.kind, "counter");
        assert!(row.is_monotone());
        let v0 = row.value;
        c.add(50);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let rows = snapshot();
        let row = rows
            .iter()
            .find(|r| r.name == "metrics.test.snapshot.ctr")
            .unwrap();
        assert_eq!(row.value, v0 + 50.0);
        assert!(
            row.rate_per_sec > 0.0,
            "50 increments over ~20ms must show a positive rate, got {}",
            row.rate_per_sec
        );
    }

    #[test]
    fn snapshot_sanitizes_unset_gauge_and_serializes() {
        let _ = register_gauge("metrics.test.snapshot.unset_gauge");
        let rows = snapshot();
        let row = rows
            .iter()
            .find(|r| r.name == "metrics.test.snapshot.unset_gauge")
            .unwrap();
        assert!(!row.is_monotone());
        assert_eq!(row.value, 0.0, "NaN gauge sanitized");
        let json = serde_json::to_string(row).expect("serialize");
        let back: MetricSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(&back, row);
    }

    #[test]
    fn span_joules_uses_defaults_and_overrides() {
        let j = span_joules(1_000_000_000, 0);
        assert!((j - 0.01).abs() < 1e-9, "default 10 pJ/flop: {j}");
    }
}
