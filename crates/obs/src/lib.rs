//! # sickle-obs
//!
//! Structured tracing, metrics, and Chrome-trace export for the SICKLE
//! pipeline — the observability layer the paper's cost claims (wall-clock,
//! rank scalability, energy) are measured through.
//!
//! Dependency-light by design (vendored `serde`/`serde_json` and `std`
//! only), because every other workspace crate sits on top of it.
//!
//! ## Model
//!
//! - **Spans** ([`span!`], [`SpanGuard`]) are RAII phase markers that nest
//!   via a thread-local stack; cross-thread nesting (rank threads, rayon
//!   workers) captures [`current_span_id`] on the spawning side and opens
//!   children with [`child_span!`]. Every span's end event carries the
//!   process-wide FLOP/byte delta observed while it was open, converted to
//!   joules with the configured machine coefficients — the bridge to
//!   `sickle-energy`'s meters.
//! - **Metrics** ([`counter!`], [`gauge!`], [`histogram!`]) are `&'static`
//!   atomics registered once by name; histograms use 64 log₂ buckets and
//!   report approximate p50/p95/p99.
//! - **Events** go to a lock-free segmented sink ([`drain`]) and export as
//!   a Chrome `trace_event` file (Perfetto-loadable), plus a plain-text
//!   summary table.
//! - **Logging** ([`error!`], [`warn!`], [`info!`], [`debug!`]) replaces
//!   ad-hoc `println!` progress output, gated by `SICKLE_LOG`.
//!
//! ## Env switches
//!
//! - `SICKLE_TRACE=path` — enables tracing and writes the trace to `path`
//!   as Chrome `trace_event` JSON on [`finish`]. A summary table is printed
//!   to stderr.
//! - `SICKLE_LOG=off|error|warn|info|debug|trace` — log verbosity
//!   (default `info`).
//!
//! ## Zero-cost when off
//!
//! With tracing disabled, `span!` is one relaxed atomic load and returns an
//! inert guard: no clock read, no allocation (proven by
//! `tests/disabled_zero_alloc.rs`), so fully instrumented hot loops keep
//! the workspace's allocation-free stepping guarantees.

pub mod context;
pub mod export;
pub mod logging;
pub mod metrics;
pub mod sink;
mod span;

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub use context::{current_context, trace_id, TraceContext};
pub use logging::{log_enabled, set_log_level, Level};
pub use metrics::{snapshot, MetricSnapshot, ToMetric};
pub use sink::{drain, dropped_events, Event, EventKind};
pub use span::{current_span_id, SpanGuard};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when tracing is active (spans and metric events are recorded).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns event recording on or off (tests and the overhead benchmark; real
/// runs use [`init_from_env`]).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process trace clock: a monotone [`Instant`] paired with the unix
/// wall-clock nanoseconds captured at the same moment, so traces from
/// different processes can be re-based onto one shared timeline.
fn trace_clock() -> &'static (Instant, u64) {
    static START: OnceLock<(Instant, u64)> = OnceLock::new();
    START.get_or_init(|| {
        let unix_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        (Instant::now(), unix_ns)
    })
}

/// Nanoseconds since the process trace clock started (first observability
/// call). Monotone across all threads.
pub fn now_ns() -> u64 {
    trace_clock().0.elapsed().as_nanos() as u64
}

/// Unix wall-clock nanoseconds at the instant the process trace clock
/// started. `epoch_unix_ns() + event.ts_ns` places an event on the shared
/// cross-process timeline (the Chrome exporter does exactly this, which is
/// what lines two processes' tracks up in one merged Perfetto view).
pub fn epoch_unix_ns() -> u64 {
    trace_clock().1
}

/// Dense per-thread id for trace attribution: the first thread to record
/// gets 1, the next 2, and so on.
pub fn thread_id() -> u32 {
    static NEXT_TID: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TID: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

static TRACE_PATH: OnceLock<Option<String>> = OnceLock::new();

/// Reads `SICKLE_TRACE` / `SICKLE_LOG` and configures the layer; call once
/// near the top of `main`. Returns true when tracing was enabled.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("SICKLE_LOG") {
        match Level::parse(&v) {
            Some(level) => set_log_level(level),
            None => eprintln!("[sickle warn obs] unknown SICKLE_LOG level `{v}`, keeping default"),
        }
    }
    let path = std::env::var("SICKLE_TRACE").ok().filter(|p| !p.is_empty());
    let tracing = path.is_some();
    let _ = TRACE_PATH.set(path);
    if tracing {
        set_enabled(true);
        now_ns(); // pin the trace clock epoch to init time
    }
    tracing
}

/// Flushes the trace configured by [`init_from_env`]: drains the sink,
/// writes the Chrome `trace_event` file, and prints the summary table to
/// stderr. A no-op when
/// `SICKLE_TRACE` was not set. Idempotent — a second call writes an empty
/// trace only if nothing recorded since.
pub fn finish() {
    let Some(Some(path)) = TRACE_PATH.get().map(Option::as_ref) else {
        return;
    };
    set_enabled(false);
    let dropped = dropped_events();
    let events = drain();
    match std::fs::write(path, export::to_chrome_trace(&events)) {
        Ok(()) => eprintln!(
            "[sickle info obs] wrote {} events to {path}{}",
            events.len(),
            if dropped > 0 {
                format!(" ({dropped} dropped: sink full)")
            } else {
                String::new()
            }
        ),
        Err(e) => eprintln!("[sickle error obs] failed to write trace {path}: {e}"),
    }
    eprint!("{}", export::summary_table(&events));
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Opens a RAII span: `let _s = span!("phase2.maxent", cubes = n);`.
/// Arguments are `ident = numeric-expr` pairs recorded on the begin event.
/// Returns a [`SpanGuard`]; the span ends when the guard drops. Free when
/// tracing is disabled (one atomic load, no allocation).
#[macro_export]
macro_rules! span {
    ($name:literal $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::begin(
                $name,
                &[$((stringify!($k), $crate::ToMetric::to_metric(&$v))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Opens a span under an explicitly captured parent id — the cross-thread
/// variant of [`span!`] for rayon workers and rank threads:
///
/// ```ignore
/// let parent = sickle_obs::current_span_id();
/// items.par_iter().for_each(|item| {
///     let _s = sickle_obs::child_span!(parent, "phase2.cube", cube = item.id);
///     // ...
/// });
/// ```
#[macro_export]
macro_rules! child_span {
    ($parent:expr, $name:literal $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::begin_with_parent(
                $name,
                $parent,
                &[$((stringify!($k), $crate::ToMetric::to_metric(&$v))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Adds to a named monotone counter: `counter!("sample.points_out", n);`.
#[macro_export]
macro_rules! counter {
    ($name:literal, $delta:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::metrics::Counter> =
            std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::metrics::register_counter($name))
            .add($crate::ToMetric::to_metric(&$delta) as u64);
    }};
}

/// Sets a named gauge: `gauge!("train.loss", loss);`.
#[macro_export]
macro_rules! gauge {
    ($name:literal, $value:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::metrics::register_gauge($name))
            .set($crate::ToMetric::to_metric(&$value));
    }};
}

/// Records into a named log₂ histogram: `histogram!("sample.points_per_sec", rate);`.
#[macro_export]
macro_rules! histogram {
    ($name:literal, $value:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::metrics::register_histogram($name))
            .record($crate::ToMetric::to_metric(&$value));
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __log_at {
    ($level:expr, $target:literal, $($arg:tt)+) => {
        if $crate::log_enabled($level) {
            $crate::logging::log($level, $target, format_args!($($arg)+));
        }
    };
}

/// Logs at error level: `error!("bench", "failed to open {path}");`.
/// The first argument is a static target/category name.
#[macro_export]
macro_rules! error {
    ($target:literal, $($arg:tt)+) => { $crate::__log_at!($crate::Level::Error, $target, $($arg)+) };
}

/// Logs at warn level (see [`error!`] for the shape).
#[macro_export]
macro_rules! warn {
    ($target:literal, $($arg:tt)+) => { $crate::__log_at!($crate::Level::Warn, $target, $($arg)+) };
}

/// Logs at info level — the default verbosity, for progress milestones.
#[macro_export]
macro_rules! info {
    ($target:literal, $($arg:tt)+) => { $crate::__log_at!($crate::Level::Info, $target, $($arg)+) };
}

/// Logs at debug level — hidden unless `SICKLE_LOG=debug` (or `trace`).
#[macro_export]
macro_rules! debug {
    ($target:literal, $($arg:tt)+) => { $crate::__log_at!($crate::Level::Debug, $target, $($arg)+) };
}

#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_macro_records_nested_begin_end_pairs() {
        let _guard = test_guard();
        let _ = drain();
        set_enabled(true);
        {
            let _outer = span!("lib.test.outer", cubes = 4usize);
            let _inner = span!("lib.test.inner");
        }
        set_enabled(false);
        let events: Vec<Event> = drain()
            .into_iter()
            .filter(|e| e.name.starts_with("lib.test."))
            .collect();
        assert_eq!(events.len(), 4);
        let (outer_id, inner_parent) = match (&events[0].kind, &events[1].kind) {
            (EventKind::Begin { id, args, .. }, EventKind::Begin { parent, .. }) => {
                assert_eq!(args[0], ("cubes", 4.0));
                (*id, *parent)
            }
            other => panic!("expected two begins, got {other:?}"),
        };
        assert_eq!(inner_parent, outer_id, "inner must parent to outer");
        assert!(matches!(events[2].kind, EventKind::End { .. }));
        assert!(matches!(events[3].kind, EventKind::End { .. }));
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _guard = test_guard();
        let _ = drain();
        set_enabled(false);
        {
            let g = span!("lib.test.disabled");
            assert!(!g.is_active());
        }
        assert!(drain().iter().all(|e| e.name != "lib.test.disabled"));
    }

    #[test]
    fn span_end_carries_flop_byte_deltas() {
        let _guard = test_guard();
        let _ = drain();
        set_enabled(true);
        {
            let _s = span!("lib.test.energy");
            metrics::add_flops(1000);
            metrics::add_bytes(64);
        }
        set_enabled(false);
        let events = drain();
        let end = events
            .iter()
            .find(|e| e.name == "lib.test.energy" && matches!(e.kind, EventKind::End { .. }))
            .expect("end event");
        if let EventKind::End { flops, bytes, .. } = end.kind {
            assert!(flops >= 1000, "flops delta {flops}");
            assert!(bytes >= 64, "bytes delta {bytes}");
        }
    }

    #[test]
    fn finish_without_trace_path_is_a_noop() {
        let _guard = test_guard();
        finish();
    }

    #[test]
    fn log_macros_respect_level_and_record_when_tracing() {
        let _guard = test_guard();
        let _ = drain();
        set_log_level(Level::Info);
        set_enabled(true);
        info!("lib.test", "progress {}", 42);
        debug!("lib.test", "hidden {}", 43);
        set_enabled(false);
        let logs: Vec<Event> = drain()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::Log { .. }) && e.name == "lib.test")
            .collect();
        assert_eq!(logs.len(), 1);
        if let EventKind::Log { ref message, level } = logs[0].kind {
            assert_eq!(message, "progress 42");
            assert_eq!(level, Level::Info);
        }
    }
}
