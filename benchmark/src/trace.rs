//! The harness's own span recorder: spans are opened in the benchmark's
//! files around each call into a layer, kept in memory, and written out as
//! a Chrome trace when the traced repetition ends. Nothing here touches the
//! crates under test (no `sickle-obs`, no switch inside the program).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layer a span's time is charged to: the crate whose public function the
/// span wraps, everything beneath that call included.
pub type Layer = &'static str;

/// Layer of the root span and of harness bookkeeping between calls; time
/// charged to it is time no layer accounts for.
pub const HARNESS: Layer = "harness";

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Recording thread, numbered in order of first use.
    pub thread: u32,
}

thread_local! {
    /// Innermost open span on this thread and the thread's number.
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

/// In-memory span recorder. It records only while the root span of a traced
/// repetition is open, so set-up and checks may share code with the timed
/// region; not recording, `span` costs one branch, so traced and untraced
/// repetitions run the same workload code.
pub struct Tracer {
    armed: bool,
    recording: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    threads: AtomicU32,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    open: Option<(&'a Tracer, usize, Option<usize>)>,
    root: bool,
}

impl Tracer {
    /// `armed`: whether this repetition is the traced one.
    pub fn new(armed: bool) -> Self {
        Tracer {
            armed,
            recording: AtomicBool::new(false),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            threads: AtomicU32::new(0),
        }
    }

    /// Opens the root span over the timed region; recording runs from here
    /// until the guard drops. Threads spawned inside see the flag through
    /// the spawn itself.
    pub fn root(&self) -> SpanGuard<'_> {
        self.recording.store(self.armed, Ordering::SeqCst);
        let mut guard = self.span("repetition", HARNESS);
        guard.root = true;
        guard
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn thread_number(&self) -> u32 {
        THREAD.with(|t| {
            t.get().unwrap_or_else(|| {
                let number = self.threads.fetch_add(1, Ordering::Relaxed) + 1;
                t.set(Some(number));
                number
            })
        })
    }

    /// Opens a span under this thread's innermost open span.
    pub fn span(&self, name: &'static str, layer: Layer) -> SpanGuard<'_> {
        if !self.recording.load(Ordering::Relaxed) {
            return SpanGuard {
                open: None,
                root: false,
            };
        }
        let parent = CURRENT.with(Cell::get);
        let thread = self.thread_number();
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer spans");
        let id = spans.len();
        spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            thread,
        });
        drop(spans);
        CURRENT.with(|c| c.set(Some(id)));
        SpanGuard {
            open: Some((self, id, parent)),
            root: false,
        }
    }

    /// The calling thread's innermost open span, to hand to a thread it
    /// spawns.
    pub fn current(&self) -> Option<usize> {
        CURRENT.with(Cell::get)
    }

    /// Makes `parent` the cause of the spans a freshly spawned thread opens.
    pub fn adopt(&self, parent: Option<usize>) {
        CURRENT.with(|c| c.set(parent));
    }

    /// All spans recorded so far (open ones read as zero-length).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer spans").clone()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((tracer, id, parent)) = self.open.take() {
            let end = tracer.now_ns();
            if let Ok(mut spans) = tracer.spans.lock() {
                spans[id].end_ns = end;
            }
            CURRENT.with(|c| c.set(parent));
            if self.root {
                tracer.recording.store(false, Ordering::SeqCst);
            }
        }
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Wall-clock attribution: every instant is charged to the innermost open
/// spans at that instant — the open spans none of whose children is open —
/// split equally when several threads have one. For serial code this is
/// exactly self time; with parallel clients the rows still sum to the wall
/// clock of the root span instead of to CPU time.
pub fn attribute_ns(spans: &[Span]) -> Vec<f64> {
    // (time, closes-before-opens order, span)
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * spans.len());
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns > s.start_ns {
            events.push((s.start_ns, true, i));
            events.push((s.end_ns, false, i));
        }
    }
    events.sort_unstable();
    let mut open_children = vec![0u32; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut charged = vec![0.0f64; spans.len()];
    let mut last = 0u64;
    for (t, opens, i) in events {
        if t > last {
            let leaves: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&a| open_children[a] == 0)
                .collect();
            let share = (t - last) as f64 / leaves.len().max(1) as f64;
            for a in leaves {
                charged[a] += share;
            }
        }
        last = t;
        if opens {
            active.push(i);
        } else {
            active.retain(|&a| a != i);
        }
        if let Some(p) = spans[i].parent {
            open_children[p] = if opens {
                open_children[p] + 1
            } else {
                open_children[p].saturating_sub(1)
            };
        }
    }
    charged
}

/// One row per layer, in seconds, from [`attribute_ns`].
pub fn ledger(spans: &[Span]) -> BTreeMap<Layer, f64> {
    let mut rows = BTreeMap::new();
    for (s, ns) in spans.iter().zip(attribute_ns(spans)) {
        *rows.entry(s.layer).or_insert(0.0) += ns / 1e9;
    }
    rows
}

/// Share of `total_secs` the ledger charges to no layer — the root span's
/// own time plus whatever the rows fail to cover.
pub fn unattributed_frac(rows: &BTreeMap<Layer, f64>, total_secs: f64) -> f64 {
    let layers: f64 = rows
        .iter()
        .filter(|(layer, _)| **layer != HARNESS)
        .map(|(_, secs)| secs)
        .sum();
    ((total_secs - layers) / total_secs).max(0.0)
}

/// Renders the spans as a Chrome `trace_event` array (complete events, µs),
/// loadable in Perfetto or `chrome://tracing`. Self time rides in `args`.
pub fn chrome_trace(spans: &[Span], workload: &str, repetition: u32) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3},\"workload\":\"{workload}\",\"repetition\":{repetition}}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.thread,
            self_ns as f64 / 1e3,
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<usize>, thread: u32) -> Span {
        Span {
            name: "s",
            layer,
            start_ns,
            end_ns,
            parent,
            thread,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(HARNESS, 0, 100, None, 1),    // root
            span("core", 10, 40, Some(0), 1),  // child
            span("field", 15, 25, Some(1), 1), // grandchild
            span("store", 50, 90, Some(0), 1), // sibling of 1
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Serial code: attribution is self time.
        assert_eq!(attribute_ns(&spans), vec![30.0, 20.0, 10.0, 40.0]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(HARNESS, 0, 100, None, 1),
            span("store", 10, 60, Some(0), 2),
            span("store", 40, 90, Some(0), 3),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
        // 10..40 to the first, 40..60 shared, 60..90 to the second.
        assert_eq!(attribute_ns(&spans), vec![20.0, 40.0, 40.0]);
    }

    #[test]
    fn ledger_rows_sum_to_the_root_span() {
        let spans = vec![
            span(HARNESS, 0, 1_000, None, 1),
            span("core", 0, 400, Some(0), 1),
            span("store", 400, 970, Some(0), 1),
            span("store", 500, 900, Some(0), 2),
        ];
        let rows = ledger(&spans);
        let total: f64 = rows.values().sum();
        assert!((total - 1_000e-9).abs() < 1e-15);
        assert!((rows["core"] - 400e-9).abs() < 1e-15);
        assert!((rows["store"] - 570e-9).abs() < 1e-15);
        let frac = unattributed_frac(&rows, 1_000e-9);
        assert!((frac - 0.03).abs() < 1e-9, "{frac}");
        // A ledger that leaves a tenth of the region uncovered fails the 5 % gate.
        let gap = vec![
            span(HARNESS, 0, 1_000, None, 1),
            span("nn", 0, 900, Some(0), 1),
        ];
        assert!(unattributed_frac(&ledger(&gap), 1_000e-9) > 0.05);
    }

    #[test]
    fn tracer_records_parents_across_threads_and_is_free_when_off() {
        let off = Tracer::new(false);
        {
            let _root = off.root();
            drop(off.span("x", "core"));
        }
        assert!(off.spans().is_empty());

        let tracer = Tracer::new(true);
        drop(tracer.span("set-up", "store"));
        {
            let _root = tracer.root();
            {
                let _a = tracer.span("a", "core");
            }
            let parent = tracer.current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    tracer.adopt(parent);
                    let _b = tracer.span("b", "store");
                });
            });
        }
        drop(tracer.span("checks", "store"));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3, "only the timed region is recorded");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_ne!(spans[2].thread, spans[0].thread);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let json = chrome_trace(&spans, "w", 0);
        assert!(serde_json::value_from_str(&json).is_ok(), "{json}");
    }
}
