//! The global event sink: a lock-free segmented slot array.
//!
//! Producers claim a slot index with one `fetch_add`, lazily install the
//! owning segment with a CAS, and publish the boxed event with a release
//! store — no mutex is ever taken on the hot path, so rayon workers, rank
//! threads, and the main thread can all record concurrently without
//! serializing on each other.
//!
//! [`drain`] is *not* lock-free (it takes a drain guard so two drains cannot
//! interleave) and must be called at a quiescent point — end of run, end of
//! test — which is the only time the trace is read anyway.

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::logging::Level;

/// Events per segment (power of two).
const SEG_SIZE: usize = 1 << 12;
/// Maximum number of segments; the sink caps at `SEG_SIZE * MAX_SEGS`
/// (~16.7M) events, after which new events are counted as dropped instead
/// of silently growing without bound.
const MAX_SEGS: usize = 1 << 12;

/// What happened; timestamps and thread attribution live in [`Event`].
#[derive(Clone, Debug)]
pub enum EventKind {
    /// A span opened. `parent == 0` means a root span.
    Begin {
        /// Unique span id (process-wide, never reused).
        id: u64,
        /// Id of the enclosing span, 0 for roots.
        parent: u64,
        /// Numeric attributes captured at the call site.
        args: Vec<(&'static str, f64)>,
    },
    /// A span closed.
    End {
        /// Id of the span that closed.
        id: u64,
        /// Wall-clock duration in nanoseconds.
        dur_ns: u64,
        /// Process-wide FLOPs recorded while the span was open.
        flops: u64,
        /// Process-wide bytes recorded while the span was open.
        bytes: u64,
    },
    /// A counter or gauge observation (counters report their running total).
    Value {
        /// The observed value.
        value: f64,
    },
    /// A log line that passed the `SICKLE_LOG` filter while tracing.
    Log {
        /// Severity.
        level: Level,
        /// Rendered message.
        message: String,
    },
}

/// One recorded observation.
#[derive(Clone, Debug)]
pub struct Event {
    /// Span/counter/log-target name (static: event recording never copies
    /// strings except for log message bodies).
    pub name: &'static str,
    /// Small dense per-thread id (assigned on first use, main thread = 1).
    pub tid: u32,
    /// Nanoseconds since the process trace clock started.
    pub ts_ns: u64,
    /// Payload.
    pub kind: EventKind,
}

struct Segment {
    slots: Box<[AtomicPtr<Event>]>,
}

impl Segment {
    fn new() -> Self {
        let mut v = Vec::with_capacity(SEG_SIZE);
        v.resize_with(SEG_SIZE, || AtomicPtr::new(ptr::null_mut()));
        Segment {
            slots: v.into_boxed_slice(),
        }
    }
}

struct Sink {
    next: AtomicUsize,
    dropped: AtomicUsize,
    segs: Box<[AtomicPtr<Segment>]>,
    drain_lock: Mutex<()>,
}

fn sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| {
        let mut v = Vec::with_capacity(MAX_SEGS);
        v.resize_with(MAX_SEGS, || AtomicPtr::new(ptr::null_mut()));
        Sink {
            next: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
            segs: v.into_boxed_slice(),
            drain_lock: Mutex::new(()),
        }
    })
}

/// Records one event. Lock-free; callers are expected to have checked
/// [`crate::enabled`] first (recording while disabled works but wastes a
/// slot on a trace nobody will export).
pub fn push(event: Event) {
    let s = sink();
    let idx = s.next.fetch_add(1, Ordering::Relaxed);
    if idx >= SEG_SIZE * MAX_SEGS {
        s.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let seg_idx = idx / SEG_SIZE;
    let offset = idx % SEG_SIZE;
    let seg_slot = &s.segs[seg_idx];
    let mut seg = seg_slot.load(Ordering::Acquire);
    if seg.is_null() {
        let fresh = Box::into_raw(Box::new(Segment::new()));
        match seg_slot.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => seg = fresh,
            Err(current) => {
                // Another thread installed the segment first; discard ours.
                // SAFETY: `fresh` came from `Box::into_raw` just above and
                // the failed CAS never published it, so this thread is its
                // only owner and frees it exactly once.
                drop(unsafe { Box::from_raw(fresh) });
                seg = current;
            }
        }
    }
    let boxed = Box::into_raw(Box::new(event));
    // SAFETY: `seg` is non-null here, and every non-null segment pointer
    // came from `Box::into_raw` and was published by a successful CAS.
    // Nothing ever frees a segment or resets its pointer, so the pointer is
    // valid for the rest of the process. The Acquire load or CAS pairs with
    // the installer's AcqRel CAS, so the null-initialised slots are visible.
    // The Release store publishes the event's contents to `drain`.
    unsafe { &(*seg).slots[offset] }.store(boxed, Ordering::Release);
}

/// Number of events rejected because the sink was full.
pub fn dropped_events() -> usize {
    sink().dropped.load(Ordering::Relaxed)
}

/// Takes every recorded event out of the sink, in recording order, and
/// resets it. Must run at a quiescent point: events still being published
/// by a racing thread may be missed (their slots are skipped, not leaked —
/// a later drain picks them up).
pub fn drain() -> Vec<Event> {
    let s = sink();
    let _guard = s.drain_lock.lock().expect("sink drain lock poisoned");
    let count = s.next.load(Ordering::Acquire).min(SEG_SIZE * MAX_SEGS);
    let mut out = Vec::with_capacity(count);
    for idx in 0..count {
        let seg = s.segs[idx / SEG_SIZE].load(Ordering::Acquire);
        if seg.is_null() {
            continue;
        }
        // SAFETY: `seg` is non-null and segments are never freed once
        // installed (see `push`), so the reference stays valid.
        let slot = unsafe { &(*seg).slots[idx % SEG_SIZE] };
        let p = slot.swap(ptr::null_mut(), Ordering::AcqRel);
        if !p.is_null() {
            // SAFETY: only `push` stores a non-null slot pointer, always
            // one from `Box::into_raw`. The swap to null makes this drain
            // its sole owner (the drain lock excludes other drains, and
            // `push` never reads a slot), and the AcqRel swap pairs with
            // `push`'s Release store, so the event is fully written.
            out.push(*unsafe { Box::from_raw(p) });
        }
    }
    s.next.store(0, Ordering::Release);
    s.dropped.store(0, Ordering::Release);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_drain_roundtrip_preserves_order_and_payload() {
        let _guard = crate::test_guard();
        let _events = drain(); // isolate from anything recorded earlier
        for i in 0..10 {
            push(Event {
                name: "sink.test",
                tid: 1,
                ts_ns: i,
                kind: EventKind::Value { value: i as f64 },
            });
        }
        let events = drain();
        let ours: Vec<&Event> = events.iter().filter(|e| e.name == "sink.test").collect();
        assert_eq!(ours.len(), 10);
        for (i, e) in ours.iter().enumerate() {
            assert_eq!(e.ts_ns, i as u64);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn one_thread_across_a_segment_boundary_drains_in_push_order() {
        const COUNT: u64 = SEG_SIZE as u64 + 17;
        let _guard = crate::test_guard();
        let _ = drain();
        for i in 0..COUNT {
            push(Event {
                name: "sink.boundary",
                tid: 1,
                ts_ns: i,
                kind: EventKind::Value { value: i as f64 },
            });
        }
        assert_eq!(dropped_events(), 0);
        let events = drain();
        let ours: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "sink.boundary")
            .map(|e| e.ts_ns)
            .collect();
        assert_eq!(ours, (0..COUNT).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_pushes_are_all_collected() {
        // 4 × 4096 events span four segments, so threads race to install
        // segments 1–3 mid-stream and the CAS-and-discard path can run.
        const THREADS: u32 = 4;
        const PER_THREAD: u64 = SEG_SIZE as u64;
        let _guard = crate::test_guard();
        let _ = drain();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        push(Event {
                            name: "sink.concurrent",
                            tid: t,
                            ts_ns: i,
                            kind: EventKind::Value { value: 0.0 },
                        });
                    }
                });
            }
        });
        let events = drain();
        let mut seen = std::collections::HashSet::new();
        for e in events.iter().filter(|e| e.name == "sink.concurrent") {
            assert!(
                seen.insert((e.tid, e.ts_ns)),
                "event ({}, {}) drained twice",
                e.tid,
                e.ts_ns
            );
        }
        assert_eq!(seen.len() as u64, u64::from(THREADS) * PER_THREAD);
    }
}
