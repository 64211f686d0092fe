//! Trace well-formedness under concurrency: spans opened across
//! `std::thread::scope` threads and rayon workers must still form a single
//! well-formed tree (every begin matched by an end, children pointing at
//! live parents, the exporter's invariants holding).
//!
//! These tests share the process-global sink, so they serialize on a local
//! mutex and filter drained events by test-unique span names.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use rayon::prelude::*;
use sickle_obs::export::{to_chrome_trace, validate_chrome_trace};
use sickle_obs::{current_span_id, drain, Event, EventKind};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Collects the events of one traced closure, isolated by name prefix.
fn record(prefix: &str, f: impl FnOnce()) -> Vec<Event> {
    let _ = drain();
    sickle_obs::set_enabled(true);
    f();
    sickle_obs::set_enabled(false);
    drain()
        .into_iter()
        .filter(|e| e.name.starts_with(prefix))
        .collect()
}

/// Checks the span tree: each Begin has exactly one End with its id, and
/// every non-root parent id belongs to a Begin in the same trace. Returns
/// `(span count, id -> parent)`.
fn assert_well_formed(events: &[Event]) -> (usize, HashMap<u64, u64>) {
    let mut parents: HashMap<u64, u64> = HashMap::new();
    let mut ends: HashMap<u64, usize> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Begin { id, parent, .. } => {
                assert!(
                    parents.insert(id, parent).is_none(),
                    "span id {id} began twice"
                );
            }
            EventKind::End { id, .. } => *ends.entry(id).or_insert(0) += 1,
            _ => {}
        }
    }
    assert_eq!(parents.len(), ends.len(), "unmatched begins/ends");
    for (id, count) in &ends {
        assert_eq!(*count, 1, "span {id} ended {count} times");
        assert!(parents.contains_key(id), "end without begin for {id}");
    }
    for (id, parent) in &parents {
        if *parent != 0 {
            assert!(
                parents.contains_key(parent),
                "span {id} has unknown parent {parent}"
            );
        }
    }
    (parents.len(), parents)
}

#[test]
fn thread_scope_children_parent_to_spawning_span() {
    let _guard = guard();
    let events = record("tree.scope.", || {
        let _root = sickle_obs::span!("tree.scope.root");
        let parent = current_span_id();
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    let _w = sickle_obs::child_span!(parent, "tree.scope.worker", worker = t);
                    let _inner = sickle_obs::span!("tree.scope.inner");
                });
            }
        });
    });
    let (spans, parents) = assert_well_formed(&events);
    assert_eq!(spans, 9, "root + 4 workers + 4 inners");
    // All workers point at the root; all inners point at their worker —
    // the thread-local stack must nest correctly on each spawned thread.
    let root_id = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Begin { id, parent: 0, .. } if e.name == "tree.scope.root" => Some(id),
            _ => None,
        })
        .expect("root begin");
    for e in &events {
        if let EventKind::Begin { id, parent, .. } = e.kind {
            match e.name {
                "tree.scope.worker" => assert_eq!(parent, root_id),
                "tree.scope.inner" => {
                    assert_ne!(parent, root_id, "inner must parent to its worker");
                    assert_eq!(parents[&parent], root_id, "worker chains to root");
                    assert_ne!(id, parent);
                }
                _ => {}
            }
        }
    }
}

#[test]
fn rayon_workers_form_well_formed_trees() {
    let _guard = guard();
    let events = record("tree.rayon.", || {
        let _root = sickle_obs::span!("tree.rayon.root", items = 16usize);
        let parent = current_span_id();
        let sum: usize = (0..16usize)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&i| {
                let _c = sickle_obs::child_span!(parent, "tree.rayon.item", item = i);
                i * i
            })
            .sum();
        assert_eq!(sum, (0..16).map(|i| i * i).sum::<usize>());
    });
    let (spans, _) = assert_well_formed(&events);
    assert_eq!(spans, 17, "root + 16 items");
}

#[test]
fn nested_scopes_inside_ranks_chain_depth() {
    let _guard = guard();
    let events = record("tree.deep.", || {
        let _run = sickle_obs::span!("tree.deep.run");
        let run_id = current_span_id();
        std::thread::scope(|s| {
            for r in 0..2 {
                s.spawn(move || {
                    let _rank = sickle_obs::child_span!(run_id, "tree.deep.rank", rank = r);
                    let rank_id = current_span_id();
                    std::thread::scope(|inner| {
                        inner.spawn(move || {
                            let _leaf = sickle_obs::child_span!(rank_id, "tree.deep.leaf");
                        });
                    });
                });
            }
        });
    });
    let (spans, parents) = assert_well_formed(&events);
    assert_eq!(spans, 5, "run + 2 ranks + 2 leaves");
    // Depth: leaf -> rank -> run -> root(0).
    let leaf = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Begin { id, .. } if e.name == "tree.deep.leaf" => Some(id),
            _ => None,
        })
        .expect("leaf");
    let mut depth = 0;
    let mut cur = leaf;
    while cur != 0 {
        cur = parents[&cur];
        depth += 1;
        assert!(depth <= 5, "parent chain must terminate");
    }
    assert_eq!(depth, 3);
}

#[test]
fn exporters_validate_concurrent_traces() {
    let _guard = guard();
    let events = record("tree.export.", || {
        let _root = sickle_obs::span!("tree.export.root");
        let parent = current_span_id();
        std::thread::scope(|s| {
            for t in 0..3 {
                s.spawn(move || {
                    let _w = sickle_obs::child_span!(parent, "tree.export.worker", worker = t);
                    sickle_obs::counter!("tree.export.count", 1u64);
                });
            }
        });
    });
    let chrome = to_chrome_trace(&events);
    let stats = validate_chrome_trace(&chrome).expect("Chrome trace must validate");
    assert_eq!(stats.spans, 4);
    assert!(stats.max_depth >= 2, "workers chain under the root");
    assert_eq!(stats.values, 3, "three counter observations");
}
