//! The trace exporter and its validator — Chrome `trace_event` JSON
//! (loadable in `chrome://tracing` and Perfetto), the one trace format —
//! and the end-of-run plain-text summary table.
//!
//! The schema is documented in DESIGN.md §8 and §13; the validator here is
//! the same code CI runs against an instrumented end-to-end run, so the
//! documented schema and the enforced schema cannot drift apart.
//!
//! ## Cross-process traces
//!
//! Every exported event carries the producing process's `pid`, and Chrome
//! timestamps are *absolute* unix microseconds (`epoch_unix_ns() + ts_ns`),
//! so traces written by different processes line up on one timeline when
//! concatenated with [`merge_chrome_traces`] (or the `trace_merge` binary).
//! Span ids are pid-namespaced (see `crate::span`), which lets a span's
//! `parent` point into another process — the validator resolves parents
//! globally across the whole file and report such links in
//! [`TraceStats::cross_process_links`].

use std::collections::HashMap;

use serde::Value;

use crate::metrics::{self, bucket_of, quantile_of_buckets, HIST_BUCKETS};
use crate::sink::{Event, EventKind};

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(x: f64) -> Value {
    Value::Num(x)
}

fn s(x: &str) -> Value {
    Value::Str(x.to_string())
}

// ---------------------------------------------------------------------------
// Chrome trace_event
// ---------------------------------------------------------------------------

/// Serializes events in Chrome `trace_event` format: an object with a
/// `traceEvents` array of `B`/`E` (span), `C` (counter/gauge), and `i`
/// (instant log) phases. Timestamps are **absolute** unix microseconds
/// (`epoch_unix_ns() + ts_ns`) and `pid` is the real process id, so traces
/// from concurrently running processes merge onto one aligned timeline
/// with one track group per process.
pub fn to_chrome_trace(events: &[Event]) -> String {
    to_chrome_trace_for_pid(events, std::process::id(), crate::epoch_unix_ns())
}

/// [`to_chrome_trace`] with explicit pid and clock epoch (exposed so tests
/// can simulate multi-process traces inside one process).
pub fn to_chrome_trace_for_pid(events: &[Event], pid: u32, epoch_unix_ns: u64) -> String {
    let mut trace: Vec<Value> = Vec::with_capacity(events.len());
    for e in events {
        let ts = (epoch_unix_ns.saturating_add(e.ts_ns)) as f64 / 1e3;
        let common = |ph: &str, args: Value| {
            obj(vec![
                ("name", s(e.name)),
                ("cat", s("sickle")),
                ("ph", s(ph)),
                ("ts", num(ts)),
                ("pid", num(pid as f64)),
                ("tid", num(e.tid as f64)),
                ("args", args),
            ])
        };
        trace.push(match &e.kind {
            EventKind::Begin { id, parent, args } => {
                let mut a: Vec<(&str, Value)> = vec![
                    ("span_id", num(*id as f64)),
                    ("parent", num(*parent as f64)),
                ];
                a.extend(args.iter().map(|(k, v)| (*k, num(*v))));
                common("B", obj(a))
            }
            EventKind::End {
                id, flops, bytes, ..
            } => common(
                "E",
                obj(vec![
                    ("span_id", num(*id as f64)),
                    ("flops", num(*flops as f64)),
                    ("bytes", num(*bytes as f64)),
                    ("joules", num(metrics::span_joules(*flops, *bytes))),
                ]),
            ),
            EventKind::Value { value } => common("C", obj(vec![("value", num(*value))])),
            EventKind::Log { level, message } => {
                let v = common(
                    "i",
                    obj(vec![("level", s(level.name())), ("message", s(message))]),
                );
                // Instant events carry a scope field ("t" = thread).
                if let Value::Object(mut pairs) = v {
                    pairs.push(("s".to_string(), s("t")));
                    Value::Object(pairs)
                } else {
                    v
                }
            }
        });
    }
    let root = obj(vec![
        ("traceEvents", Value::Array(trace)),
        ("displayTimeUnit", s("ms")),
    ]);
    serde_json::to_string_pretty(&root).expect("chrome trace serialize")
}

// ---------------------------------------------------------------------------
// Summary table
// ---------------------------------------------------------------------------

struct SpanAgg {
    name: String,
    count: u64,
    total_ns: u64,
    dur_buckets: [u64; HIST_BUCKETS],
    flops: u64,
    bytes: u64,
}

/// Renders the end-of-run plain-text summary: per-span-name count, total
/// time, p50/p95/p99 (log-bucket approximate), FLOPs, bytes, and modeled
/// joules, followed by registered metrics.
pub fn summary_table(events: &[Event]) -> String {
    let mut order: Vec<String> = Vec::new();
    let mut aggs: HashMap<String, SpanAgg> = HashMap::new();
    for e in events {
        if let EventKind::End {
            dur_ns,
            flops,
            bytes,
            ..
        } = &e.kind
        {
            let agg = aggs.entry(e.name.to_string()).or_insert_with(|| {
                order.push(e.name.to_string());
                SpanAgg {
                    name: e.name.to_string(),
                    count: 0,
                    total_ns: 0,
                    dur_buckets: [0; HIST_BUCKETS],
                    flops: 0,
                    bytes: 0,
                }
            });
            agg.count += 1;
            agg.total_ns += *dur_ns;
            agg.dur_buckets[bucket_of(*dur_ns as f64)] += 1;
            agg.flops += *flops;
            agg.bytes += *bytes;
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>7} {:>11} {:>9} {:>9} {:>9} {:>12} {:>12} {:>10}\n",
        "span", "count", "total ms", "p50 ms", "p95 ms", "p99 ms", "flops", "bytes", "joules"
    ));
    for name in &order {
        let a = &aggs[name];
        let q = |p: f64| quantile_of_buckets(&a.dur_buckets, p) / 1e6;
        out.push_str(&format!(
            "{:<28} {:>7} {:>11.3} {:>9.3} {:>9.3} {:>9.3} {:>12} {:>12} {:>10.3e}\n",
            a.name,
            a.count,
            a.total_ns as f64 / 1e6,
            q(0.50),
            q(0.95),
            q(0.99),
            a.flops,
            a.bytes,
            metrics::span_joules(a.flops, a.bytes),
        ));
    }
    let metric_rows = metrics::snapshot();
    if !metric_rows.is_empty() {
        out.push_str(&format!(
            "\n{:<28} {:>10} {:>14} {:>11} {:>11} {:>11}\n",
            "metric", "kind", "value", "p50", "p95", "p99"
        ));
        for m in metric_rows {
            out.push_str(&format!(
                "{:<28} {:>10} {:>14.3} {:>11.3} {:>11.3} {:>11.3}\n",
                m.name, m.kind, m.value, m.p50, m.p95, m.p99
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Validators (shared by tests and the CI `trace_validate` binary)
// ---------------------------------------------------------------------------

/// Statistics from a validated trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceStats {
    /// Total events in the file.
    pub events: usize,
    /// Completed spans (balanced begin/end pairs).
    pub spans: usize,
    /// Deepest span nesting observed: the larger of the per-(pid, tid)
    /// begin/end stack and the logical parent chain (which may cross
    /// processes) of begins that carry span ids.
    pub max_depth: usize,
    /// Counter/gauge samples.
    pub values: usize,
    /// Log lines.
    pub logs: usize,
    /// Distinct process ids observed.
    pub pids: usize,
    /// Spans whose parent span lives in a *different* process — the
    /// distributed-tracing links a merged client/server trace must show.
    pub cross_process_links: usize,
}

/// Resolves every span's parent chain across the whole (possibly merged,
/// possibly multi-process) trace: errors on a parent id that no span in the
/// file owns and on parent cycles (hostile input), and returns
/// `(max chain depth, cross-process link count)`.
fn resolve_parent_links(spans: &HashMap<u64, (u64, u64)>) -> Result<(usize, usize), String> {
    let mut max_depth = 0usize;
    let mut cross = 0usize;
    for (&id, &(parent, pid)) in spans {
        if parent != 0 {
            match spans.get(&parent) {
                None => {
                    return Err(format!(
                        "span {id} names parent {parent}, which never begins in this trace"
                    ))
                }
                Some(&(_, parent_pid)) if parent_pid != pid => cross += 1,
                Some(_) => {}
            }
        }
        // Walk the chain to the root; the hop budget turns a parent cycle
        // (impossible from our RAII spans, possible in a crafted file)
        // into an error instead of an infinite loop.
        let mut depth = 1usize;
        let mut cursor = parent;
        while cursor != 0 {
            depth += 1;
            if depth > spans.len() + 1 {
                return Err(format!("span {id} sits on a parent cycle"));
            }
            cursor = match spans.get(&cursor) {
                Some(&(next, _)) => next,
                None => {
                    return Err(format!(
                        "span chain from {id} names parent {cursor}, which never begins"
                    ))
                }
            };
        }
        max_depth = max_depth.max(depth);
    }
    Ok((max_depth, cross))
}

fn field<'a>(e: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, String> {
    e.get(key).ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

fn field_num(e: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    field(e, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a number"))
}

fn field_str<'a>(e: &'a Value, key: &str, ctx: &str) -> Result<&'a str, String> {
    field(e, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a string"))
}

/// Validates a Chrome `trace_event` JSON document: well-formed JSON, a
/// `traceEvents` array (or bare array), required fields on every event,
/// per-(pid, tid) non-decreasing timestamps, and properly nested (balanced,
/// name-matched) begin/end pairs per (pid, tid) track. When begin events
/// carry `args.span_id`/`args.parent` (ours always do), every parent link
/// is resolved globally across the file — including links into *other*
/// processes of a merged trace — and counted in
/// [`TraceStats::cross_process_links`]. Returns trace statistics on
/// success.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let root = serde_json::value_from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events: &[Value] = if let Some(arr) = root.as_array() {
        arr
    } else {
        field(&root, "traceEvents", "root")?
            .as_array()
            .ok_or_else(|| "root: `traceEvents` is not an array".to_string())?
    };
    let mut stats = TraceStats {
        events: events.len(),
        ..Default::default()
    };
    let mut stacks: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut pids: Vec<u64> = Vec::new();
    // span id -> (parent id, pid), from B events carrying span_id args.
    let mut spans: HashMap<u64, (u64, u64)> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        let ctx = format!("event {i}");
        let name = field_str(e, "name", &ctx)?;
        let ph = field_str(e, "ph", &ctx)?;
        let ts = field_num(e, "ts", &ctx)?;
        let pid = field_num(e, "pid", &ctx)? as u64;
        let tid = field_num(e, "tid", &ctx)? as u64;
        if !pids.contains(&pid) {
            pids.push(pid);
        }
        let track = (pid, tid);
        if let Some(&prev) = last_ts.get(&track) {
            if ts < prev {
                return Err(format!(
                    "{ctx}: timestamp {ts} goes backwards on pid {pid} tid {tid} (prev {prev})"
                ));
            }
        }
        last_ts.insert(track, ts);
        match ph {
            "B" => {
                let stack = stacks.entry(track).or_default();
                stack.push(name.to_string());
                stats.max_depth = stats.max_depth.max(stack.len());
                if let Some(args) = e.get("args") {
                    if let Some(id) = args.get("span_id").and_then(Value::as_f64) {
                        let parent = args.get("parent").and_then(Value::as_f64).unwrap_or(0.0);
                        if spans.insert(id as u64, (parent as u64, pid)).is_some() {
                            return Err(format!("{ctx}: span id {id} begins twice"));
                        }
                    }
                }
            }
            "E" => {
                let stack = stacks.entry(track).or_default();
                match stack.pop() {
                    Some(open) if open == name => stats.spans += 1,
                    Some(open) => {
                        return Err(format!(
                            "{ctx}: end `{name}` does not match open span `{open}` \
                             on pid {pid} tid {tid}"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "{ctx}: end `{name}` with no open span on pid {pid} tid {tid}"
                        ))
                    }
                }
            }
            "C" => stats.values += 1,
            "i" => stats.logs += 1,
            other => return Err(format!("{ctx}: unknown phase `{other}`")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "pid {pid} tid {tid}: {} span(s) never ended: {:?}",
                stack.len(),
                stack
            ));
        }
    }
    stats.pids = pids.len();
    if !spans.is_empty() {
        let (chain_depth, cross) = resolve_parent_links(&spans)?;
        stats.max_depth = stats.max_depth.max(chain_depth);
        stats.cross_process_links = cross;
    }
    Ok(stats)
}

/// Merges Chrome `trace_event` documents (one per process) into a single
/// document whose `traceEvents` is the concatenation of the inputs'. Each
/// exporter already stamps real pids and absolute unix-microsecond
/// timestamps, so the merged file needs no re-basing — Perfetto shows one
/// track group per process and [`validate_chrome_trace`] resolves parent
/// links across all of them.
///
/// # Errors
/// The index and parse/shape error of the first invalid input.
pub fn merge_chrome_traces(texts: &[String]) -> Result<String, String> {
    let mut merged: Vec<Value> = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        let root = serde_json::value_from_str(text).map_err(|e| format!("input {i}: {e}"))?;
        let events = if let Some(arr) = root.as_array() {
            arr
        } else {
            root.get("traceEvents")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("input {i}: no `traceEvents` array"))?
        };
        merged.extend(events.iter().cloned());
    }
    let root = obj(vec![
        ("traceEvents", Value::Array(merged)),
        ("displayTimeUnit", s("ms")),
    ]);
    Ok(serde_json::to_string_pretty(&root).expect("chrome trace serialize"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logging::Level;

    fn span_events() -> Vec<Event> {
        vec![
            Event {
                name: "outer",
                tid: 1,
                ts_ns: 100,
                kind: EventKind::Begin {
                    id: 1,
                    parent: 0,
                    args: vec![("cubes", 4.0)],
                },
            },
            Event {
                name: "inner",
                tid: 1,
                ts_ns: 200,
                kind: EventKind::Begin {
                    id: 2,
                    parent: 1,
                    args: vec![],
                },
            },
            Event {
                name: "points",
                tid: 1,
                ts_ns: 250,
                kind: EventKind::Value { value: 51.0 },
            },
            Event {
                name: "inner",
                tid: 1,
                ts_ns: 300,
                kind: EventKind::End {
                    id: 2,
                    dur_ns: 100,
                    flops: 10,
                    bytes: 20,
                },
            },
            Event {
                name: "bench",
                tid: 1,
                ts_ns: 350,
                kind: EventKind::Log {
                    level: Level::Info,
                    message: "halfway \"there\"".to_string(),
                },
            },
            Event {
                name: "outer",
                tid: 1,
                ts_ns: 400,
                kind: EventKind::End {
                    id: 1,
                    dur_ns: 300,
                    flops: 30,
                    bytes: 60,
                },
            },
        ]
    }

    #[test]
    fn chrome_export_round_trips_through_validator() {
        let json = to_chrome_trace(&span_events());
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.events, 6);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.max_depth, 2);
        assert_eq!(stats.values, 1);
        assert_eq!(stats.logs, 1);
    }

    #[test]
    fn validator_rejects_unbalanced_and_interleaved_traces() {
        let mut events = span_events();
        events.pop(); // drop the outer End
        let err = validate_chrome_trace(&to_chrome_trace(&events)).unwrap_err();
        assert!(err.contains("never ended"), "{err}");

        // Cross the end order: outer ends while inner is still open.
        let mut bad = span_events();
        bad.swap(3, 5);
        let err = validate_chrome_trace(&to_chrome_trace(&bad)).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn validator_rejects_backwards_timestamps() {
        let mut events = span_events();
        events[5].ts_ns = 10; // before everything else on tid 1
        let err = validate_chrome_trace(&to_chrome_trace(&events)).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 7}").is_err());
    }

    /// A simulated client/server pair: pid-namespaced span ids, with the
    /// server span parented under the client span across the pid boundary.
    fn two_process_events() -> (Vec<Event>, Vec<Event>) {
        let client_id = (1000u64 << 32) + 1;
        let server_id = (2000u64 << 32) + 1;
        let client = vec![
            Event {
                name: "client.get_batch",
                tid: 1,
                ts_ns: 100,
                kind: EventKind::Begin {
                    id: client_id,
                    parent: 0,
                    args: vec![],
                },
            },
            Event {
                name: "client.get_batch",
                tid: 1,
                ts_ns: 900,
                kind: EventKind::End {
                    id: client_id,
                    dur_ns: 800,
                    flops: 0,
                    bytes: 0,
                },
            },
        ];
        let server = vec![
            Event {
                name: "serve.request",
                tid: 7,
                ts_ns: 50,
                kind: EventKind::Begin {
                    id: server_id,
                    parent: client_id,
                    args: vec![],
                },
            },
            Event {
                name: "serve.request",
                tid: 7,
                ts_ns: 600,
                kind: EventKind::End {
                    id: server_id,
                    dur_ns: 550,
                    flops: 0,
                    bytes: 0,
                },
            },
        ];
        (client, server)
    }

    #[test]
    fn merged_chrome_trace_links_spans_across_pids() {
        let (client, server) = two_process_events();
        // Different epochs: the absolute timestamps keep each pid's track
        // internally monotone regardless of concatenation order.
        let merged = merge_chrome_traces(&[
            to_chrome_trace_for_pid(&server, 2000, 5_000_000),
            to_chrome_trace_for_pid(&client, 1000, 5_000_100),
        ])
        .expect("merge");
        let stats = validate_chrome_trace(&merged).expect("valid merged trace");
        assert_eq!(stats.events, 4);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.pids, 2);
        assert_eq!(stats.cross_process_links, 1);
        assert_eq!(stats.max_depth, 2, "server chains under client");
    }

    #[test]
    fn validator_rejects_dangling_cross_process_parent() {
        let (_, server) = two_process_events();
        // Server alone: its parent span never begins anywhere in the file.
        let err = validate_chrome_trace(&to_chrome_trace_for_pid(&server, 2000, 0)).unwrap_err();
        assert!(err.contains("never begins"), "{err}");
    }

    #[test]
    fn validator_rejects_parent_cycles() {
        let mut spans: HashMap<u64, (u64, u64)> = HashMap::new();
        spans.insert(1, (2, 10));
        spans.insert(2, (1, 10));
        let err = resolve_parent_links(&spans).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn summary_table_aggregates_by_span_name() {
        let table = summary_table(&span_events());
        assert!(table.contains("outer"), "{table}");
        assert!(table.contains("inner"), "{table}");
        let outer_line = table.lines().find(|l| l.starts_with("outer")).unwrap();
        assert!(outer_line.contains(" 1 "), "count column: {outer_line}");
    }
}
