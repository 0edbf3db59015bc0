//! Exporters for a drained [`Snapshot`]: Chrome `trace_event` JSON for
//! `chrome://tracing`/Perfetto, and the flat `axqa-obs/2` metrics
//! document embedded in bench reports (DESIGN.md §9, §12).
//!
//! Both are hand-rolled JSON, same as the bench/lint reports — the
//! crate stays dependency-free.

use std::collections::BTreeMap;

use crate::recorder::{Snapshot, SpanRecord};

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the snapshot as Chrome `trace_event` JSON (`ph: B`/`E`
/// duration events). Open the file in `chrome://tracing` or
/// <https://ui.perfetto.dev> to see per-thread TSBUILD/EVALQUERY
/// timelines; span args (budget bytes, element counts) appear on the
/// `B` events.
pub fn chrome_trace(snapshot: &Snapshot) -> String {
    // Group spans per thread: Chrome requires B/E events of one tid to
    // nest properly, and threads are independent timelines anyway.
    let mut by_tid: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for span in &snapshot.spans {
        by_tid.entry(span.tid).or_default().push(span);
    }
    let mut events: Vec<String> = Vec::with_capacity(snapshot.spans.len() * 2);
    for (tid, mut spans) in by_tid {
        spans.sort_by_key(|s| (s.start_us, s.id));
        // Completed spans arrive as flat (start, end) intervals; replay
        // them against a stack to interleave B/E events in timestamp
        // order with proper nesting.
        let mut open: Vec<&SpanRecord> = Vec::new();
        for span in spans {
            while let Some(top) = open.last() {
                if top.end_us <= span.start_us {
                    events.push(end_event(snapshot.process_id, tid, top));
                    open.pop();
                } else {
                    break;
                }
            }
            events.push(begin_event(snapshot.process_id, tid, span));
            open.push(span);
        }
        while let Some(top) = open.pop() {
            events.push(end_event(snapshot.process_id, tid, top));
        }
    }
    let mut out = String::from("{\"traceEvents\": [\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

fn begin_event(pid: u32, tid: u64, span: &SpanRecord) -> String {
    let mut event = format!(
        "{{\"name\": \"{}\", \"cat\": \"axqa\", \"ph\": \"B\", \"ts\": {}, \"pid\": {}, \"tid\": {}",
        escape_json(span.name),
        span.start_us,
        pid,
        tid
    );
    if let Some((key, value)) = span.arg {
        event.push_str(&format!(
            ", \"args\": {{\"{}\": {}}}",
            escape_json(key),
            value
        ));
    }
    event.push('}');
    event
}

fn end_event(pid: u32, tid: u64, span: &SpanRecord) -> String {
    format!(
        "{{\"name\": \"{}\", \"cat\": \"axqa\", \"ph\": \"E\", \"ts\": {}, \"pid\": {}, \"tid\": {}}}",
        escape_json(span.name),
        span.end_us,
        pid,
        tid
    )
}

/// Renders the snapshot as the flat `axqa-obs/2` metrics document:
/// counter totals, histogram summaries, and per-name span aggregates
/// (count / total / max microseconds, plus the allocation events,
/// bytes, and worst peak-live delta exclusively attributed to spans of
/// that name — all zero unless the binary installed
/// [`crate::alloc::CountingAlloc`]). This is what the `harness` and
/// `xtask` binaries write to `--metrics PATH`.
pub fn metrics_json(snapshot: &Snapshot) -> String {
    let mut out = String::from("{\n  \"schema\": \"axqa-obs/2\",\n");
    out.push_str(&format!("  \"process_id\": {},\n", snapshot.process_id));

    out.push_str("  \"counters\": {");
    let counters: Vec<String> = snapshot
        .counters
        .iter()
        .map(|(name, value)| format!("\n    \"{}\": {}", escape_json(name), value))
        .collect();
    out.push_str(&counters.join(","));
    if !counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"histograms\": {");
    let histograms: Vec<String> = snapshot
        .histograms
        .iter()
        .map(|(name, hist)| {
            let buckets: Vec<String> = hist.buckets.iter().map(u64::to_string).collect();
            format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [{}]}}",
                escape_json(name),
                hist.count,
                hist.sum,
                hist.max,
                buckets.join(", ")
            )
        })
        .collect();
    out.push_str(&histograms.join(","));
    if !histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    // Aggregate spans by name: the trace file has the full timeline,
    // the metrics document only the totals.
    #[derive(Default)]
    struct SpanAgg {
        count: u64,
        total_us: u64,
        max_us: u64,
        allocs: u64,
        alloc_bytes: u64,
        peak_live_bytes: u64,
    }
    let mut by_name: BTreeMap<&str, SpanAgg> = BTreeMap::new();
    for span in &snapshot.spans {
        let duration = span.end_us.saturating_sub(span.start_us);
        let entry = by_name.entry(span.name).or_default();
        entry.count += 1;
        entry.total_us = entry.total_us.saturating_add(duration);
        entry.max_us = entry.max_us.max(duration);
        entry.allocs = entry.allocs.saturating_add(span.alloc_count);
        entry.alloc_bytes = entry.alloc_bytes.saturating_add(span.alloc_bytes);
        entry.peak_live_bytes = entry.peak_live_bytes.max(span.peak_live_delta);
    }
    out.push_str("  \"spans\": {");
    let spans: Vec<String> = by_name
        .iter()
        .map(|(name, agg)| {
            format!(
                "\n    \"{}\": {{\"count\": {}, \"total_us\": {}, \"max_us\": {}, \
                 \"allocs\": {}, \"alloc_bytes\": {}, \"peak_live_bytes\": {}}}",
                escape_json(name),
                agg.count,
                agg.total_us,
                agg.max_us,
                agg.allocs,
                agg.alloc_bytes,
                agg.peak_live_bytes,
            )
        })
        .collect();
    out.push_str(&spans.join(","));
    if !spans.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_snapshot_exports_are_valid_shapes() {
        let snapshot = Snapshot::default();
        let trace = chrome_trace(&snapshot);
        assert!(trace.starts_with("{\"traceEvents\": ["));
        assert!(trace.trim_end().ends_with("]}"));
        let metrics = metrics_json(&snapshot);
        assert!(metrics.contains("\"schema\": \"axqa-obs/2\""));
        assert!(metrics.contains("\"counters\": {}"));
        assert!(metrics.contains("\"spans\": {}"));
    }

    #[test]
    fn sibling_spans_close_before_the_next_opens() {
        let snapshot = Snapshot {
            process_id: 7,
            spans: vec![
                crate::SpanRecord {
                    name: "first",
                    id: 1,
                    parent: None,
                    tid: 0,
                    start_us: 10,
                    end_us: 20,
                    arg: None,
                    alloc_count: 0,
                    alloc_bytes: 0,
                    peak_live_delta: 0,
                },
                crate::SpanRecord {
                    name: "second",
                    id: 2,
                    parent: None,
                    tid: 0,
                    start_us: 30,
                    end_us: 40,
                    arg: None,
                    alloc_count: 0,
                    alloc_bytes: 0,
                    peak_live_delta: 0,
                },
            ],
            counters: Vec::new(),
            histograms: Vec::new(),
        };
        let trace = chrome_trace(&snapshot);
        let first_end = trace.find("\"ph\": \"E\", \"ts\": 20").expect("first E");
        let second_begin = trace.find("\"name\": \"second\"").expect("second B");
        assert!(first_end < second_begin, "E(first) must precede B(second)");
    }
}
