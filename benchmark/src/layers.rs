//! Per-layer accounting of a traced run: span totals and self times,
//! per-call latency samples, allocation counts and program counters,
//! folded from `axqa_obs` snapshots drained between operations.

use axqa_obs::Snapshot;
use std::collections::{BTreeMap, HashMap};

/// Everything recorded under one span name.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_us: u64,
    /// Time covered by direct child spans on the same thread.
    pub child_us: u64,
    /// Allocation events attributed to the span itself (children
    /// excluded), when the counting allocator is installed.
    pub allocs: u64,
    /// Per-call durations in microseconds.
    pub samples_us: Vec<f64>,
}

impl SpanTotals {
    pub fn total_s(&self) -> f64 {
        self.total_us as f64 / 1e6
    }

    /// The span's duration minus the part its child spans cover.
    pub fn self_s(&self) -> f64 {
        self.total_us.saturating_sub(self.child_us) as f64 / 1e6
    }
}

#[derive(Debug, Default)]
pub struct Layers {
    spans: BTreeMap<&'static str, SpanTotals>,
    counters: BTreeMap<String, u64>,
}

impl Layers {
    /// Folds in one drained snapshot. Drain only between operations, so
    /// that every parent span is in the same snapshot as its children.
    pub fn absorb(&mut self, snapshot: &Snapshot) {
        let names: HashMap<u64, &'static str> =
            snapshot.spans.iter().map(|s| (s.id, s.name)).collect();
        for span in &snapshot.spans {
            let duration = span.end_us.saturating_sub(span.start_us);
            let totals = self.spans.entry(span.name).or_default();
            totals.calls += 1;
            totals.total_us += duration;
            totals.allocs += span.alloc_count;
            totals.samples_us.push(duration as f64);
            if let Some(parent) = span.parent.and_then(|id| names.get(&id)) {
                self.spans.entry(parent).or_default().child_us += duration;
            }
        }
        for (name, value) in &snapshot.counters {
            *self.counters.entry(name.clone()).or_default() += value;
        }
    }

    pub fn span(&self, name: &str) -> SpanTotals {
        self.spans.get(name).cloned().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Counters whose names start with one of `prefixes`, for the
    /// determinism check.
    pub fn counters_with(&self, prefixes: &[&str]) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(name, value)| (name.clone(), *value))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let recorder = axqa_obs::Recorder::new();
        recorder.install();
        {
            let _outer = axqa_obs::span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = axqa_obs::span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
            axqa_obs::counter("tsbuild.merges", 3);
        }
        axqa_obs::uninstall();
        let mut layers = Layers::default();
        layers.absorb(&recorder.drain());
        let outer = layers.span("outer");
        let inner = layers.span("inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert_eq!(outer.child_us, inner.total_us);
        assert!(outer.self_s() < outer.total_s());
        assert_eq!(layers.counter("tsbuild.merges"), 3);
        assert_eq!(layers.counters_with(&["tsbuild."]).len(), 1);
    }
}
