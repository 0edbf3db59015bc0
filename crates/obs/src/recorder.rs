//! The thread-safe [`Recorder`]: per-thread event buffers feeding a
//! shared sink, merged at drain (DESIGN.md §9).
//!
//! Hot-path writes touch only thread-local state; the shared mutex is
//! taken when a top-level span closes, a buffer reaches
//! [`FLUSH_THRESHOLD`] spans, or a thread exits (the buffer's `Drop`).
//!
//! Spans double as allocation windows (DESIGN.md §12): opening a span
//! opens a [`crate::alloc`] window on the same thread, and closing it
//! attributes the window's allocation events to the span —
//! *exclusively*, i.e. each allocation belongs to the innermost span
//! open on its thread when it happened (child totals are subtracted
//! from the parent). Recorder bookkeeping — stack pushes, record
//! pushes, buffer flushes, counter-map inserts — runs with tracking
//! suspended on the thread, so observer cost is attributed to *no*
//! span: a mid-loop buffer flush cannot pollute the hot-path span that
//! happens to be open around it.
//! Worker threads in this workspace are scoped (`std::thread::scope`)
//! and therefore exit — running their flush —
//! before the spawning code can call [`Recorder::drain`], so a drain
//! observes every worker's events. Timestamps are microseconds on a
//! process-wide monotonic epoch, so spans from different threads share
//! one timeline.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// The disabled-path gate: every instrumentation call starts with one
/// relaxed load of this flag and returns when it is false.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Bumped on every install/uninstall; thread buffers compare it to
/// detect a recorder change and flush to the old sink before rebinding.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Process-wide span-id allocator (ids are unique across threads).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide compact thread-id allocator (`ThreadId` has no stable
/// integer form; Chrome traces want small numeric `tid`s).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// The installed recorder, if any.
static GLOBAL: Mutex<Option<Recorder>> = Mutex::new(None);

/// Spans buffered per thread before an eager flush.
const FLUSH_THRESHOLD: usize = 1024;

/// Locks a mutex, treating poisoning as benign (the protected data is
/// monitoring state; a panicked writer leaves at worst a torn metric).
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide monotonic epoch: fixed at the first observability
/// call, shared by every thread so timestamps are comparable.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process-wide monotonic epoch.
pub fn monotonic_micros() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[inline]
pub(crate) fn gate_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of fixed histogram buckets: bucket 0 counts zero values,
/// bucket `i` in `1..=31` counts values in `[2^(i-1), 2^i)`, and the
/// last bucket absorbs everything from `2^31` up.
pub const HISTOGRAM_BUCKETS: usize = 33;

/// A fixed-bucket power-of-two histogram (no allocation per record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] = self.buckets[bucket_index(value)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Bucket of a value: 0 for zero, else `min(bit length, 32)`.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        return 0;
    }
    let bits = 64 - value.leading_zeros();
    usize::try_from(bits.min(32)).unwrap_or(HISTOGRAM_BUCKETS - 1)
}

/// One completed span: monotonic start/stop, the opening thread, and
/// the span open on the same thread when this one began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (paper algorithm names: `TSBUILD`, …).
    pub name: &'static str,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Compact id of the recording thread.
    pub tid: u64,
    /// Start, microseconds on the process-wide monotonic epoch.
    pub start_us: u64,
    /// Stop, microseconds on the same epoch.
    pub end_us: u64,
    /// Optional numeric argument (`("budget_bytes", 10240)`).
    pub arg: Option<(&'static str, u64)>,
    /// Heap allocation events attributed to this span: allocations
    /// performed on the span's thread while it was the *innermost*
    /// open span (exclusive — child spans' events are subtracted).
    /// Zero unless the binary installed [`crate::alloc::CountingAlloc`].
    pub alloc_count: u64,
    /// Bytes requested by those allocation events.
    pub alloc_bytes: u64,
    /// How far the thread's live heap rose above its size at span open
    /// (child-inclusive: a child's transient peak is the parent's too).
    pub peak_live_delta: u64,
}

/// Everything a [`Recorder::drain`] hands back, in deterministic order:
/// spans by `(start_us, id)`, counters and histograms by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// OS process id (the Chrome trace's `pid`).
    pub process_id: u32,
    /// All completed spans.
    pub spans: Vec<SpanRecord>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl Snapshot {
    /// Total of the named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|entry| entry.0 == name)
            .map_or(0, |entry| entry.1)
    }

    /// Number of completed spans with the given name.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total allocation events attributed (exclusively) to spans with
    /// the given name — the dynamic alloc-free check reads this.
    pub fn span_alloc_count(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0u64, |acc, s| acc.saturating_add(s.alloc_count))
    }

    /// Total bytes of the allocation events attributed to spans with
    /// the given name.
    pub fn span_alloc_bytes(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0u64, |acc, s| acc.saturating_add(s.alloc_bytes))
    }
}

/// Merged event sink shared by all thread buffers bound to one recorder.
#[derive(Debug, Default)]
struct Shared {
    spans: Vec<SpanRecord>,
    counters: HashMap<&'static str, u64>,
    histograms: HashMap<&'static str, Histogram>,
}

/// A cloneable handle to one event sink. [`Recorder::install`] makes it
/// the process-global target of [`crate::span`]/[`crate::counter`]/
/// [`crate::observe`]; [`Recorder::drain`] empties it.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<Shared>>,
}

impl Recorder {
    /// A fresh, empty recorder (not yet installed).
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Installs this recorder as the process-global sink and opens the
    /// instrumentation gate. Replaces any previously installed
    /// recorder; events a thread buffered for the old recorder still
    /// flush to the old one.
    pub fn install(&self) {
        let mut global = lock_unpoisoned(&GLOBAL);
        *global = Some(self.clone());
        GENERATION.fetch_add(1, Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
        // Allocation tracking rides the same gate: counting starts when
        // a recorder can attribute the deltas (no-op unless the binary
        // installed crate::alloc::CountingAlloc).
        crate::alloc::set_tracking(true);
    }

    /// Flushes the calling thread's buffer and moves all merged events
    /// out as a deterministic [`Snapshot`]. Threads that are still
    /// running keep their unflushed buffers; in this workspace all
    /// workers are scoped and have exited (flushing on drop) by the
    /// time the spawning code drains.
    pub fn drain(&self) -> Snapshot {
        flush_current_thread();
        let mut shared = lock_unpoisoned(&self.inner);
        let mut spans = std::mem::take(&mut shared.spans);
        spans.sort_by_key(|s| (s.start_us, s.id));
        let mut counters: Vec<(String, u64)> = shared
            .counters
            .drain()
            .map(|(name, value)| (name.to_string(), value))
            .collect();
        counters.sort();
        let mut histograms: Vec<(String, Histogram)> = shared
            .histograms
            .drain()
            .map(|(name, hist)| (name.to_string(), hist))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            process_id: std::process::id(),
            spans,
            counters,
            histograms,
        }
    }

    fn append(&self, buf: &mut ThreadBuf) {
        let mut shared = lock_unpoisoned(&self.inner);
        shared.spans.append(&mut buf.spans);
        for (name, delta) in buf.counters.drain() {
            let slot = shared.counters.entry(name).or_insert(0);
            *slot = slot.saturating_add(delta);
        }
        for (name, hist) in buf.histograms.drain() {
            shared.histograms.entry(name).or_default().merge(&hist);
        }
    }
}

/// Closes the instrumentation gate and detaches the global recorder,
/// returning it (drain it for the collected events). Flushes the
/// calling thread first so its events are not lost.
pub fn uninstall() -> Option<Recorder> {
    flush_current_thread();
    let mut global = lock_unpoisoned(&GLOBAL);
    ENABLED.store(false, Ordering::Relaxed);
    crate::alloc::set_tracking(false);
    GENERATION.fetch_add(1, Ordering::Relaxed);
    global.take()
}

/// A span opened on this thread and not yet closed.
struct Pending {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start_us: u64,
    arg: Option<(&'static str, u64)>,
    /// Allocation-counter snapshot at open (see [`crate::alloc`]).
    window: crate::alloc::AllocWindow,
    /// Total allocation events of already-closed child spans, to be
    /// subtracted for this span's exclusive attribution.
    child_allocs: u64,
    /// Bytes of those child events.
    child_bytes: u64,
}

/// Per-thread event buffer: all hot-path writes land here; `flush`
/// moves them into the bound recorder's shared sink.
struct ThreadBuf {
    tid: u64,
    generation: u64,
    recorder: Option<Recorder>,
    stack: Vec<Pending>,
    spans: Vec<SpanRecord>,
    counters: HashMap<&'static str, u64>,
    histograms: HashMap<&'static str, Histogram>,
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

impl ThreadBuf {
    fn new() -> ThreadBuf {
        ThreadBuf {
            tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            generation: 0,
            recorder: None,
            stack: Vec::new(),
            spans: Vec::new(),
            counters: HashMap::new(),
            histograms: HashMap::new(),
        }
    }

    /// Rebinds to the currently installed recorder when the install
    /// generation moved, flushing buffered events to the recorder they
    /// were collected for first.
    fn rebind(&mut self) {
        let generation = GENERATION.load(Ordering::Relaxed);
        if self.generation != generation {
            self.flush();
            self.recorder = lock_unpoisoned(&GLOBAL).clone();
            self.generation = generation;
        }
    }

    /// Moves buffered events into the bound recorder (drops them when
    /// none is bound — they were recorded into the void).
    fn flush(&mut self) {
        if self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty() {
            return;
        }
        match self.recorder.clone() {
            Some(recorder) => recorder.append(self),
            None => {
                self.spans.clear();
                self.counters.clear();
                self.histograms.clear();
            }
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Flushes the calling thread's buffer into its bound recorder.
pub(crate) fn flush_current_thread() {
    // try_with: a no-op during thread teardown (Drop flushes there).
    let _ = TLS.try_with(|tls| tls.borrow_mut().flush());
}

/// Guard of one open span; closing (dropping) records the stop time.
#[must_use = "bind the guard (`let _span = …`) — dropping it closes the span"]
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
}

impl SpanGuard {
    pub(crate) fn disabled() -> SpanGuard {
        SpanGuard { active: false }
    }
}

pub(crate) fn begin_span(name: &'static str, arg: Option<(&'static str, u64)>) -> SpanGuard {
    // Recorder bookkeeping (stack push, possible rebind flush) is
    // observer cost, not workload: keep it out of every alloc window.
    let _untracked = crate::alloc::suspend_tracking();
    let active = TLS
        .try_with(|tls| {
            let mut buf = tls.borrow_mut();
            buf.rebind();
            if buf.recorder.is_none() {
                return false;
            }
            let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
            let parent = buf.stack.last().map(|pending| pending.id);
            buf.stack.push(Pending {
                name,
                id,
                parent,
                start_us: monotonic_micros(),
                arg,
                window: crate::alloc::AllocWindow::default(),
                child_allocs: 0,
                child_bytes: 0,
            });
            // Open the allocation window last so the span measures only
            // the caller's work from here on (the push above was
            // suspended anyway).
            let window = crate::alloc::begin_window();
            if let Some(pending) = buf.stack.last_mut() {
                pending.window = window;
            }
            true
        })
        .unwrap_or(false);
    SpanGuard { active }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_us = monotonic_micros();
        // Suspended: the record push and a possible buffer flush below
        // must not be charged to the still-open parent spans.
        let _untracked = crate::alloc::suspend_tracking();
        let _ = TLS.try_with(|tls| {
            let mut buf = tls.borrow_mut();
            let Some(pending) = buf.stack.pop() else {
                return;
            };
            let delta = crate::alloc::end_window(pending.window);
            if let Some(parent) = buf.stack.last_mut() {
                parent.child_allocs = parent.child_allocs.saturating_add(delta.allocs);
                parent.child_bytes = parent.child_bytes.saturating_add(delta.bytes);
            }
            let tid = buf.tid;
            buf.spans.push(SpanRecord {
                name: pending.name,
                id: pending.id,
                parent: pending.parent,
                tid,
                start_us: pending.start_us,
                end_us,
                arg: pending.arg,
                alloc_count: delta.allocs.saturating_sub(pending.child_allocs),
                alloc_bytes: delta.bytes.saturating_sub(pending.child_bytes),
                peak_live_delta: delta.peak_live_delta,
            });
            // Merge into the shared sink at quiescence (no span open on
            // this thread) or when the local buffer grows large.
            if buf.stack.is_empty() || buf.spans.len() >= FLUSH_THRESHOLD {
                buf.flush();
            }
        });
    }
}

pub(crate) fn add_counter(name: &'static str, delta: u64) {
    let _untracked = crate::alloc::suspend_tracking();
    let _ = TLS.try_with(|tls| {
        let mut buf = tls.borrow_mut();
        buf.rebind();
        if buf.recorder.is_none() {
            return;
        }
        let slot = buf.counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    });
}

pub(crate) fn record_value(name: &'static str, value: u64) {
    let _untracked = crate::alloc::suspend_tracking();
    let _ = TLS.try_with(|tls| {
        let mut buf = tls.borrow_mut();
        buf.rebind();
        if buf.recorder.is_none() {
            return;
        }
        buf.histograms.entry(name).or_default().record(value);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::from(u32::MAX)), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let mut last = 0;
        for shift in 0..64 {
            let index = bucket_index(1u64 << shift);
            assert!(index >= last);
            assert!(index < HISTOGRAM_BUCKETS);
            last = index;
        }
    }

    #[test]
    fn histogram_merge_matches_sequential_records() {
        let mut merged = Histogram::default();
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        for value in [0u64, 1, 7, 1 << 20, u64::MAX] {
            left.record(value);
        }
        for value in [3u64, 3, 1 << 40] {
            right.record(value);
        }
        merged.merge(&left);
        merged.merge(&right);
        let mut sequential = Histogram::default();
        for value in [0u64, 1, 7, 1 << 20, u64::MAX, 3, 3, 1 << 40] {
            sequential.record(value);
        }
        assert_eq!(merged, sequential);
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let snapshot = Snapshot {
            process_id: 1,
            spans: Vec::new(),
            counters: vec![("a".to_string(), 3)],
            histograms: Vec::new(),
        };
        assert_eq!(snapshot.counter("a"), 3);
        assert_eq!(snapshot.counter("missing"), 0);
        assert_eq!(snapshot.span_count("x"), 0);
    }
}
