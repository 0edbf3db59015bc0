//! The lazy stale-skipping merge queue driving the TSBUILD merge loop
//! (DESIGN.md §13).
//!
//! The eager loop re-ran `evaluate_merge` on *every* stale pop — in the
//! committed baseline that was 729k re-evaluations against 476k scored
//! pool candidates, i.e. most scoring work re-derived ratios for pairs
//! whose inputs had not changed since the last derivation. The queue
//! kills that duplication with a **score memo** keyed by the resolved
//! ordered pair and validated by the endpoints' merge-generation stamps
//! ([`crate::cluster::ClusterState::merge_gen_of`]):
//!
//! * a stale pop whose resolved pair was already scored at the current
//!   stamps is re-pushed with the memoized ratio — no `evaluate_merge`
//!   (`tsbuild.stale_skipped`);
//! * a stale pop whose pair is adjacent to an applied merge (its stamps
//!   moved, or it was never scored under this identity) is re-scored
//!   and memoized (`tsbuild.reevals`; `tsbuild.adjacent_rescored` when
//!   an existing memo entry was invalidated);
//! * a pop whose endpoints merged *together* resolves to a self-pair
//!   and is discarded outright, with no scoring at all.
//!
//! **Exact-preservation argument.** Every stale pop still re-pushes a
//! candidate (memoized or re-scored), so the heap's length trajectory —
//! and with it the `Lh` drain guard and pool-rebuild boundaries — is
//! identical to the eager loop's. The memo invariant (equal stamps ⇒
//! bitwise-equal `evaluate_merge` result) makes the re-pushed candidate
//! bit-identical to the one the eager loop would have pushed, and the
//! candidates' total order (`f64::total_cmp` on the ratio, ties on the
//! pair ids) then forces the identical pop sequence. The merge
//! sequence, `squared_error`, and final sketch bytes are therefore
//! bitwise equal to the eager reference at every budget —
//! `tests/proptest_lazy_queue.rs` pins exactly that.

use crate::cluster::{ClusterState, ScoreScratch};
use axqa_xml::fxhash::FxHashMap;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry: a candidate merge with the metrics it was ranked by.
#[derive(Debug, Clone, Copy)]
pub struct MergeCandidate {
    /// Marginal-gain ratio `errd / sized` the heap is ordered by.
    pub ratio: f64,
    /// First cluster id, as evaluated (`evaluate_merge` is not
    /// argument-symmetric at the bit level).
    pub a: u32,
    /// Second cluster id.
    pub b: u32,
    /// Stats version of `a` at push time (freshness check).
    pub version_a: u64,
    /// Stats version of `b` at push time.
    pub version_b: u64,
}

impl MergeCandidate {
    /// Total order all heaps rank by: ratio via `f64::total_cmp` (a NaN
    /// ratio from a degenerate 0/0 merge delta sorts *last*, never
    /// scrambling the heap), ties broken on the pair ids so the order —
    /// and with it the bounded `CREATEPOOL` pool — is deterministic.
    pub fn order_key(&self, other: &Self) -> Ordering {
        self.ratio
            .total_cmp(&other.ratio)
            .then_with(|| self.a.cmp(&other.a))
            .then_with(|| self.b.cmp(&other.b))
    }
}

impl PartialEq for MergeCandidate {
    fn eq(&self, other: &Self) -> bool {
        self.order_key(other) == Ordering::Equal
    }
}
impl Eq for MergeCandidate {}
impl PartialOrd for MergeCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeCandidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min ratio on top.
        other.order_key(self)
    }
}

/// What the queue did while serving one pool (flushed to the
/// `tsbuild.*` counters by the build loop).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueStats {
    /// `evaluate_merge` calls performed for stale pops.
    pub reevals: u64,
    /// Stale pops served from the score memo without re-evaluation.
    pub stale_skipped: u64,
    /// Re-evaluations that *invalidated* an existing memo entry — pops
    /// adjacent to an applied merge (their stamps moved under them).
    pub adjacent_rescored: u64,
}

/// A memoized score: the ratio of a resolved pair, valid while both
/// endpoints' merge-generation stamps are unchanged.
#[derive(Debug, Clone, Copy)]
struct ScoredEntry {
    ctx_a: u64,
    ctx_b: u64,
    ratio: f64,
}

/// Ordered-pair memo key (`evaluate_merge(a, b)` ≠ `evaluate_merge(b,
/// a)` at the bit level, so the key keeps the evaluation order).
#[inline]
fn pair_key(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

/// The lazy priority queue serving one merge-loop round: a min-ratio
/// heap of generation-stamped candidates plus the score memo.
///
/// Construct it with [`MergeQueue::from_pool`] *before* opening the
/// `TSBUILD.merge_loop` span (memo seeding allocates); afterwards the
/// pop/skip/re-push cycle is allocation-free except for `evaluate_merge`
/// scratch growth and memo inserts, both attributed to the
/// `TSBUILD.merge_loop.score` stretch span.
#[derive(Debug)]
pub struct MergeQueue {
    heap: BinaryHeap<MergeCandidate>,
    memo: FxHashMap<u64, ScoredEntry>,
    stats: QueueStats,
}

impl MergeQueue {
    /// Builds the queue from a CREATEPOOL candidate pool. The pool was
    /// scored against the current state (no merges happen between
    /// scoring and queue construction), so every candidate seeds the
    /// memo at the endpoints' current merge-generation stamps.
    pub fn from_pool(pool: Vec<MergeCandidate>, state: &ClusterState<'_>) -> MergeQueue {
        let mut memo: FxHashMap<u64, ScoredEntry> = FxHashMap::default();
        memo.reserve(pool.len());
        for cand in &pool {
            memo.insert(
                pair_key(cand.a, cand.b),
                ScoredEntry {
                    ctx_a: state.merge_gen_of(cand.a),
                    ctx_b: state.merge_gen_of(cand.b),
                    ratio: cand.ratio,
                },
            );
        }
        MergeQueue {
            heap: pool.into(),
            memo,
            stats: QueueStats::default(),
        }
    }

    /// Candidates currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Pops until a *fresh* applicable merge surfaces and returns its
    /// resolved pair, or `None` once the heap has drained to `lower`
    /// (the paper's `Lh` pool-regeneration threshold).
    ///
    /// Stale entries are handled without changing the heap-length
    /// trajectory of the eager loop: self-pairs (endpoints merged
    /// together) are dropped exactly as before, every other stale pop
    /// re-pushes a candidate that is bit-identical to the one an eager
    /// re-evaluation would push — from the memo when the endpoints'
    /// merge-generation stamps are unchanged, from `evaluate_merge`
    /// otherwise.
    pub fn next_merge(
        &mut self,
        state: &mut ClusterState<'_>,
        scratch: &mut ScoreScratch,
        lower: usize,
    ) -> Option<(u32, u32)> {
        // Contiguous runs of stale re-scorings share one stretch span
        // (per-candidate spans at ~half a million pops would dwarf the
        // work being measured); the span closes when a fresh merge is
        // handed back for application.
        let mut score_span: Option<axqa_obs::SpanGuard> = None;
        loop {
            if self.heap.len() <= lower {
                return None;
            }
            let cand = self.heap.pop()?;
            // Path-halving keeps the forwarding chases short: ~13 pops
            // per merge on the reference build all re-chase the same
            // chains, and halving amortizes them toward length one.
            let a = state.resolve_compress(cand.a);
            let b = state.resolve_compress(cand.b);
            if a == b {
                continue; // both sides already merged together: discard
            }
            let fresh = a == cand.a
                && b == cand.b
                && state.version_of(a) == cand.version_a
                && state.version_of(b) == cand.version_b;
            if fresh {
                return Some((a, b));
            }
            // Re-rank with current metrics (the paper's replacement +
            // affected-set recomputation): from the memo when this pair
            // was already scored at the current stamps, else lazily.
            let key = pair_key(a, b);
            let ctx_a = state.merge_gen_of(a);
            let ctx_b = state.merge_gen_of(b);
            let (memoized, existed) = match self.memo.get(&key) {
                Some(entry) if entry.ctx_a == ctx_a && entry.ctx_b == ctx_b => {
                    (Some(entry.ratio), true)
                }
                Some(_) => (None, true),
                None => (None, false),
            };
            let ratio = if let Some(ratio) = memoized {
                self.stats.stale_skipped = self.stats.stale_skipped.saturating_add(1);
                ratio
            } else {
                if score_span.is_none() {
                    score_span = Some(axqa_obs::span("TSBUILD.merge_loop.score"));
                }
                if existed {
                    self.stats.adjacent_rescored = self.stats.adjacent_rescored.saturating_add(1);
                }
                self.stats.reevals = self.stats.reevals.saturating_add(1);
                let delta = state.evaluate_merge(a, b, scratch);
                let ratio = delta.ratio();
                self.memo.insert(
                    key,
                    ScoredEntry {
                        ctx_a,
                        ctx_b,
                        ratio,
                    },
                );
                ratio
            };
            self.heap.push(MergeCandidate {
                ratio,
                a,
                b,
                version_a: state.version_of(a),
                version_b: state.version_of(b),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axqa_synopsis::{build_stable, SizeModel};
    use axqa_xml::parse_document;

    /// Three distinct a-classes (1, 2, 3 b-children) plus r and b.
    fn three_a_state(
        stable: &axqa_synopsis::StableSummary,
    ) -> (ClusterState<'_>, Vec<u32>, ScoreScratch) {
        let state = ClusterState::new(stable, SizeModel::TREESKETCH);
        let a_label = stable.labels().get("a").unwrap();
        let a_ids: Vec<u32> = state
            .alive_ids()
            .filter(|&id| state.cluster(id).label == a_label)
            .collect();
        assert_eq!(a_ids.len(), 3);
        (state, a_ids, ScoreScratch::new())
    }

    fn scored(
        state: &ClusterState<'_>,
        scratch: &mut ScoreScratch,
        a: u32,
        b: u32,
    ) -> MergeCandidate {
        let delta = state.evaluate_merge(a, b, scratch);
        MergeCandidate {
            ratio: delta.ratio(),
            a,
            b,
            version_a: state.version_of(a),
            version_b: state.version_of(b),
        }
    }

    /// The ISSUE 10 satellite unit test: a stale entry whose endpoints
    /// were merged away (into each other) is discarded without calling
    /// `evaluate_merge` — the reevals counter is the proxy, since every
    /// evaluation increments it.
    #[test]
    fn dead_pair_is_discarded_without_rescoring() {
        let doc = parse_document("<r><a><b/></a><a><b/><b/></a><a><b/><b/><b/></a></r>").unwrap();
        let stable = build_stable(&doc);
        let (mut state, a_ids, mut scratch) = three_a_state(&stable);
        let (x, y) = (a_ids[0], a_ids[1]);
        let pool = vec![scored(&state, &mut scratch, x, y)];
        let mut queue = MergeQueue::from_pool(pool, &state);

        // The endpoints merge together behind the queue's back.
        state.apply_merge(x, y);

        assert_eq!(queue.next_merge(&mut state, &mut scratch, 0), None);
        assert!(queue.is_empty(), "self-pair must be dropped, not re-pushed");
        let stats = queue.stats();
        assert_eq!(stats.reevals, 0, "no evaluate_merge for a dead pair");
        assert_eq!(stats.stale_skipped, 0);
        assert_eq!(stats.adjacent_rescored, 0);
    }

    /// Two stale entries forwarding to the same live pair: one is
    /// re-scored, the other is served from the memo (a bit-identical
    /// re-push), and both fresh candidates surface for application.
    #[test]
    fn duplicate_forwarded_pairs_hit_the_memo() {
        let doc = parse_document("<r><a><b/></a><a><b/><b/></a><a><b/><b/><b/></a></r>").unwrap();
        let stable = build_stable(&doc);
        let (mut state, a_ids, mut scratch) = three_a_state(&stable);
        let (x, y, z) = (a_ids[0], a_ids[1], a_ids[2]);
        let pool = vec![
            scored(&state, &mut scratch, x, z),
            scored(&state, &mut scratch, y, z),
        ];
        let mut queue = MergeQueue::from_pool(pool, &state);

        let c = state.apply_merge(x, y); // both entries now forward to (c, z)

        // Drain without applying: both stale entries resolve to (c, z),
        // so whichever pops first is re-scored and memoized and the
        // other is a memo hit — in either interleaving with the fresh
        // re-pushes (which are bitwise identical to each other, so both
        // surface as Some((c, z))).
        assert_eq!(queue.next_merge(&mut state, &mut scratch, 0), Some((c, z)));
        assert_eq!(queue.next_merge(&mut state, &mut scratch, 0), Some((c, z)));
        assert!(queue.is_empty());
        let stats = queue.stats();
        assert_eq!(stats.reevals, 1, "one forwarded pop re-scores (c, z)");
        assert_eq!(stats.stale_skipped, 1, "the other pop is a memo hit");
        assert_eq!(stats.adjacent_rescored, 0, "(c, z) had no memo entry");
    }

    /// An entry whose endpoint stamps moved (a merge applied next to it)
    /// invalidates its memo entry and is re-scored, counted as
    /// adjacent_rescored.
    #[test]
    fn adjacent_entries_are_rescored_not_served_stale() {
        // Two p-parents over distinct a-classes make the a-merge bump
        // the parents' generations; a queued parent-pair entry is then
        // adjacent to the applied merge.
        let doc = parse_document(
            "<r><p><a><b/></a></p><p><a><b/><b/></a></p>\
             <q><a><b/><b/><b/></a><a><b/><b/><b/><b/></a></q></r>",
        )
        .unwrap();
        let stable = build_stable(&doc);
        let mut state = ClusterState::new(&stable, SizeModel::TREESKETCH);
        let mut scratch = ScoreScratch::new();
        let p_label = stable.labels().get("p").unwrap();
        let p_ids: Vec<u32> = state
            .alive_ids()
            .filter(|&id| state.cluster(id).label == p_label)
            .collect();
        assert_eq!(p_ids.len(), 2);
        // The a-class under each p (its only child edge).
        let a_ids: Vec<u32> = p_ids.iter().map(|&p| state.cluster(p).stats[0].0).collect();
        assert_ne!(a_ids[0], a_ids[1]);
        let pool = vec![scored(&state, &mut scratch, p_ids[0], p_ids[1])];
        let gen_before = (state.merge_gen_of(p_ids[0]), state.merge_gen_of(p_ids[1]));
        let mut queue = MergeQueue::from_pool(pool, &state);

        // Merge the two a-children of the p-parents: the parents' stats
        // change, so the queued (p0, p1) entry is stale and adjacent.
        state.apply_merge(a_ids[0], a_ids[1]);
        assert_ne!(
            (state.merge_gen_of(p_ids[0]), state.merge_gen_of(p_ids[1])),
            gen_before,
            "parents of a merged pair must change merge generation"
        );

        let next = queue.next_merge(&mut state, &mut scratch, 0);
        assert_eq!(next, Some((p_ids[0], p_ids[1])));
        let stats = queue.stats();
        assert_eq!(stats.reevals, 1);
        assert_eq!(stats.adjacent_rescored, 1, "stale memo entry was replaced");
        assert_eq!(stats.stale_skipped, 0);
    }
}
