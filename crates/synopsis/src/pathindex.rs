//! The other instantiations of the generic graph-synopsis model that
//! §3.1 cites: 1-indexes (Milo–Suciu) and A(k)-indexes
//! (Kaushik et al.), both label-respecting node partitionings.
//!
//! On *trees* the incoming label path of an element is unique, so:
//!
//! * the **1-index** partitions elements by their full root-to-element
//!   label path;
//! * the **A(k)-index** partitions by the last `k+1` labels of that
//!   path (`A(0)` is exactly the label-split graph);
//! * `A(k)` refines `A(k-1)` and converges to the 1-index once `k`
//!   reaches the document height.
//!
//! These partitions describe *incoming* paths, while count stability
//! describes *outgoing* subtrees — the two are incomparable in general,
//! which is precisely why the TreeSketch work needed a new equivalence
//! (backward indexes cannot capture result structure below an element).

use axqa_xml::fxhash::FxHashMap;
use axqa_xml::{Document, LabelId, NodeId};

/// A label-respecting partition of a document's elements: the common
/// shape of every §3.1 synopsis.
#[derive(Debug, Clone)]
pub struct Partition {
    /// `class_of[element]` = class id (dense, 0-based).
    pub class_of: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
    /// Common label per class.
    pub labels: Vec<LabelId>,
    /// Extent size per class.
    pub extents: Vec<u64>,
}

impl Partition {
    /// The class of an element.
    pub fn class(&self, element: NodeId) -> u32 {
        self.class_of[element.index()]
    }

    /// Number of synopsis edges the partition induces (distinct
    /// parent-class → child-class pairs).
    pub fn num_edges(&self, doc: &Document) -> usize {
        let mut edges: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for element in doc.node_ids() {
            if let Some(parent) = doc.parent(element) {
                edges.insert((self.class(parent), self.class(element)));
            }
        }
        edges.len()
    }

    /// Checks that the partition respects labels.
    pub fn verify_labels(&self, doc: &Document) -> bool {
        doc.node_ids()
            .all(|n| self.labels[self.class(n) as usize] == doc.label(n))
    }
}

/// Builds the A(k)-index partition: elements are equivalent iff the last
/// `k+1` labels of their root paths agree. `A(0)` is the label-split
/// graph.
pub fn ak_index(doc: &Document, k: u32) -> Partition {
    // signature[element] = class under the current refinement level.
    // Level 0: by label. Level i: by (own class at i-1, parent class at
    // i-1) — the standard bisimulation refinement, which on trees equals
    // the last-(i+1)-labels test.
    let mut class_of: Vec<u32> = doc.node_ids().map(|n| doc.label(n).0).collect();
    // Compact level-0 ids.
    class_of = compact(&class_of);
    for _ in 0..k {
        let mut table: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        let mut next: Vec<u32> = vec![0; class_of.len()];
        // Pre-order guarantees parents are processed before children,
        // but refinement uses the *previous* level's ids, so order is
        // irrelevant.
        for element in doc.node_ids() {
            let own = class_of[element.index()];
            let parent = doc
                .parent(element)
                .map(|p| class_of[p.index()])
                .unwrap_or(u32::MAX);
            let fresh = axqa_xml::dense_id(table.len());
            let id = *table.entry((own, parent)).or_insert(fresh);
            next[element.index()] = id;
        }
        let stabilized = table.len() == count_classes(&class_of);
        class_of = next;
        if stabilized {
            break; // fixpoint: A(k) == A(k-1) == … == 1-index
        }
    }
    finish(doc, class_of)
}

/// Builds the 1-index partition (full incoming-path equivalence): the
/// A(k) fixpoint, reached at `k = height`.
pub fn one_index(doc: &Document) -> Partition {
    ak_index(doc, doc.height())
}

fn count_classes(class_of: &[u32]) -> usize {
    let mut seen: Vec<u32> = class_of.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

fn compact(class_of: &[u32]) -> Vec<u32> {
    let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
    class_of
        .iter()
        .map(|&c| {
            let fresh = axqa_xml::dense_id(remap.len());
            *remap.entry(c).or_insert(fresh)
        })
        .collect()
}

fn finish(doc: &Document, raw: Vec<u32>) -> Partition {
    let class_of = compact(&raw);
    let num_classes = count_classes(&class_of);
    let mut labels = vec![LabelId(0); num_classes];
    let mut extents = vec![0u64; num_classes];
    for element in doc.node_ids() {
        let class = class_of[element.index()] as usize;
        labels[class] = doc.label(element);
        extents[class] = extents[class].saturating_add(1);
    }
    Partition {
        class_of,
        num_classes,
        labels,
        extents,
    }
}

/// Convenience: the partition induced by a count-stable summary's
/// assignment, in the same [`Partition`] shape (for size comparisons
/// across the synopsis family).
pub fn stable_partition(doc: &Document, summary: &crate::stable::StableSummary) -> Partition {
    let class_of: Vec<u32> = doc.node_ids().map(|n| summary.class_of(n).0).collect();
    let num_classes = summary.len();
    let labels = summary.nodes().iter().map(|n| n.label).collect();
    let extents = summary.nodes().iter().map(|n| n.extent).collect();
    Partition {
        class_of,
        num_classes,
        labels,
        extents,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::build_stable;
    use axqa_xml::parse_document;

    fn sample() -> Document {
        parse_document("<r><a><b/><b/></a><c><a><b/></a></c><a><d/></a></r>").unwrap()
    }

    #[test]
    fn a0_is_label_split() {
        let doc = sample();
        let p = ak_index(&doc, 0);
        assert_eq!(p.num_classes, doc.labels().len());
        assert!(p.verify_labels(&doc));
    }

    #[test]
    fn ak_refines_with_k() {
        let doc = sample();
        let mut previous = 0usize;
        for k in 0..=doc.height() {
            let p = ak_index(&doc, k);
            assert!(
                p.num_classes >= previous,
                "A({k}) coarser than A({})",
                k.saturating_sub(1)
            );
            assert!(p.verify_labels(&doc));
            previous = p.num_classes;
        }
    }

    #[test]
    fn one_index_separates_by_incoming_path() {
        let doc = sample();
        let p = one_index(&doc);
        // The a's under r share a class; the a under c is separate.
        let mut a_classes: Vec<u32> = doc
            .node_ids()
            .filter(|&n| doc.label_name(n) == "a")
            .map(|n| p.class(n))
            .collect();
        a_classes.sort_unstable();
        a_classes.dedup();
        assert_eq!(a_classes.len(), 2);
        // The b's under /r/a and the b under /r/c/a differ too.
        let mut b_classes: Vec<u32> = doc
            .node_ids()
            .filter(|&n| doc.label_name(n) == "b")
            .map(|n| p.class(n))
            .collect();
        b_classes.sort_unstable();
        b_classes.dedup();
        assert_eq!(b_classes.len(), 2);
    }

    #[test]
    fn backward_and_forward_partitions_are_incomparable() {
        // 1-index merges the two /r/a elements although their subtrees
        // differ (b,b vs d) — count stability must split them; count
        // stability merges elements at different paths with identical
        // subtrees — the 1-index splits those.
        let doc = parse_document("<r><a><b/></a><c><a><b/></a></c><a><x/></a></r>").unwrap();
        let one = one_index(&doc);
        let stable = build_stable(&doc);
        let sp = stable_partition(&doc, &stable);
        let a_nodes: Vec<_> = doc
            .node_ids()
            .filter(|&n| doc.label_name(n) == "a")
            .collect();
        // /r/a(b) and /r/a(x): same 1-index path class? both /r/a → same
        // class under 1-index, different under stability.
        let (first, third) = (a_nodes[0], a_nodes[2]);
        assert_eq!(one.class(first), one.class(third));
        assert_ne!(sp.class(first), sp.class(third));
        // /r/a(b) and /r/c/a(b): different 1-index classes, same stable
        // class (identical subtrees).
        let second = a_nodes[1];
        assert_ne!(one.class(first), one.class(second));
        assert_eq!(sp.class(first), sp.class(second));
    }

    #[test]
    fn extents_sum_to_document_size() {
        let doc = sample();
        for p in [ak_index(&doc, 0), ak_index(&doc, 2), one_index(&doc)] {
            assert_eq!(p.extents.iter().sum::<u64>(), doc.len() as u64);
            assert_eq!(p.num_edges(&doc) > 0, doc.len() > 1);
        }
    }
}
