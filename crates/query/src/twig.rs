//! Twig query trees (the paper's `T_Q`, §2, Figure 2(b)).
//!
//! A [`TwigQuery`] is a rooted tree of query variables. Variable `q0` is
//! implicit and always bound to the document root; every other variable
//! `qi` has a parent variable and the path expression annotating the edge
//! from its parent. Edges may be *optional* (the dashed edges of the
//! generalized-tree-pattern notation): an optional edge with no matches
//! does not nullify bindings of its parent.

use crate::path::PathExpr;
use std::fmt;

/// A query variable. `QVar(0)` is the distinguished root `q0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QVar(pub u32);

impl QVar {
    /// The root variable `q0`.
    pub const ROOT: QVar = QVar(0);

    /// The variable as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// One non-root node of the query tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryNode {
    /// Parent variable.
    pub parent: QVar,
    /// Path expression annotating the edge from `parent`.
    pub path: PathExpr,
    /// Whether the edge is dashed (return-clause path that may be empty).
    pub optional: bool,
}

/// A twig query: the query tree `T_Q`.
///
/// Internally node `i` of `nodes` is variable `q(i+1)`; `q0` is implicit.
/// Variables are numbered in insertion order, which the constructor keeps
/// topological (a parent must exist before its children), so iterating
/// variables in numeric order is a pre-order-compatible traversal — the
/// order `EVALQUERY` (§4.3) processes them in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TwigQuery {
    nodes: Vec<QueryNode>,
}

impl TwigQuery {
    /// Creates a query containing only the implicit root `q0`.
    pub fn new() -> TwigQuery {
        TwigQuery::default()
    }

    /// Adds a variable under `parent` reached via `path`; returns it.
    ///
    /// # Panics
    /// Panics if `parent` does not exist yet.
    pub fn add(&mut self, parent: QVar, path: PathExpr) -> QVar {
        self.add_edge(parent, path, false)
    }

    /// Adds an *optional* (dashed) variable under `parent`.
    ///
    /// # Panics
    /// Panics if `parent` does not exist yet.
    pub fn add_optional(&mut self, parent: QVar, path: PathExpr) -> QVar {
        self.add_edge(parent, path, true)
    }

    fn add_edge(&mut self, parent: QVar, path: PathExpr, optional: bool) -> QVar {
        assert!(
            parent.index() <= self.nodes.len(),
            "parent {parent} does not exist"
        );
        self.nodes.push(QueryNode {
            parent,
            path,
            optional,
        });
        // Query trees are tiny (≤ dozens of variables); saturation is
        // unreachable in practice but keeps the cast lossless.
        QVar(u32::try_from(self.nodes.len()).unwrap_or(u32::MAX))
    }

    /// Number of variables including `q0`.
    pub fn num_vars(&self) -> usize {
        self.nodes.len() + 1
    }

    /// The [`QueryNode`] of a non-root variable.
    ///
    /// # Panics
    /// Panics on `q0` or an unknown variable.
    pub fn node(&self, var: QVar) -> &QueryNode {
        assert!(var != QVar::ROOT, "q0 has no incoming edge");
        &self.nodes[var.index() - 1]
    }

    /// Parent of a non-root variable.
    pub fn parent(&self, var: QVar) -> QVar {
        self.node(var).parent
    }

    /// All variables in numeric (pre-order-compatible) order, `q0` first.
    pub fn vars(&self) -> impl Iterator<Item = QVar> {
        (0..u32::try_from(self.num_vars()).unwrap_or(u32::MAX)).map(QVar)
    }

    /// Children of `var` in numeric order.
    pub fn children(&self, var: QVar) -> impl Iterator<Item = QVar> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.parent == var)
            .map(|(i, _)| QVar(u32::try_from(i + 1).unwrap_or(u32::MAX)))
    }

    /// Total number of path steps across all edges (a size measure used
    /// by workload statistics).
    pub fn total_steps(&self) -> usize {
        self.nodes.iter().map(|n| n.path.total_steps()).sum()
    }

    /// Whether `var` must be non-empty for the query to have a result:
    /// true iff `var` and every ancestor edge up to the root is
    /// required. A required edge *below* an optional one only constrains
    /// bindings inside the optional part.
    pub fn effectively_required(&self, var: QVar) -> bool {
        let mut current = var;
        while current != QVar::ROOT {
            let node = self.node(current);
            if node.optional {
                return false;
            }
            current = node.parent;
        }
        true
    }

    /// Variables in post-order (children before parents).
    pub fn post_order(&self) -> Vec<QVar> {
        let mut out = Vec::with_capacity(self.num_vars());
        self.post_order_into(QVar::ROOT, &mut out);
        out
    }

    fn post_order_into(&self, var: QVar, out: &mut Vec<QVar>) {
        for child in self.children(var) {
            self.post_order_into(child, out);
        }
        out.push(var);
    }
}

impl fmt::Display for TwigQuery {
    /// The compact textual form accepted by [`crate::parse_twig`]:
    /// one `qJ: qI [?] path` line per non-root variable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, node) in self.nodes.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            let opt = if node.optional { "? " } else { "" };
            write!(f, "q{}: {} {}{}", i + 1, node.parent, opt, node.path)?;
        }
        Ok(())
    }
}

/// Builds the example query of the paper's Figure 2(b):
///
/// ```text
/// q1: q0 //a[//b]
/// q2: q1 //p
/// q3: q2 ? //k
/// q4: q1 ? //n
/// ```
pub fn figure2_query() -> TwigQuery {
    let mut q = TwigQuery::new();
    let q1 = q.add(
        QVar::ROOT,
        PathExpr::descendant("a").with_predicate(PathExpr::descendant("b")),
    );
    let q2 = q.add(q1, PathExpr::descendant("p"));
    let _q3 = q.add_optional(q2, PathExpr::descendant("k"));
    let _q4 = q.add_optional(q1, PathExpr::descendant("n"));
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Axis;

    #[test]
    fn figure2_structure() {
        let q = figure2_query();
        assert_eq!(q.num_vars(), 5);
        let q1 = QVar(1);
        let q2 = QVar(2);
        let q3 = QVar(3);
        let q4 = QVar(4);
        assert_eq!(q.parent(q1), QVar::ROOT);
        assert_eq!(q.parent(q2), q1);
        assert_eq!(q.parent(q3), q2);
        assert_eq!(q.parent(q4), q1);
        assert!(q.node(q3).optional);
        assert!(q.node(q4).optional);
        assert!(!q.node(q1).optional);
        assert_eq!(q.node(q1).path.to_string(), "//a[//b]");
        let q1_children: Vec<_> = q.children(q1).collect();
        assert_eq!(q1_children, vec![q2, q4]);
    }

    #[test]
    fn display_format() {
        let q = figure2_query();
        let text = q.to_string();
        assert_eq!(
            text,
            "q1: q0 //a[//b]\nq2: q1 //p\nq3: q2 ? //k\nq4: q1 ? //n"
        );
    }

    #[test]
    fn post_order_ends_at_root() {
        let q = figure2_query();
        let order = q.post_order();
        assert_eq!(order.len(), 5);
        assert_eq!(*order.last().unwrap(), QVar::ROOT);
        // q3 before q2 before q1; q4 before q1.
        let pos = |v: QVar| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(QVar(3)) < pos(QVar(2)));
        assert!(pos(QVar(2)) < pos(QVar(1)));
        assert!(pos(QVar(4)) < pos(QVar(1)));
    }

    #[test]
    fn total_steps() {
        let mut q = TwigQuery::new();
        let q1 = q.add(QVar::ROOT, PathExpr::descendant("a").then(Axis::Child, "b"));
        q.add(
            q1,
            PathExpr::child("c").with_predicate(PathExpr::child("d")),
        );
        assert_eq!(q.total_steps(), 4);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn unknown_parent_panics() {
        let mut q = TwigQuery::new();
        q.add(QVar(7), PathExpr::child("x"));
    }

    #[test]
    #[should_panic(expected = "q0 has no incoming edge")]
    fn root_has_no_node() {
        let q = figure2_query();
        let _ = q.node(QVar::ROOT);
    }
}
