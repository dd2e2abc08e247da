//! AND/OR prerequisite (antecedent) expressions.
//!
//! The paper (§II-A1): an item `m` may have prerequisites `pre^m ⊆ P`;
//! when "AND"ed, *all* antecedents must be recommended before `m`; when
//! "OR"ed, *any one* suffices (e.g. Big Data requires
//! `Data Mining OR Data Analytics`, Machine Learning requires
//! `Linear Algebra AND Data Mining` — Table II). The hard constraint
//! `gap` additionally requires each satisfying antecedent to appear at
//! least `gap` positions before `m` in the sequence.

use crate::ids::ItemId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A prerequisite expression tree over item ids.
///
/// Nested expressions are allowed (`All` of `Any`s, …) even though the
/// datasets in the paper only use a single level; the gap semantics
/// compose naturally.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrereqExpr {
    /// No prerequisite.
    None,
    /// A single required antecedent.
    Item(ItemId),
    /// Every sub-expression must be satisfied ("AND").
    All(Vec<PrereqExpr>),
    /// At least one sub-expression must be satisfied ("OR").
    Any(Vec<PrereqExpr>),
}

impl PrereqExpr {
    /// Builds an AND of plain item antecedents.
    pub fn all_of(items: impl IntoIterator<Item = ItemId>) -> Self {
        let v: Vec<PrereqExpr> = items.into_iter().map(PrereqExpr::Item).collect();
        match v.len() {
            0 => PrereqExpr::None,
            1 => v.into_iter().next().expect("len checked"),
            _ => PrereqExpr::All(v),
        }
    }

    /// Builds an OR of plain item antecedents.
    pub fn any_of(items: impl IntoIterator<Item = ItemId>) -> Self {
        let v: Vec<PrereqExpr> = items.into_iter().map(PrereqExpr::Item).collect();
        match v.len() {
            0 => PrereqExpr::None,
            1 => v.into_iter().next().expect("len checked"),
            _ => PrereqExpr::Any(v),
        }
    }

    /// `true` when there is no prerequisite at all.
    pub fn is_none(&self) -> bool {
        matches!(self, PrereqExpr::None)
    }

    /// All item ids mentioned anywhere in the expression.
    pub fn referenced_items(&self) -> Vec<ItemId> {
        let mut out = Vec::new();
        self.collect_items(&mut out);
        out
    }

    fn collect_items(&self, out: &mut Vec<ItemId>) {
        match self {
            PrereqExpr::None => {}
            PrereqExpr::Item(id) => out.push(*id),
            PrereqExpr::All(v) | PrereqExpr::Any(v) => {
                for e in v {
                    e.collect_items(out);
                }
            }
        }
    }

    /// Evaluates the expression against a sequence prefix, using
    /// **semester (block) gap semantics**.
    ///
    /// `position_of(id)` must return the 0-based position of `id` in the
    /// sequence built so far, or `None` when absent. `at` is the position
    /// the candidate item `m` would take. Positions are grouped into
    /// blocks of `gap` consecutive slots (a "semester" of `gap` courses);
    /// an antecedent `p` counts as satisfied iff it is present **and**
    /// sits in a strictly earlier block: `⌊pos(p)/gap⌋ < ⌊at/gap⌋`.
    ///
    /// The paper states Eq. 4 as `Dist(pre^m, m) ≥ gap` but its own
    /// exemplar sequence `m1→m2→m4→m5→m6→m3` (gap = 3) places Data Mining
    /// at position 1 and Big Data at position 3 — raw distance 2 — while
    /// calling the plan fully valid ("the prerequisites of m must be
    /// taken at least a semester before", §II-B1). Block semantics is the
    /// reading consistent with that example: position 1 is semester 0,
    /// position 3 is semester 1. For `gap = 1` (trips) both readings
    /// coincide with "strictly before". The literal raw-distance reading
    /// is available as [`PrereqExpr::satisfied_with_min_distance`].
    pub fn satisfied_with_gap<F>(&self, position_of: &F, at: usize, gap: usize) -> bool
    where
        F: Fn(ItemId) -> Option<usize>,
    {
        let gap = gap.max(1);
        match self {
            PrereqExpr::None => true,
            PrereqExpr::Item(id) => match position_of(*id) {
                Some(pos) => pos / gap < at / gap,
                None => false,
            },
            PrereqExpr::All(v) => v.iter().all(|e| e.satisfied_with_gap(position_of, at, gap)),
            PrereqExpr::Any(v) => v.iter().any(|e| e.satisfied_with_gap(position_of, at, gap)),
        }
    }

    /// Evaluates the expression under the **literal raw-distance** reading
    /// of Eq. 4: an antecedent is satisfied iff present and
    /// `at - pos ≥ gap`. Kept for comparison/ablation; the planner and
    /// validators use [`PrereqExpr::satisfied_with_gap`].
    pub fn satisfied_with_min_distance<F>(&self, position_of: &F, at: usize, gap: usize) -> bool
    where
        F: Fn(ItemId) -> Option<usize>,
    {
        match self {
            PrereqExpr::None => true,
            PrereqExpr::Item(id) => match position_of(*id) {
                Some(pos) => at.saturating_sub(pos) >= gap.max(1) && pos < at,
                None => false,
            },
            PrereqExpr::All(v) => v
                .iter()
                .all(|e| e.satisfied_with_min_distance(position_of, at, gap)),
            PrereqExpr::Any(v) => v
                .iter()
                .any(|e| e.satisfied_with_min_distance(position_of, at, gap)),
        }
    }

    /// Evaluates the AND/OR structure with `leaf` deciding each
    /// antecedent. [`PrereqExpr::satisfied_with_gap`] is this evaluation
    /// with the leaf `pos(p)/gap < at/gap`; a caller that keeps each
    /// seated item's block `⌊pos/gap⌋` can pass the comparison alone and
    /// skip the per-leaf divisions.
    pub fn holds<F>(&self, leaf: &F) -> bool
    where
        F: Fn(ItemId) -> bool,
    {
        match self {
            PrereqExpr::None => true,
            PrereqExpr::Item(id) => leaf(*id),
            PrereqExpr::All(v) => v.iter().all(|e| e.holds(leaf)),
            PrereqExpr::Any(v) => v.iter().any(|e| e.holds(leaf)),
        }
    }

    /// Evaluates presence only (gap = 1, i.e. "strictly before").
    pub fn satisfied<F>(&self, position_of: &F, at: usize) -> bool
    where
        F: Fn(ItemId) -> Option<usize>,
    {
        self.satisfied_with_gap(position_of, at, 1)
    }
}

impl fmt::Display for PrereqExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrereqExpr::None => f.write_str("[]"),
            PrereqExpr::Item(id) => write!(f, "{id}"),
            PrereqExpr::All(v) => {
                f.write_str("(")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" AND ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
            PrereqExpr::Any(v) => {
                f.write_str("(")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" OR ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Position lookup over a literal sequence.
    fn pos_in(seq: &[u32]) -> impl Fn(ItemId) -> Option<usize> + '_ {
        move |id: ItemId| seq.iter().position(|&x| x == id.0)
    }

    #[test]
    fn none_is_always_satisfied() {
        let p = PrereqExpr::None;
        assert!(p.satisfied_with_gap(&pos_in(&[]), 0, 3));
    }

    #[test]
    fn single_item_requires_presence_and_gap() {
        let p = PrereqExpr::Item(ItemId(7));
        // Not present.
        assert!(!p.satisfied_with_gap(&pos_in(&[1, 2]), 2, 1));
        // Present at position 0 (semester 0), candidate at 3 (semester 1).
        assert!(p.satisfied_with_gap(&pos_in(&[7, 1, 2]), 3, 3));
        // Present at position 1 — still semester 0 — candidate at 3.
        assert!(p.satisfied_with_gap(&pos_in(&[1, 7, 2]), 3, 3));
        // Present at position 3 (semester 1), candidate at 5 (semester 1):
        // same semester, violated.
        assert!(!p.satisfied_with_gap(&pos_in(&[1, 2, 4, 7, 5]), 5, 3));
    }

    #[test]
    fn literal_min_distance_reading() {
        let p = PrereqExpr::Item(ItemId(7));
        // 3 - 0 = 3 >= 3.
        assert!(p.satisfied_with_min_distance(&pos_in(&[7, 1, 2]), 3, 3));
        // 3 - 1 = 2 < 3: the literal reading rejects what block semantics
        // accepts (this is exactly the paper's exemplar discrepancy).
        assert!(!p.satisfied_with_min_distance(&pos_in(&[1, 7, 2]), 3, 3));
        assert!(!p.satisfied_with_min_distance(&pos_in(&[1, 2]), 2, 1));
    }

    #[test]
    fn paper_or_example_big_data() {
        // Big Data (m5) requires [Data Mining (m2) OR Data Analytics (m3)];
        // gap=3 enforces "at least one semester before" (§III-B2).
        let p = PrereqExpr::any_of([ItemId(2), ItemId(3)]);
        // m2 taken at position 0 (semester 0), m5 candidate at position 3
        // (semester 1).
        assert!(p.satisfied_with_gap(&pos_in(&[2, 1, 4]), 3, 3));
        // Neither taken.
        assert!(!p.satisfied_with_gap(&pos_in(&[1, 4, 6]), 3, 3));
        // m3 at position 2 is still semester 0; candidate at 3 is
        // semester 1 — "at least a semester before" holds.
        assert!(p.satisfied_with_gap(&pos_in(&[1, 4, 3]), 3, 3));
        // But a candidate at position 5 with m3 at position 3: same
        // semester, violated.
        assert!(!p.satisfied_with_gap(&pos_in(&[1, 4, 6, 3, 7]), 5, 3));
    }

    #[test]
    fn paper_and_example_machine_learning() {
        // Machine Learning (m6) requires [Linear Algebra (m4) AND
        // Data Mining (m2)].
        let p = PrereqExpr::all_of([ItemId(4), ItemId(2)]);
        assert!(p.satisfied_with_gap(&pos_in(&[4, 2, 1, 3]), 5, 3));
        // Only one present.
        assert!(!p.satisfied_with_gap(&pos_in(&[4, 1, 3]), 5, 3));
        // Both present but m2 too close (position 3, candidate 5, gap 3).
        assert!(!p.satisfied_with_gap(&pos_in(&[4, 1, 3, 2]), 5, 3));
    }

    #[test]
    fn gap_zero_treated_as_one() {
        // gap <= 1 degenerates to "strictly before" — an antecedent can
        // never share a position with its dependent.
        let p = PrereqExpr::Item(ItemId(1));
        assert!(p.satisfied_with_gap(&pos_in(&[1]), 1, 0));
        assert!(!p.satisfied_with_gap(&pos_in(&[1]), 0, 0));
    }

    #[test]
    fn constructors_collapse_degenerate_shapes() {
        assert_eq!(PrereqExpr::all_of([]), PrereqExpr::None);
        assert_eq!(PrereqExpr::any_of([ItemId(3)]), PrereqExpr::Item(ItemId(3)));
        assert!(matches!(
            PrereqExpr::all_of([ItemId(1), ItemId(2)]),
            PrereqExpr::All(_)
        ));
    }

    #[test]
    fn nested_expressions_compose() {
        // (1 AND (2 OR 3))
        let p = PrereqExpr::All(vec![
            PrereqExpr::Item(ItemId(1)),
            PrereqExpr::any_of([ItemId(2), ItemId(3)]),
        ]);
        assert!(p.satisfied(&pos_in(&[1, 3]), 2));
        assert!(!p.satisfied(&pos_in(&[1]), 1));
        assert!(!p.satisfied(&pos_in(&[2, 3]), 2));
    }

    #[test]
    fn holds_agrees_with_block_gap_semantics() {
        // (1 AND (2 OR 3)) over every placement of items 1..=3 in a
        // 5-slot prefix, every candidate slot and gap 1..=3: `holds`
        // with a precomputed block leaf equals `satisfied_with_gap`.
        let p = PrereqExpr::All(vec![
            PrereqExpr::Item(ItemId(1)),
            PrereqExpr::any_of([ItemId(2), ItemId(3)]),
        ]);
        let slots = [None, Some(0usize), Some(1), Some(2), Some(3), Some(4)];
        for gap in 1..=3usize {
            for &p1 in &slots {
                for &p2 in &slots {
                    for &p3 in &slots {
                        let pos = |id: ItemId| match id.0 {
                            1 => p1,
                            2 => p2,
                            3 => p3,
                            _ => None,
                        };
                        for at in 0..6usize {
                            let leaf = |id: ItemId| pos(id).is_some_and(|q| q / gap < at / gap);
                            assert_eq!(
                                p.holds(&leaf),
                                p.satisfied_with_gap(&pos, at, gap),
                                "gap {gap} at {at} positions {p1:?} {p2:?} {p3:?}"
                            );
                        }
                    }
                }
            }
        }
        assert!(PrereqExpr::None.holds(&|_| false));
    }

    #[test]
    fn referenced_items_collects_all() {
        let p = PrereqExpr::All(vec![
            PrereqExpr::Item(ItemId(1)),
            PrereqExpr::any_of([ItemId(2), ItemId(3)]),
        ]);
        assert_eq!(p.referenced_items(), vec![ItemId(1), ItemId(2), ItemId(3)]);
    }

    #[test]
    fn display_renders_and_or() {
        let p = PrereqExpr::All(vec![
            PrereqExpr::Item(ItemId(4)),
            PrereqExpr::Item(ItemId(2)),
        ]);
        assert_eq!(p.to_string(), "(m4 AND m2)");
        let q = PrereqExpr::any_of([ItemId(2), ItemId(3)]);
        assert_eq!(q.to_string(), "(m2 OR m3)");
        assert_eq!(PrereqExpr::None.to_string(), "[]");
    }
}
