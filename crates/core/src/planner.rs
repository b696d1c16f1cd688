//! The query planner: every decision about how a query runs, made once.
//!
//! [`plan_query`] turns a validated query into a [`QueryPlan`] that the
//! read path executes ([`crate::readpath`]) and `EXPLAIN` renders
//! ([`crate::explain`]), so the two cannot disagree. It covers:
//!
//! * the three tree-configuration cases of §6, after splitting each
//!   side's candidates into *matching* blocks (stored under a tree whose
//!   join attribute equals the query's) and *other* blocks:
//!   1. both tables have one tree on the join attribute → pure
//!      hyper-join;
//!   2. one table is mid-migration (several trees) → hyper-join for
//!      matching × matching plus shuffle joins for the remainder;
//!   3. no tree matches → shuffle join, unless the up-front partitioning
//!      "happens to work out", which the cost comparison detects;
//! * the §5.4 cost check: the hyper-join schedule's reads plus the
//!   remainder shuffles must beat one shuffle of every candidate;
//! * the §4.3 multi-way step: when every candidate of a step's stored
//!   table sits under a tree on the step's attribute, only the
//!   intermediate is shuffled and the table is read in hyper-join
//!   groups; otherwise the step scans the table and shuffles both sides.
//!
//! The admission estimate ([`crate::cost::estimate_query`]) must stay
//! metadata-free, so it shares only [`side_candidates`], the mode-aware
//! candidate rule.

use adaptdb_common::stats::JoinStrategy;
use adaptdb_common::{
    AttrId, BlockId, Error, JoinQuery, JoinStep, PredicateSet, Query, Result, ScanQuery, ValueRange,
};
use adaptdb_exec::StepGroup;
use adaptdb_join::planner::{self as join_planner, BlockRange, HyperJoinPlan};
use adaptdb_join::{bottom_up, JoinDecision, OverlapMatrix};
use adaptdb_storage::BlockStore;

use crate::config::Mode;
use crate::readpath::SnapshotSource;
use crate::table::TableSnapshot;

/// Candidate blocks for one side of a join, split by tree affinity.
#[derive(Debug, Clone, Default)]
pub struct SideCandidates {
    /// Blocks stored under a tree organized for the query's join attr.
    pub matching: Vec<BlockId>,
    /// Blocks stored under any other tree.
    pub other: Vec<BlockId>,
}

impl SideCandidates {
    /// All candidate blocks.
    pub fn all(&self) -> Vec<BlockId> {
        let mut v = self.matching.clone();
        v.extend_from_slice(&self.other);
        v
    }

    /// Total candidate count.
    pub fn len(&self) -> usize {
        self.matching.len() + self.other.len()
    }

    /// True when no blocks qualify.
    pub fn is_empty(&self) -> bool {
        self.matching.is_empty() && self.other.is_empty()
    }
}

/// Classify a table's `lookup` results by whether their tree matches the
/// join attribute. Takes the immutable layout snapshot, so the serving
/// runtime can plan against a pinned view while adaptation proceeds.
pub fn classify_candidates(
    table: &TableSnapshot,
    preds: &PredicateSet,
    join_attr: AttrId,
) -> SideCandidates {
    let mut out = SideCandidates::default();
    for info in &table.trees {
        let blocks = info.lookup_blocks(preds);
        if info.join_attr() == Some(join_attr) {
            out.matching.extend(blocks);
        } else {
            out.other.extend(blocks);
        }
    }
    // Unfolded delta blocks live under no tree: they always shuffle
    // (and their presence forces the mixed/shuffle path, never hyper).
    out.other.extend_from_slice(&table.delta);
    out
}

/// The blocks `mode` reads from `table`: `FullScan` prunes nothing, by
/// definition; every other mode prunes with `lookup(T, q)` and, for a
/// join side, splits the result by tree affinity. A scan (`join_attr`
/// `None`) puts every block in `other`, in lookup order. Reads tree
/// metadata only, never block metadata, so the admission path can run
/// it for every submission.
pub fn side_candidates(
    mode: Mode,
    table: &TableSnapshot,
    preds: &PredicateSet,
    join_attr: Option<AttrId>,
) -> SideCandidates {
    match join_attr {
        _ if mode == Mode::FullScan => {
            SideCandidates { matching: Vec::new(), other: table.all_blocks() }
        }
        Some(attr) => classify_candidates(table, preds, attr),
        None => SideCandidates { matching: Vec::new(), other: table.lookup_blocks(preds) },
    }
}

/// Fetch `(block, join-attribute range)` pairs for the hyper-join
/// planner from block metadata.
pub fn block_ranges(
    store: &BlockStore,
    table: &str,
    blocks: &[BlockId],
    attr: AttrId,
) -> Result<Vec<BlockRange>> {
    blocks
        .iter()
        .map(|&b| {
            let range: ValueRange = store.with_block_meta(table, b, |m| m.range(attr).clone())?;
            Ok((b, range))
        })
        .collect()
}

/// How a query runs.
#[derive(Debug, Clone)]
pub enum QueryPlan<'q> {
    /// A single-table scan.
    Scan(ScanPlan<'q>),
    /// A two-table join, then one step per further table.
    Join {
        /// The first two-table join.
        first: JoinPlan<'q>,
        /// The multi-way steps, in order.
        steps: Vec<StepPlan<'q>>,
    },
}

/// One table read without a join schedule.
#[derive(Debug, Clone)]
pub struct ScanPlan<'q> {
    /// The table and its predicates.
    pub query: &'q ScanQuery,
    /// Blocks to read, in lookup order.
    pub blocks: Vec<BlockId>,
    /// Whether the predicates reach the scan, which lets per-block zone
    /// maps skip blocks. `FullScan` reads every block whole and filters
    /// the rows afterwards.
    pub pushdown: bool,
}

/// The first two-table join of a query.
#[derive(Debug, Clone)]
pub struct JoinPlan<'q> {
    /// The join as submitted.
    pub query: &'q JoinQuery,
    /// Left-side candidates.
    pub left: SideCandidates,
    /// Right-side candidates.
    pub right: SideCandidates,
    /// What runs.
    pub choice: JoinChoice,
}

/// The verdict for a two-table join.
#[derive(Debug, Clone)]
pub enum JoinChoice {
    /// The mode never hyper-joins (`Amoeba`, `FullScan`): shuffle every
    /// candidate.
    ShuffleOnly,
    /// The cost comparison chose shuffling every candidate.
    Shuffle {
        /// Eq. 1 estimate for the shuffle.
        est_cost: f64,
        /// The hyper-join (plus remainder) estimate it beat; `∞` when no
        /// schedule was possible.
        hyper_cost: f64,
    },
    /// Hyper-join the scheduled blocks, then run each remainder shuffle
    /// for blocks outside the schedule (§6 case 2). No remainder is a
    /// pure hyper-join.
    Hyper {
        /// The hyper-join schedule.
        plan: HyperJoinPlan,
        /// Shuffle joins for the blocks the schedule leaves out.
        remainder: Vec<ShuffleLeg>,
    },
}

/// One shuffle join between block sets of the two join sides.
#[derive(Debug, Clone)]
pub struct ShuffleLeg {
    /// Left-side blocks.
    pub left: Vec<BlockId>,
    /// Right-side blocks.
    pub right: Vec<BlockId>,
}

/// One multi-way join step.
#[derive(Debug, Clone)]
pub struct StepPlan<'q> {
    /// The step as submitted.
    pub step: &'q JoinStep,
    /// Candidates of the step's stored table.
    pub candidates: SideCandidates,
    /// What runs.
    pub method: StepMethod<'q>,
}

/// How a multi-way step joins the intermediate with its stored table.
#[derive(Debug, Clone)]
pub enum StepMethod<'q> {
    /// Shuffle only the intermediate and hyper-join it against these
    /// groups of stored blocks (§4.3).
    Hyper(Vec<StepGroup>),
    /// Scan the stored table and shuffle both sides.
    Shuffle(ScanPlan<'q>),
}

impl QueryPlan<'_> {
    /// The strategy label this plan runs under.
    pub fn strategy(&self) -> JoinStrategy {
        let QueryPlan::Join { first, steps } = self else {
            return JoinStrategy::ScanOnly;
        };
        match &first.choice {
            JoinChoice::Hyper { remainder, .. }
                if remainder.is_empty()
                    && steps.iter().all(|s| matches!(s.method, StepMethod::Hyper(_))) =>
            {
                JoinStrategy::HyperJoin
            }
            JoinChoice::Hyper { .. } => JoinStrategy::Mixed,
            JoinChoice::ShuffleOnly | JoinChoice::Shuffle { .. } => JoinStrategy::ShuffleJoin,
        }
    }

    /// The first join's hyper-join schedule, when it runs one.
    pub fn hyper_plan(&self) -> Option<&HyperJoinPlan> {
        match self {
            QueryPlan::Join {
                first: JoinPlan { choice: JoinChoice::Hyper { plan, .. }, .. },
                ..
            } => Some(plan),
            _ => None,
        }
    }
}

/// Check every predicate and join attribute id of `query` against the
/// schemas of the tables it names (a multi-way step's intermediate
/// attribute against the joined width so far), failing with
/// [`Error::UnknownAttribute`] before any planning or I/O — so a
/// malformed query errors instead of indexing past a row.
pub fn validate_query<S: SnapshotSource>(src: &S, query: &Query) -> Result<()> {
    let check = |attr: AttrId, width: usize, of: &str| {
        if (attr as usize) < width {
            return Ok(());
        }
        Err(Error::UnknownAttribute(format!("attribute {attr} of {width}-column {of}")))
    };
    // Checks a scan's predicates and join attribute; returns its width.
    let scan = |s: &ScanQuery, attr: Option<AttrId>| -> Result<usize> {
        let width = src.snapshot(&s.table)?.schema.len();
        for a in s.predicates.predicates().iter().map(|p| p.attr).chain(attr) {
            check(a, width, &s.table)?;
        }
        Ok(width)
    };
    let (first, steps) = match query {
        Query::Scan(s) => return scan(s, None).map(drop),
        Query::Join(j) => (j, &[][..]),
        Query::MultiJoin { first, steps } => (first, &steps[..]),
    };
    let mut width =
        scan(&first.left, Some(first.left_attr))? + scan(&first.right, Some(first.right_attr))?;
    for step in steps {
        check(step.intermediate_attr, width, "intermediate result")?;
        width += scan(&step.table, Some(step.table_attr))?;
    }
    Ok(())
}

/// Validate `query` and plan it against the source's snapshots. Reads
/// tree and block metadata only, never block data.
pub fn plan_query<'q, S: SnapshotSource>(src: &S, query: &'q Query) -> Result<QueryPlan<'q>> {
    validate_query(src, query)?;
    let (first, steps) = match query {
        Query::Scan(s) => {
            let snap = src.snapshot(&s.table)?;
            return Ok(QueryPlan::Scan(plan_scan(src.config().mode, &snap, s)));
        }
        Query::Join(j) => (j, &[][..]),
        Query::MultiJoin { first, steps } => (first, &steps[..]),
    };
    Ok(QueryPlan::Join {
        first: plan_join(src, first)?,
        steps: steps.iter().map(|step| plan_step(src, step)).collect::<Result<_>>()?,
    })
}

fn hyper_allowed(mode: Mode) -> bool {
    matches!(mode, Mode::Adaptive | Mode::FullRepartition | Mode::Fixed)
}

fn plan_scan<'q>(mode: Mode, table: &TableSnapshot, query: &'q ScanQuery) -> ScanPlan<'q> {
    ScanPlan {
        query,
        blocks: side_candidates(mode, table, &query.predicates, None).other,
        pushdown: mode != Mode::FullScan,
    }
}

fn plan_join<'q, S: SnapshotSource>(src: &S, query: &'q JoinQuery) -> Result<JoinPlan<'q>> {
    let config = src.config();
    let side = |s: &ScanQuery, attr: AttrId| -> Result<SideCandidates> {
        Ok(side_candidates(config.mode, &*src.snapshot(&s.table)?, &s.predicates, Some(attr)))
    };
    let left = side(&query.left, query.left_attr)?;
    let right = side(&query.right, query.right_attr)?;
    if !hyper_allowed(config.mode) {
        return Ok(JoinPlan { query, left, right, choice: JoinChoice::ShuffleOnly });
    }

    // Choose the hyper candidate sets: matching×matching when both
    // sides are (at least partially) organized for this join;
    // otherwise try everything (the "up-front partitioning happens to
    // work out" clause of case 3).
    let both_matching = !left.matching.is_empty() && !right.matching.is_empty();
    let (l_hyper, l_rest, r_hyper, r_rest) = if both_matching {
        (left.matching.clone(), left.other.clone(), right.matching.clone(), right.other.clone())
    } else {
        (left.all(), Vec::new(), right.all(), Vec::new())
    };
    let l_ranges = block_ranges(src.store(), &query.left.table, &l_hyper, query.left_attr)?;
    let r_ranges = block_ranges(src.store(), &query.right.table, &r_hyper, query.right_attr)?;
    let cost = &config.cost;
    let choice = match join_planner::plan(&l_ranges, &r_ranges, config.buffer_blocks, cost) {
        JoinDecision::Shuffle { est_cost, hyper_cost } => {
            JoinChoice::Shuffle { est_cost, hyper_cost }
        }
        JoinDecision::Hyper(plan) => {
            // Remainder joins for mid-migration blocks (case 2).
            let mut remainder = Vec::new();
            if !r_rest.is_empty() {
                remainder.push(ShuffleLeg { left: l_hyper, right: r_rest });
            }
            if !l_rest.is_empty() {
                remainder.push(ShuffleLeg { left: l_rest, right: right.all() });
            }
            // Cost check for the mixed case (§5.4): the hyper part plus
            // the remainder shuffles must beat one full shuffle, else
            // shuffling everything at once is cheaper.
            let mixed = remainder.iter().fold(plan.est_total_reads() as f64, |acc, leg| {
                acc + cost.shuffle_join_cost(leg.left.len(), leg.right.len())
            });
            let full = cost.shuffle_join_cost(left.len(), right.len());
            if remainder.is_empty() || mixed < full {
                JoinChoice::Hyper { plan, remainder }
            } else {
                JoinChoice::Shuffle { est_cost: full, hyper_cost: mixed }
            }
        }
    };
    Ok(JoinPlan { query, left, right, choice })
}

fn plan_step<'q, S: SnapshotSource>(src: &S, step: &'q JoinStep) -> Result<StepPlan<'q>> {
    let config = src.config();
    let scan = &step.table;
    let snap = src.snapshot(&scan.table)?;
    let candidates = side_candidates(config.mode, &snap, &scan.predicates, Some(step.table_attr));
    if !hyper_allowed(config.mode) || candidates.matching.is_empty() || !candidates.other.is_empty()
    {
        let method = StepMethod::Shuffle(plan_scan(config.mode, &snap, scan));
        return Ok(StepPlan { step, candidates, method });
    }
    // Group the stored side exactly like a two-table hyper-join would,
    // with per-group key ranges for routing the intermediate.
    let ranges = block_ranges(src.store(), &scan.table, &candidates.matching, step.table_attr)?;
    let plain: Vec<ValueRange> = ranges.iter().map(|(_, r)| r.clone()).collect();
    let overlap = OverlapMatrix::compute_sweep(&plain, &plain);
    let grouping = bottom_up::solve(&overlap, config.buffer_blocks.max(1));
    let groups = grouping
        .groups()
        .iter()
        .map(|members| {
            let mut range = ValueRange::empty();
            let blocks = members
                .iter()
                .map(|&i| {
                    range.merge(&ranges[i].1);
                    ranges[i].0
                })
                .collect();
            StepGroup { blocks, range }
        })
        .collect();
    Ok(StepPlan { step, candidates, method: StepMethod::Hyper(groups) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, Schema, Value, ValueType};
    use adaptdb_tree::{Node, PartitionTree};
    use std::collections::BTreeMap;

    use crate::table::TreeInfo;

    fn two_tree_table() -> TableSnapshot {
        // Tree A on attr 0, tree B on attr 1.
        let t0 = PartitionTree::from_root(
            Node::internal(0, Value::Int(10), Node::leaf(0), Node::leaf(1)),
            2,
            Some(0),
            1,
        );
        let t1 = PartitionTree::from_root(
            Node::internal(1, Value::Int(5), Node::leaf(0), Node::leaf(1)),
            2,
            Some(1),
            1,
        );
        let mut a = TreeInfo::empty(t0);
        a.add_blocks(BTreeMap::from([(0, vec![1]), (1, vec![2])]));
        let mut b = TreeInfo::empty(t1);
        b.add_blocks(BTreeMap::from([(0, vec![3]), (1, vec![4])]));
        TableSnapshot {
            schema: Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]),
            trees: vec![a, b],
            delta: Vec::new(),
        }
    }

    #[test]
    fn classification_follows_tree_join_attr() {
        let t = two_tree_table();
        let c = classify_candidates(&t, &PredicateSet::none(), 0);
        assert_eq!(c.matching, vec![1, 2]);
        assert_eq!(c.other, vec![3, 4]);
        let c = classify_candidates(&t, &PredicateSet::none(), 1);
        assert_eq!(c.matching, vec![3, 4]);
        assert_eq!(c.other, vec![1, 2]);
        // Unknown attr: everything "other" (planner case 3).
        let c = classify_candidates(&t, &PredicateSet::none(), 7);
        assert!(c.matching.is_empty());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn predicates_prune_within_each_tree() {
        use adaptdb_common::{CmpOp, Predicate};
        let t = two_tree_table();
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Le, 10i64));
        let c = classify_candidates(&t, &preds, 0);
        // Tree A prunes to bucket 0 → block 1; tree B cannot prune attr 0.
        assert_eq!(c.matching, vec![1]);
        assert_eq!(c.other, vec![3, 4]);
    }

    #[test]
    fn delta_blocks_classify_as_other_on_every_attr() {
        let mut t = two_tree_table();
        t.delta = vec![9, 10];
        let c = classify_candidates(&t, &PredicateSet::none(), 0);
        assert_eq!(c.matching, vec![1, 2]);
        assert_eq!(c.other, vec![3, 4, 9, 10], "deltas always shuffle");
        // Even a predicate that prunes every tree keeps the deltas.
        use adaptdb_common::{CmpOp, Predicate};
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Le, 10i64));
        let c = classify_candidates(&t, &preds, 0);
        assert!(c.other.ends_with(&[9, 10]));
    }

    #[test]
    fn block_ranges_read_from_meta() {
        let store = BlockStore::new(2, 1, 1);
        let id = store.write_block("t", vec![row![5i64, 1i64], row![9i64, 2i64]], 2, None);
        let ranges = block_ranges(&store, "t", &[id], 0).unwrap();
        assert_eq!(ranges[0].0, id);
        assert_eq!(ranges[0].1.min(), Some(&Value::Int(5)));
        assert_eq!(ranges[0].1.max(), Some(&Value::Int(9)));
        assert!(block_ranges(&store, "t", &[99], 0).is_err());
    }

    #[test]
    fn side_candidates_helpers() {
        let c = SideCandidates { matching: vec![1], other: vec![2, 3] };
        assert_eq!(c.all(), vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(SideCandidates::default().is_empty());
    }
}
