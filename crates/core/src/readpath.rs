//! The read-only query path, expressed over layout snapshots.
//!
//! Everything needed to answer a query — planning, scan, shuffle join,
//! hyper-join, multi-way steps — lives here as free functions over a
//! [`SnapshotSource`]: any provider of `Arc<TableSnapshot>` handles plus
//! a store and config. The serial [`crate::Database`] implements it
//! over its catalog map; the concurrent server implements it over its
//! published snapshot table, so many reader threads execute this exact
//! code against pinned layouts while maintenance rewrites blocks
//! underneath.

use std::sync::Arc;

use adaptdb_common::stats::JoinStrategy;
use adaptdb_common::{AttrId, BlockId, Error, PredicateSet, Query, Result, Row};
use adaptdb_dfs::{SimClock, TraceCtx};
use adaptdb_exec::{
    hyper_join, scan_blocks, shuffle_join, shuffle_join_rows, ExecContext, HyperJoinSpec,
    ShuffleJoinSpec,
};
use adaptdb_join::{planner as join_planner, JoinDecision};
use adaptdb_storage::BlockStore;

use crate::config::{DbConfig, Mode};
use crate::planner::{block_ranges, classify_candidates, SideCandidates};
use crate::table::TableSnapshot;

/// A provider of everything the read path needs. Implementations must
/// return a *stable* snapshot per table for the duration of one query
/// (the server pins snapshots at admission; the serial engine is its
/// own pin).
pub trait SnapshotSource {
    /// The active configuration.
    fn config(&self) -> &DbConfig;
    /// The block store.
    fn store(&self) -> &BlockStore;
    /// The layout snapshot a query should read for `table`.
    fn snapshot(&self, table: &str) -> Result<Arc<TableSnapshot>>;
}

fn exec_ctx<'a, S: SnapshotSource>(
    src: &'a S,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> ExecContext<'a> {
    ExecContext::new(src.store(), clock, src.config().threads)
        .with_shuffle(src.config().shuffle_options())
        .with_fetch_window(src.config().fetch_window)
        .with_join_mem_budget(src.config().join_mem_budget_blocks)
        .with_morsel_rows(src.config().morsel_rows)
        .with_trace(trace)
}

/// Execute one query against the source's snapshots: plan, run, account
/// on `clock`. Returns rows, the chosen strategy, and the planner's
/// `C_HyJ` estimate when a hyper-join was considered.
pub fn execute_query<S: SnapshotSource>(
    src: &S,
    query: &Query,
    clock: &SimClock,
) -> Result<(Vec<Row>, JoinStrategy, Option<f64>)> {
    execute_query_traced(src, query, clock, None)
}

/// [`execute_query`] with an optional tracing handle: operator spans
/// (plan, scan, shuffle map/fetch/probe, hyper-join) nest under the
/// handle's parent span. `None` is exactly `execute_query` — tracing
/// never changes accounting, so the untraced path stays bit-identical.
pub fn execute_query_traced<'a, S: SnapshotSource>(
    src: &'a S,
    query: &Query,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<(Vec<Row>, JoinStrategy, Option<f64>)> {
    validate_query(src, query)?;
    match query {
        Query::Scan(s) => {
            let rows = execute_scan(src, &s.table, &s.predicates, clock, trace)?;
            Ok((rows, JoinStrategy::ScanOnly, None))
        }
        Query::Join(j) => {
            let (rows, strategy, c) = execute_join(
                src,
                &j.left.table,
                &j.left.predicates,
                j.left_attr,
                &j.right.table,
                &j.right.predicates,
                j.right_attr,
                clock,
                trace,
            )?;
            Ok((rows, strategy, c))
        }
        Query::MultiJoin { first, steps } => {
            let (mut rows, mut strategy, c) = execute_join(
                src,
                &first.left.table,
                &first.left.predicates,
                first.left_attr,
                &first.right.table,
                &first.right.predicates,
                first.right_attr,
                clock,
                trace,
            )?;
            for step in steps {
                let (step_rows, used_hyper) = execute_step(src, step, rows, clock, trace)?;
                rows = step_rows;
                if !used_hyper && strategy == JoinStrategy::HyperJoin {
                    strategy = JoinStrategy::Mixed;
                }
            }
            Ok((rows, strategy, c))
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
    let scan = |s: &adaptdb_common::ScanQuery, attr: Option<AttrId>| -> Result<usize> {
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

/// Execute one multi-way join step (§4.3). When the base table has a
/// tree on the step's join attribute covering all candidate blocks,
/// only the intermediate is shuffled and the base table is read
/// through a hyper-join schedule ("AdaptDB only needs to shuffle
/// tempLO based on custkey, and can then use hyper-join"). Otherwise
/// the step falls back to scanning the table and shuffling both
/// sides. Returns the joined rows and whether the hyper path ran.
fn execute_step<'a, S: SnapshotSource>(
    src: &'a S,
    step: &adaptdb_common::JoinStep,
    intermediate: Vec<Row>,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<(Vec<Row>, bool)> {
    let config = src.config();
    let table = &step.table.table;
    let preds = &step.table.predicates;
    let snap = src.snapshot(table)?;
    let allow_hyper = matches!(config.mode, Mode::Adaptive | Mode::FullRepartition | Mode::Fixed);
    if allow_hyper {
        let candidates = classify_candidates(&snap, preds, step.table_attr);
        if !candidates.matching.is_empty() && candidates.other.is_empty() {
            // Group the stored side exactly like a two-table
            // hyper-join would, with per-group key ranges for
            // routing the intermediate.
            let ranges = block_ranges(src.store(), table, &candidates.matching, step.table_attr)?;
            let plain: Vec<adaptdb_common::ValueRange> =
                ranges.iter().map(|(_, r)| r.clone()).collect();
            let overlap = adaptdb_join::OverlapMatrix::compute_sweep(&plain, &plain);
            let grouping = adaptdb_join::bottom_up::solve(&overlap, config.buffer_blocks.max(1));
            let groups: Vec<adaptdb_exec::StepGroup> = grouping
                .groups()
                .iter()
                .map(|members| {
                    let mut range = adaptdb_common::ValueRange::empty();
                    let blocks = members
                        .iter()
                        .map(|&i| {
                            range.merge(&ranges[i].1);
                            ranges[i].0
                        })
                        .collect();
                    adaptdb_exec::StepGroup { blocks, range }
                })
                .collect();
            let (child, span) = match trace {
                Some(t) => {
                    let (c, g) = t.span("hyper-step", clock);
                    (Some(c), Some(g))
                }
                None => (None, None),
            };
            let before = span.as_ref().map(|_| clock.snapshot());
            let rows = adaptdb_exec::hyper_step_join(
                exec_ctx(src, clock, child),
                table,
                groups,
                step.table_attr,
                preds,
                intermediate,
                step.intermediate_attr,
                config.rows_per_block,
            )?;
            if let (Some(g), Some(b)) = (&span, before) {
                let a = clock.snapshot();
                g.attr_s("table", table);
                g.attr_i("blocks_read", (a.reads() - b.reads()) as i64);
            }
            return Ok((rows, true));
        }
    }
    // Fallback: scan through the trees, shuffle both sides.
    let side = execute_scan(src, table, preds, clock, trace)?;
    let rows = shuffle_join_rows(
        exec_ctx(src, clock, trace),
        intermediate,
        side,
        step.intermediate_attr,
        step.table_attr,
        config.rows_per_block,
    )?;
    Ok((rows, false))
}

fn execute_scan<'a, S: SnapshotSource>(
    src: &'a S,
    table: &str,
    preds: &PredicateSet,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<Vec<Row>> {
    let snap = src.snapshot(table)?;
    if src.config().mode == Mode::FullScan {
        // Baseline: no tree pruning, no metadata skipping.
        let blocks = snap.all_blocks();
        let rows = scan_blocks(exec_ctx(src, clock, trace), table, &blocks, &PredicateSet::none())?;
        return Ok(rows.into_iter().filter(|r| preds.matches(r)).collect());
    }
    let blocks = snap.lookup_blocks(preds);
    scan_blocks(exec_ctx(src, clock, trace), table, &blocks, preds)
}

#[allow(clippy::too_many_arguments)]
fn execute_join<'a, S: SnapshotSource>(
    src: &'a S,
    left: &str,
    left_preds: &PredicateSet,
    left_attr: AttrId,
    right: &str,
    right_preds: &PredicateSet,
    right_attr: AttrId,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<(Vec<Row>, JoinStrategy, Option<f64>)> {
    let config = src.config();
    let lt = src.snapshot(left)?;
    let rt = src.snapshot(right)?;
    // Planning reads only in-memory metadata, so this span is
    // zero-duration on the simulated timeline; its attributes carry
    // the candidate sets and the cost-based decision.
    let plan_span = trace.map(|t| t.span("plan", clock).1);
    let allow_hyper = matches!(config.mode, Mode::Adaptive | Mode::FullRepartition | Mode::Fixed);

    let (lc, rc) = if config.mode == Mode::FullScan {
        (
            SideCandidates { matching: vec![], other: lt.all_blocks() },
            SideCandidates { matching: vec![], other: rt.all_blocks() },
        )
    } else {
        (
            classify_candidates(&lt, left_preds, left_attr),
            classify_candidates(&rt, right_preds, right_attr),
        )
    };

    if !allow_hyper {
        if let Some(g) = plan_span {
            g.attr_i("left_candidates", lc.len() as i64);
            g.attr_i("right_candidates", rc.len() as i64);
            g.attr_s("decision", "shuffle");
        }
        let rows = run_shuffle(
            src,
            left,
            &lc.all(),
            left_preds,
            left_attr,
            right,
            &rc.all(),
            right_preds,
            right_attr,
            clock,
            trace,
        )?;
        return Ok((rows, JoinStrategy::ShuffleJoin, None));
    }

    // Choose the hyper candidate sets: matching×matching when both
    // sides are (at least partially) organized for this join;
    // otherwise try everything (the "up-front partitioning happens to
    // work out" clause of case 3).
    let both_matching = !lc.matching.is_empty() && !rc.matching.is_empty();
    let (l_hyper, l_rest, r_hyper, r_rest) = if both_matching {
        (lc.matching.clone(), lc.other.clone(), rc.matching.clone(), rc.other.clone())
    } else {
        (lc.all(), Vec::new(), rc.all(), Vec::new())
    };

    let l_ranges = block_ranges(src.store(), left, &l_hyper, left_attr)?;
    let r_ranges = block_ranges(src.store(), right, &r_hyper, right_attr)?;
    let decision = join_planner::plan(&l_ranges, &r_ranges, config.buffer_blocks, &config.cost);

    // Cost check for the mixed case (§5.4): the hyper part plus the
    // remainder shuffles must beat one full shuffle, else shuffling
    // everything at once is cheaper.
    let decision = match decision {
        JoinDecision::Hyper(plan) if !l_rest.is_empty() || !r_rest.is_empty() => {
            let cost = &config.cost;
            let mut mixed = plan.est_total_reads() as f64;
            if !r_rest.is_empty() {
                mixed += cost.shuffle_join_cost(l_hyper.len(), r_rest.len());
            }
            if !l_rest.is_empty() {
                mixed += cost.shuffle_join_cost(l_rest.len(), rc.len());
            }
            let full = cost.shuffle_join_cost(lc.len(), rc.len());
            if mixed < full {
                JoinDecision::Hyper(plan)
            } else {
                JoinDecision::Shuffle { est_cost: full, hyper_cost: mixed }
            }
        }
        other => other,
    };

    if let Some(g) = plan_span {
        g.attr_i("left_candidates", lc.len() as i64);
        g.attr_i("right_candidates", rc.len() as i64);
        match &decision {
            JoinDecision::Hyper(plan) => {
                g.attr_s("decision", "hyper");
                g.attr_f("est_c_hyj", plan.c_hyj);
            }
            JoinDecision::Shuffle { est_cost, hyper_cost } => {
                g.attr_s("decision", "shuffle");
                g.attr_f("est_shuffle_cost", *est_cost);
                g.attr_f("est_hyper_cost", *hyper_cost);
            }
        }
    }

    match decision {
        JoinDecision::Hyper(plan) => {
            let hspan = match trace {
                Some(t) => {
                    let (c, g) = t.span("hyper-join", clock);
                    Some((c, g, clock.snapshot()))
                }
                None => None,
            };
            let mut rows = hyper_join(
                exec_ctx(src, clock, hspan.as_ref().map(|(c, _, _)| *c)),
                HyperJoinSpec {
                    left_table: left,
                    right_table: right,
                    left_attr,
                    right_attr,
                    left_preds,
                    right_preds,
                    plan: &plan,
                },
            )?;
            if let Some((_, g, before)) = &hspan {
                let after = clock.snapshot();
                g.attr_i("blocks_read", (after.reads() - before.reads()) as i64);
                g.attr_f("est_c_hyj", plan.c_hyj);
            }
            drop(hspan);
            let mut mixed = false;
            // Remainder joins for mid-migration blocks (planner case 2).
            if !r_rest.is_empty() {
                mixed = true;
                rows.extend(run_shuffle(
                    src,
                    left,
                    &l_hyper,
                    left_preds,
                    left_attr,
                    right,
                    &r_rest,
                    right_preds,
                    right_attr,
                    clock,
                    trace,
                )?);
            }
            if !l_rest.is_empty() {
                mixed = true;
                let r_all = rc.all();
                rows.extend(run_shuffle(
                    src,
                    left,
                    &l_rest,
                    left_preds,
                    left_attr,
                    right,
                    &r_all,
                    right_preds,
                    right_attr,
                    clock,
                    trace,
                )?);
            }
            let strategy = if mixed { JoinStrategy::Mixed } else { JoinStrategy::HyperJoin };
            Ok((rows, strategy, Some(plan.c_hyj)))
        }
        JoinDecision::Shuffle { .. } => {
            let rows = run_shuffle(
                src,
                left,
                &lc.all(),
                left_preds,
                left_attr,
                right,
                &rc.all(),
                right_preds,
                right_attr,
                clock,
                trace,
            )?;
            Ok((rows, JoinStrategy::ShuffleJoin, None))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_shuffle<'a, S: SnapshotSource>(
    src: &'a S,
    left: &str,
    left_blocks: &[BlockId],
    left_preds: &PredicateSet,
    left_attr: AttrId,
    right: &str,
    right_blocks: &[BlockId],
    right_preds: &PredicateSet,
    right_attr: AttrId,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<Vec<Row>> {
    let config = src.config();
    shuffle_join(
        exec_ctx(src, clock, trace),
        ShuffleJoinSpec {
            left_table: left,
            left_blocks,
            right_table: right,
            right_blocks,
            left_attr,
            right_attr,
            left_preds,
            right_preds,
            // Fan-out comes from the context's ShuffleOptions, which
            // exec_ctx fills from config.shuffle_fanout().
            rows_per_block: config.rows_per_block,
        },
    )
}

/// Convenience: resolve a snapshot or fail with [`Error::UnknownTable`].
pub fn require_snapshot(
    map: &std::collections::BTreeMap<String, Arc<TableSnapshot>>,
    table: &str,
) -> Result<Arc<TableSnapshot>> {
    map.get(table).cloned().ok_or_else(|| Error::UnknownTable(table.to_string()))
}
