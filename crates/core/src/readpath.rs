//! The read-only query path, expressed over layout snapshots.
//!
//! Everything needed to answer a query — scan, shuffle join,
//! hyper-join, multi-way steps — lives here as free functions that run
//! a [`crate::planner::QueryPlan`] over a [`SnapshotSource`]: any
//! provider of `Arc<TableSnapshot>` handles plus a store and config.
//! The serial [`crate::Database`] implements it over its catalog map;
//! the concurrent server implements it over its published snapshot
//! table, so many reader threads execute this exact code against pinned
//! layouts while maintenance rewrites blocks underneath.

use std::sync::Arc;

use adaptdb_common::stats::JoinStrategy;
use adaptdb_common::{BlockId, Error, JoinQuery, PredicateSet, Query, Result, Row, ScanQuery};
use adaptdb_dfs::{SimClock, TraceCtx};
use adaptdb_exec::{
    hyper_join, scan_blocks, shuffle_join, shuffle_join_rows, ExecContext, HyperJoinSpec,
    ShuffleJoinSpec,
};
use adaptdb_storage::BlockStore;

use crate::config::DbConfig;
use crate::planner::{plan_query, JoinChoice, JoinPlan, QueryPlan, ScanPlan, StepMethod, StepPlan};
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
/// on `clock`. Returns rows, the plan's strategy, and the planner's
/// `C_HyJ` estimate when the first join runs a hyper-join.
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
    let plan = plan_query(src, query)?;
    let (strategy, c_hyj) = (plan.strategy(), plan.hyper_plan().map(|p| p.c_hyj));
    let rows = match plan {
        QueryPlan::Scan(scan) => execute_scan(src, &scan, clock, trace)?,
        QueryPlan::Join { first, steps } => {
            let mut rows = execute_join(src, &first, clock, trace)?;
            for step in steps {
                rows = execute_step(src, step, rows, clock, trace)?;
            }
            rows
        }
    };
    Ok((rows, strategy, c_hyj))
}

/// Execute one multi-way join step (§4.3): hyper-join the shuffled
/// intermediate against the planned groups of stored blocks, or scan
/// the table and shuffle both sides.
fn execute_step<'a, S: SnapshotSource>(
    src: &'a S,
    plan: StepPlan<'_>,
    intermediate: Vec<Row>,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<Vec<Row>> {
    let config = src.config();
    let step = plan.step;
    let table = &step.table.table;
    let groups = match plan.method {
        StepMethod::Hyper(groups) => groups,
        StepMethod::Shuffle(scan) => {
            let side = execute_scan(src, &scan, clock, trace)?;
            return shuffle_join_rows(
                exec_ctx(src, clock, trace),
                intermediate,
                side,
                step.intermediate_attr,
                step.table_attr,
                config.rows_per_block,
            );
        }
    };
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
        &step.table.predicates,
        intermediate,
        step.intermediate_attr,
        config.rows_per_block,
    )?;
    if let (Some(g), Some(b)) = (&span, before) {
        let a = clock.snapshot();
        g.attr_s("table", table);
        g.attr_i("blocks_read", (a.reads() - b.reads()) as i64);
    }
    Ok(rows)
}

fn execute_scan<'a, S: SnapshotSource>(
    src: &'a S,
    plan: &ScanPlan<'_>,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<Vec<Row>> {
    let ScanQuery { table, predicates } = plan.query;
    let ctx = exec_ctx(src, clock, trace);
    if plan.pushdown {
        return scan_blocks(ctx, table, &plan.blocks, predicates);
    }
    // Baseline: no metadata skipping; filter after reading.
    let rows = scan_blocks(ctx, table, &plan.blocks, &PredicateSet::none())?;
    Ok(rows.into_iter().filter(|r| predicates.matches(r)).collect())
}

fn execute_join<'a, S: SnapshotSource>(
    src: &'a S,
    plan: &JoinPlan<'_>,
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<Vec<Row>> {
    let j = plan.query;
    // Planning read only in-memory metadata, so this span is
    // zero-duration on the simulated timeline; its attributes carry
    // the candidate sets and the cost-based decision.
    if let Some(t) = trace {
        let (_, g) = t.span("plan", clock);
        g.attr_i("left_candidates", plan.left.len() as i64);
        g.attr_i("right_candidates", plan.right.len() as i64);
        match &plan.choice {
            JoinChoice::ShuffleOnly => g.attr_s("decision", "shuffle"),
            JoinChoice::Shuffle { est_cost, hyper_cost } => {
                g.attr_s("decision", "shuffle");
                g.attr_f("est_shuffle_cost", *est_cost);
                g.attr_f("est_hyper_cost", *hyper_cost);
            }
            JoinChoice::Hyper { plan, .. } => {
                g.attr_s("decision", "hyper");
                g.attr_f("est_c_hyj", plan.c_hyj);
            }
        }
    }

    let JoinChoice::Hyper { plan: hyper, remainder } = &plan.choice else {
        return run_shuffle(src, j, &plan.left.all(), &plan.right.all(), clock, trace);
    };
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
            left_table: &j.left.table,
            right_table: &j.right.table,
            left_attr: j.left_attr,
            right_attr: j.right_attr,
            left_preds: &j.left.predicates,
            right_preds: &j.right.predicates,
            plan: hyper,
        },
    )?;
    if let Some((_, g, before)) = &hspan {
        let after = clock.snapshot();
        g.attr_i("blocks_read", (after.reads() - before.reads()) as i64);
        g.attr_f("est_c_hyj", hyper.c_hyj);
    }
    drop(hspan);
    for leg in remainder {
        rows.extend(run_shuffle(src, j, &leg.left, &leg.right, clock, trace)?);
    }
    Ok(rows)
}

fn run_shuffle<'a, S: SnapshotSource>(
    src: &'a S,
    j: &JoinQuery,
    left_blocks: &[BlockId],
    right_blocks: &[BlockId],
    clock: &'a SimClock,
    trace: Option<TraceCtx<'a>>,
) -> Result<Vec<Row>> {
    shuffle_join(
        exec_ctx(src, clock, trace),
        ShuffleJoinSpec {
            left_table: &j.left.table,
            left_blocks,
            right_table: &j.right.table,
            right_blocks,
            left_attr: j.left_attr,
            right_attr: j.right_attr,
            left_preds: &j.left.predicates,
            right_preds: &j.right.predicates,
            // Fan-out comes from the context's ShuffleOptions, which
            // exec_ctx fills from config.shuffle_fanout().
            rows_per_block: src.config().rows_per_block,
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
