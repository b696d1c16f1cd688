//! The traced run: a serial replay of a workload's completed operations
//! through the engine's public parts, each call timed by the benchmark.
//!
//! `Database::run` is `record_observation`, then `adapt_now`, then
//! `readpath::execute_query_traced`; the replay makes those calls itself
//! (adding `Database::explain` for plan time and `cost::estimate_query`
//! for admission-estimate time), so no tracing is added to the engine.
//! The engine's own spans, timed on the simulated clocks, give the
//! simulated self time of each operator. Tracing never charges a clock,
//! so the replay must reproduce the untraced run's rows and simulated
//! counters exactly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use adaptdb::{readpath, Mode};
use adaptdb_common::stats::JoinStrategy;
use adaptdb_common::{
    CacheStats, IoStats, OverlapStats, PredicateSet, Query, QueryStats, Result, Row, ShuffleStats,
    Tracer,
};
use adaptdb_dfs::{secs_to_us, SimClock, TraceCtx};
use adaptdb_exec::{scan_blocks, ExecContext};

use crate::alloc::Totals;
use crate::live::{Op, Outcome};
use crate::measure::{self, fingerprint};
use crate::setup::{self, Layout};

/// Wall time and per-query outcomes of a serial replay.
#[derive(Debug, Default)]
pub struct Replayed {
    pub outcomes: Vec<Outcome>,
    pub wall_s: f64,
}

/// What the traced replay measured at each layer boundary.
#[derive(Debug, Default)]
pub struct Layers {
    pub queries: usize,
    pub joins: usize,
    pub hyper_joins: usize,
    /// Wall seconds inside each timed call, summed over the replay.
    pub observe_s: f64,
    pub adapt_s: f64,
    pub plan_s: f64,
    pub estimate_s: f64,
    pub execute_s: f64,
    /// Wall seconds from each query's first call to its last, summed.
    pub query_wall_s: f64,
    pub adapt_allocs: Totals,
    pub execute_allocs: Totals,
    pub query_io: IoStats,
    pub repartition_io: IoStats,
    pub shuffle: ShuffleStats,
    pub overlap: OverlapStats,
    pub cache: CacheStats,
    /// Simulated self time per span name, and summed root durations, µs.
    pub self_us: BTreeMap<String, u64>,
    pub root_us: u64,
}

impl Layers {
    /// Per-query mean of a summed quantity.
    pub fn per_query(&self, total: f64) -> f64 {
        total / self.queries.max(1) as f64
    }

    /// Simulated self-time share of the spans named `name`.
    pub fn sim_share(&self, name: &str) -> f64 {
        ratio(self.self_us.get(name).copied().unwrap_or(0) as f64, self.root_us as f64)
    }

    /// Summed wall time of the timed calls over summed query wall time.
    pub fn boundary_coverage(&self) -> f64 {
        let timed = self.observe_s + self.adapt_s + self.plan_s + self.estimate_s + self.execute_s;
        ratio(timed, self.query_wall_s)
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Replay `ops` through `Database::run` and `Database::append_rows` on
/// a fresh load: the untraced serial baseline.
pub fn untraced(
    seed: u64,
    layout: Layout,
    ops: &[Op],
    queries: &[Query],
    batches: &[Vec<Row>],
) -> Result<Replayed> {
    let mut db = setup::load(seed, layout, Mode::Adaptive)?;
    let mut out = Replayed::default();
    let start = Instant::now();
    for op in ops {
        match *op {
            Op::Query(i) => {
                let r = db.run(&queries[i])?;
                out.outcomes.push(Outcome { fp: fingerprint(&r.rows), stats: r.stats });
            }
            Op::Append(k) => {
                db.append_rows("lineitem", batches[k].clone())?;
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Replay `ops` on a fresh load, timing every call into the engine.
pub fn traced(
    seed: u64,
    layout: Layout,
    ops: &[Op],
    queries: &[Query],
    batches: &[Vec<Row>],
) -> Result<(Replayed, Layers)> {
    let mut db = setup::load(seed, layout, Mode::Adaptive)?;
    let params = db.config().cost.clone();
    let mut out = Replayed::default();
    let mut layers = Layers::default();
    let start = Instant::now();
    for op in ops {
        let q = match *op {
            Op::Query(i) => &queries[i],
            Op::Append(k) => {
                db.append_rows("lineitem", batches[k].clone())?;
                continue;
            }
        };
        let t0 = Instant::now();
        db.record_observation(q)?;
        let t1 = Instant::now();
        let repart_clock = SimClock::new();
        let allocs = Totals::now();
        db.adapt_now(q, &repart_clock)?;
        layers.adapt_allocs = layers.adapt_allocs.plus(allocs.since());
        let t2 = Instant::now();
        black_box(db.explain(q)?);
        let t3 = Instant::now();
        black_box(adaptdb::cost::estimate_query(&db, q)?);
        let t4 = Instant::now();

        // The same timeline `Database::run` builds: adaptation occupies
        // [0, repart_end], execution starts where it finished.
        let tracer = Tracer::new();
        let root = tracer.start("query", None, 0);
        let repart_end_us = secs_to_us(repart_clock.simulated_secs(&params));
        let adapt = tracer.start("adapt", Some(root), 0);
        tracer.end(adapt, repart_end_us);
        let ctx =
            TraceCtx { tracer: &tracer, params: &params, parent: root, base_us: repart_end_us };
        let query_clock = SimClock::new();
        let t5 = Instant::now();
        let allocs = Totals::now();
        let (rows, strategy, c_hyj) =
            readpath::execute_query_traced(&db, q, &query_clock, Some(ctx))?;
        layers.execute_allocs = layers.execute_allocs.plus(allocs.since());
        let t6 = Instant::now();

        let mut stats = QueryStats::empty(strategy);
        stats.query_io = query_clock.snapshot();
        stats.repartition_io = repart_clock.snapshot();
        stats.shuffle = query_clock.shuffle_snapshot();
        stats.overlap = query_clock.overlap_snapshot();
        stats.cache = query_clock.cache_snapshot();
        stats.cache.merge(&repart_clock.cache_snapshot());
        stats.estimated_c_hyj = c_hyj;
        tracer.end(root, repart_end_us + secs_to_us(stats.query_io.simulated_secs(&params)));
        let trace = tracer.finish();

        layers.observe_s += (t1 - t0).as_secs_f64();
        layers.adapt_s += (t2 - t1).as_secs_f64();
        layers.plan_s += (t3 - t2).as_secs_f64();
        layers.estimate_s += (t4 - t3).as_secs_f64();
        layers.execute_s += (t6 - t5).as_secs_f64();
        layers.query_wall_s += (t6 - t0).as_secs_f64();
        layers.queries += 1;
        if !matches!(q, Query::Scan(_)) {
            layers.joins += 1;
            layers.hyper_joins += usize::from(strategy == JoinStrategy::HyperJoin);
        }
        layers.query_io.merge(&stats.query_io);
        layers.repartition_io.merge(&stats.repartition_io);
        layers.shuffle.merge(&stats.shuffle);
        layers.overlap.merge(&stats.overlap);
        layers.cache.merge(&stats.cache);
        measure::add_self_times(&trace, &mut layers.self_us);
        layers.root_us += trace.root_duration_us();
        out.outcomes.push(Outcome { fp: fingerprint(&rows), stats });
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok((out, layers))
}

/// Median wall milliseconds per block of `exec::scan_blocks` over every
/// lineitem block of a fresh load, no predicates, and the rows each scan
/// returned.
pub fn scan_ms_per_block(seed: u64, layout: Layout) -> Result<(f64, Vec<usize>)> {
    let db = setup::load(seed, layout, Mode::Adaptive)?;
    let config = db.config();
    let blocks = db.table("lineitem")?.all_blocks();
    let (mut per_block, mut rows_seen) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let clock = SimClock::new();
        let ctx = ExecContext::new(db.store(), &clock, config.threads)
            .with_shuffle(config.shuffle_options())
            .with_fetch_window(config.fetch_window)
            .with_join_mem_budget(config.join_mem_budget_blocks)
            .with_columnar(config.columnar)
            .with_morsel_rows(config.morsel_rows);
        let t = Instant::now();
        let rows = scan_blocks(ctx, "lineitem", &blocks, &PredicateSet::none())?;
        per_block.push(t.elapsed().as_secs_f64() * 1e3 / blocks.len() as f64);
        rows_seen.push(rows.len());
    }
    Ok((measure::median(&per_block), rows_seen))
}
