//! Pinned configuration, seeded inputs, loading and the reference
//! answers every workload is checked against.

use std::time::Instant;

use adaptdb::{Database, DbConfig, Mode, SchedPolicy};
use adaptdb_common::{CostParams, Query, Result, Row};
use adaptdb_dfs::SimClock;
use adaptdb_server::{DbServer, ServerOptions, DEFAULT_FAIR_QUANTUM};
use adaptdb_workloads::patterns;
use adaptdb_workloads::tpch::{li, Template, TpchGen};

use crate::measure::{self, Fingerprint};

/// TPC-H micro scale: 30k lineitem and 7.5k orders rows.
pub const SCALE: f64 = 0.5;
/// Rows per appended batch on `ingest`: a quarter of a block.
pub const BATCH_ROWS: usize = 50;
/// Batches the `ingest` writer sends per run: a third of lineitem.
pub const BATCHES: usize = 200;
/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPEATS: usize = 9;

/// Today's defaults, every field spelled out so that no environment
/// variable and no later change of a default can alter what is measured.
/// The engine seed is fixed: the workload seed reaches the engine only
/// through the rows and queries it generates.
pub fn pinned_config(mode: Mode) -> DbConfig {
    DbConfig {
        nodes: 10,
        replication: 3,
        rows_per_block: 200,
        window_size: 10,
        buffer_blocks: 4,
        join_levels_fraction: 0.5,
        min_join_frequency: 1,
        adapt_selections: true,
        shuffle_partitions: None,
        shuffle_replication: 1,
        shuffle_split_threshold: Some(4.0),
        join_mem_budget_blocks: None,
        fetch_window: 4,
        sched: SchedPolicy::Fifo,
        batch_cost_blocks: 64,
        maint_pace_wait_ms: 5.0,
        fetch_pace_wait_ms: None,
        columnar: false,
        morsel_rows: adaptdb_exec::DEFAULT_MORSEL_ROWS,
        trace: false,
        ingest_fold_blocks: 8,
        ingest_merge_tail: true,
        cache_blocks_per_node: 0,
        durable_path: None,
        cost: CostParams {
            c_sj: 3.0,
            block_read_secs: 1.0,
            remote_read_penalty: 1.25,
            block_write_secs: 1.0,
            cpu_per_block_secs: 0.1,
            parallelism: 10,
            cache_hit_secs: 0.02,
        },
        mode,
        threads: 2,
        seed: 42,
    }
}

/// The server's default options, spelled out.
pub fn server_options() -> ServerOptions {
    ServerOptions {
        workers: Some(2),
        queue_capacity: Some(8),
        sched: Some(SchedPolicy::Fifo),
        fair_quantum: Some(DEFAULT_FAIR_QUANTUM),
        max_queue_wait_ms: None,
    }
}

/// How the tables start out.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    /// Amoeba upfront partitioning, blind to joins (the paper's §7.3 start).
    Upfront,
    /// Converged two-phase trees, lineitem on `l_orderkey`.
    Converged,
}

/// Generate the TPC-H tables from `seed` and load them.
pub fn load(seed: u64, layout: Layout, mode: Mode) -> Result<Database> {
    let gen = TpchGen::new(SCALE, seed);
    let mut db = Database::new(pinned_config(mode));
    match layout {
        Layout::Upfront => gen.load_upfront(&mut db)?,
        Layout::Converged => gen.load_converged(&mut db, li::ORDERKEY)?,
    }
    Ok(db)
}

pub fn lineitem_rows() -> usize {
    TpchGen::new(SCALE, 0).counts().lineitem
}

/// Run `make` [`SETUP_REPEATS`] times; return the last result and the
/// median time. Earlier results are dropped outside the timing.
pub fn timed_setup<T>(mut make: impl FnMut() -> Result<T>) -> Result<(T, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(make()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), measure::median(&times)))
}

/// Load the converged layout and start a server on it.
pub fn start_server(seed: u64) -> Result<DbServer> {
    Ok(DbServer::start_with(load(seed, Layout::Converged, Mode::Adaptive)?, server_options()))
}

/// `drift`: the Fig. 13b shifting sequence over all eight templates,
/// 30-query transitions, 240 queries. The template order is one fixed
/// draw, as in the paper's figure; `seed` picks the predicate constants.
/// A fresh draw per seed would move the template mix, and with it every
/// latency percentile, by more than any change worth detecting.
pub fn drift_queries(seed: u64) -> Vec<Query> {
    const SEQUENCE_SEED: u64 = 42;
    let mut rng = adaptdb_common::rng::derived(seed, "perfbench-queries");
    patterns::shifting(&Template::all(), 30, SEQUENCE_SEED)
        .iter()
        .map(|t| t.instantiate(&mut rng))
        .collect()
}

/// `steady` and `ingest`: 24 instances each of the orderkey-join
/// templates, interleaved, which the sessions cycle through.
pub fn steady_pool(seed: u64) -> Vec<Query> {
    let mut rng = adaptdb_common::rng::derived(seed, "perfbench-queries");
    let templates = [Template::Q3, Template::Q5, Template::Q10, Template::Q12];
    (0..24).flat_map(|_| templates).map(|t| t.instantiate(&mut rng)).collect()
}

/// `ingest`: lineitem-shaped rows from a generator seeded apart from the
/// load, cut into [`BATCHES`] batches of [`BATCH_ROWS`].
pub fn append_batches(seed: u64) -> Vec<Vec<Row>> {
    let rows = TpchGen::new(SCALE, seed ^ 0xA99E_5EED).lineitem();
    assert!(rows.len() >= BATCHES * BATCH_ROWS, "generator yields enough rows to append");
    rows.chunks(BATCH_ROWS).take(BATCHES).map(<[Row]>::to_vec).collect()
}

/// Fingerprints of `queries` answered by the `Mode::FullScan` baseline
/// over the same data: no pruning, every join a shuffle join. The
/// baseline is read-only, so two threads share it.
pub fn reference(seed: u64, queries: &[Query]) -> Result<Vec<Fingerprint>> {
    let db = load(seed, Layout::Upfront, Mode::FullScan)?;
    let answer = |q: &Query| -> Result<Fingerprint> {
        let clock = SimClock::new();
        let (rows, _, _) = adaptdb::readpath::execute_query(&db, q, &clock)?;
        Ok(measure::fingerprint(&rows))
    };
    let half = queries.len().div_ceil(2);
    let (front, back) = std::thread::scope(|s| {
        let back = s.spawn(|| queries[half..].iter().map(answer).collect::<Result<Vec<_>>>());
        let front = queries[..half].iter().map(answer).collect::<Result<Vec<_>>>();
        (front, back.join().expect("reference thread panicked"))
    });
    let mut all = front?;
    all.extend(back?);
    Ok(all)
}
