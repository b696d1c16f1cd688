//! The measured runs, tracing off: what a user of the engine sees.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use adaptdb::Mode;
use adaptdb_common::{CostParams, Query, QueryStats, Result, Row, ScanQuery};
use adaptdb_server::{DbServer, ServerReport, Session};

use crate::alloc;
use crate::measure::{fingerprint, Fingerprint, Latencies};
use crate::setup::{self, Layout, BATCHES};

/// A run has at least this many queries, so that at least ten samples
/// lie beyond p95.
pub const MIN_QUERIES: usize = 200;

/// One operation of a run, in the order it completed.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// A query, by index into the workload's query list.
    Query(usize),
    /// An appended batch, by index into the workload's batches.
    Append(usize),
}

/// A query's answer as the checks need it.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub fp: Fingerprint,
    pub stats: QueryStats,
}

#[derive(Debug, Default)]
pub struct Live {
    pub setup_s: f64,
    /// The measured phase, seconds.
    pub wall_s: f64,
    pub queries: Latencies,
    pub appends: Latencies,
    /// Simulated seconds over `sim_queries` queries: query and inline
    /// repartition clocks, plus the maintenance clock under the server.
    /// On `drift` only the first pass counts (every pass charges the
    /// same), so the figure repeats exactly whatever the pass count.
    pub sim_s: f64,
    pub sim_queries: usize,
    pub peak_heap_bytes: usize,
    /// Completed operations in completion order.
    pub log: Vec<Op>,
    /// `drift` only: each query of the first pass, and each pass's wall time.
    pub first_pass: Vec<Outcome>,
    pub pass_s: Vec<f64>,
    pub queue_wait: Latencies,
    pub report: Option<ServerReport>,
    pub writer_interval_ms: f64,
    pub writer_late_ms_max: f64,
    /// Largest lineitem delta backlog seen after an append (sampled
    /// only when `sample_deltas` was asked for).
    pub max_delta_blocks: usize,
    pub rows_appended: usize,
    /// Fingerprints of the `Mode::FullScan` answers, per query of the
    /// workload's list (`drift` and `steady`).
    pub reference: Vec<Fingerprint>,
    /// Query answers compared with the reference.
    pub checked: usize,
    /// Failed correctness checks. Any entry fails the run.
    pub problems: Vec<String>,
}

impl Live {
    fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }
}

/// The engine invariants every query's accounting must satisfy.
fn invariant_violation(stats: &QueryStats) -> Option<String> {
    if stats.shuffle.fetches() != stats.shuffle.blocks_spilled {
        return Some(format!(
            "shuffle fetches {} != blocks spilled {}",
            stats.shuffle.fetches(),
            stats.shuffle.blocks_spilled
        ));
    }
    if stats.overlap.fetches > stats.query_io.reads() {
        return Some(format!(
            "overlapped fetches {} exceed block reads {}",
            stats.overlap.fetches,
            stats.query_io.reads()
        ));
    }
    None
}

/// Whether two runs of one query charged exactly the same simulated work.
pub fn same_accounting(a: &QueryStats, b: &QueryStats) -> bool {
    a.query_io == b.query_io
        && a.repartition_io == b.repartition_io
        && a.shuffle == b.shuffle
        && a.overlap == b.overlap
        && a.cache == b.cache
        && a.strategy == b.strategy
        && a.estimated_c_hyj.map(f64::to_bits) == b.estimated_c_hyj.map(f64::to_bits)
}

/// `drift`: serial `Database::run`, one closed-loop client, from the
/// upfront layout. Whole passes of the sequence run, each on a fresh
/// load, until `seconds` of passes have been measured; every pass must
/// charge exactly the same simulated work.
pub fn drift(seed: u64, seconds: f64) -> Result<Live> {
    let queries = setup::drift_queries(seed);
    let (mut db, setup_s) =
        setup::timed_setup(|| setup::load(seed, Layout::Upfront, Mode::Adaptive))?;
    let reference = setup::reference(seed, &queries)?;
    let params = db.config().cost.clone();
    let mut live = Live { setup_s, ..Live::default() };
    loop {
        alloc::reset_peak();
        let start = Instant::now();
        let mut pass = Vec::with_capacity(queries.len());
        let mut pass_sim_s = 0.0;
        for (i, q) in queries.iter().enumerate() {
            let t = Instant::now();
            let res = db.run(q);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match res {
                Ok(r) => {
                    live.queries.ok(ms);
                    pass_sim_s += r.stats.pipelined_simulated_secs(&params);
                    let outcome = Outcome { fp: fingerprint(&r.rows), stats: r.stats };
                    check(&mut live, i, &outcome, Some(&reference[i]));
                    pass.push(Some(outcome));
                }
                Err(e) => {
                    live.queries.failed();
                    live.problem(format!("query {i} failed in the serial engine: {e}"));
                    pass.push(None);
                }
            }
        }
        let pass_s = start.elapsed().as_secs_f64();
        live.wall_s += pass_s;
        live.peak_heap_bytes = live.peak_heap_bytes.max(alloc::peak_bytes());
        live.pass_s.push(pass_s);
        if live.pass_s.len() == 1 {
            live.first_pass = pass.into_iter().flatten().collect();
            live.sim_s = pass_sim_s;
            live.sim_queries = live.first_pass.len();
        } else {
            let diverged = pass.iter().zip(&live.first_pass).position(|(b, a)| {
                b.as_ref().is_none_or(|b| b.fp != a.fp || !same_accounting(&a.stats, &b.stats))
            });
            if let Some(i) = diverged {
                live.problem(format!(
                    "pass {} diverged from pass 1 at query {i}",
                    live.pass_s.len()
                ));
            }
        }
        if live.wall_s >= seconds {
            break;
        }
        drop(db);
        db = setup::load(seed, Layout::Upfront, Mode::Adaptive)?;
    }
    live.log = (0..queries.len()).map(Op::Query).collect();
    live.reference = reference;
    Ok(live)
}

fn check(live: &mut Live, i: usize, outcome: &Outcome, want: Option<&Fingerprint>) {
    if let Some(v) = invariant_violation(&outcome.stats) {
        live.problem(format!("query {i}: {v}"));
    }
    if let Some(want) = want {
        live.checked += 1;
        if outcome.fp != *want {
            live.problem(format!(
                "query {i}: answer {:?} differs from the FullScan reference {want:?}",
                outcome.fp
            ));
        }
    }
}

/// What one reader thread saw.
#[derive(Default)]
struct ReaderOut {
    live: Live,
    done_at: Vec<(Instant, Op)>,
}

/// What the writer thread saw.
#[derive(Default)]
struct WriterOut {
    appends: Latencies,
    late_ms_max: f64,
    rows: usize,
    max_delta_blocks: usize,
    done_at: Vec<(Instant, Op)>,
}

/// When the closed-loop readers stop.
struct StopRule {
    deadline: Instant,
    attempted: AtomicUsize,
    writer_done: AtomicBool,
}

impl StopRule {
    fn reached(&self) -> bool {
        Instant::now() >= self.deadline
            && self.writer_done.load(Ordering::SeqCst)
            && self.attempted.load(Ordering::SeqCst) >= MIN_QUERIES
    }
}

/// `steady` (2 closed-loop readers) and `ingest` (1 closed-loop reader
/// beside 1 open-loop writer) against `DbServer` on the converged
/// layout. The measured phase ends once the readers have stopped and
/// `drain_maintenance` has returned.
pub fn serve(seed: u64, seconds: f64, ingest: bool, sample_deltas: bool) -> Result<Live> {
    let pool = setup::steady_pool(seed);
    let reference = if ingest { Vec::new() } else { setup::reference(seed, &pool)? };
    let batches = if ingest { setup::append_batches(seed) } else { Vec::new() };
    let (mut server, setup_s) = setup::timed_setup(|| setup::start_server(seed))?;
    let params = setup::pinned_config(Mode::Adaptive).cost;
    let readers = if ingest { 1 } else { 2 };
    let interval = Duration::from_secs_f64(seconds / BATCHES as f64);

    alloc::reset_peak();
    let start = Instant::now();
    let stop = StopRule {
        deadline: start + Duration::from_secs_f64(seconds),
        attempted: AtomicUsize::new(0),
        writer_done: AtomicBool::new(!ingest),
    };
    let (reads, writes) = thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let session = server.session();
                let reference = (!reference.is_empty()).then_some(reference.as_slice());
                let (pool, stop, params) = (&pool, &stop, &params);
                let offset = r * pool.len() / readers;
                s.spawn(move || read_loop(session, pool, offset, reference, params, stop))
            })
            .collect();
        let writer = ingest.then(|| {
            let (session, server, stop) = (server.session(), &server, &stop);
            s.spawn(move || {
                let out = write_loop(session, server, batches, start, interval, sample_deltas);
                stop.writer_done.store(true, Ordering::SeqCst);
                out
            })
        });
        let reads: Vec<ReaderOut> =
            handles.into_iter().map(|h| h.join().expect("reader thread panicked")).collect();
        let writes = writer.map(|h| h.join().expect("writer thread panicked")).unwrap_or_default();
        (reads, writes)
    });
    server.drain_maintenance();
    let wall_s = start.elapsed().as_secs_f64();
    let peak_heap_bytes = alloc::peak_bytes();
    let report = server.report();

    let mut live = Live {
        setup_s,
        wall_s,
        peak_heap_bytes,
        appends: writes.appends,
        writer_interval_ms: interval.as_secs_f64() * 1e3,
        writer_late_ms_max: writes.late_ms_max,
        max_delta_blocks: writes.max_delta_blocks,
        rows_appended: writes.rows,
        reference,
        ..Live::default()
    };
    let mut done_at = writes.done_at;
    for r in reads {
        live.queries.merge(r.live.queries);
        live.sim_s += r.live.sim_s;
        live.queue_wait.merge(r.live.queue_wait);
        live.checked += r.live.checked;
        live.problems.extend(r.live.problems);
        done_at.extend(r.done_at);
    }
    live.sim_s += report.maintenance_io.simulated_secs(&params);
    live.sim_queries = live.queries.attempted() - live.queries.failures();
    done_at.sort_by_key(|(t, _)| *t);
    live.log = done_at.into_iter().map(|(_, op)| op).collect();
    live.report = Some(report);

    if ingest {
        if live.writer_late_ms_max > live.writer_interval_ms {
            live.problem(format!(
                "invalid run: the writer fell {:.1} ms behind its schedule, more than one \
                 {:.1} ms interval",
                live.writer_late_ms_max, live.writer_interval_ms
            ));
        }
        let scan = Query::Scan(ScanQuery::full("lineitem"));
        let rows = server.run(&scan)?.rows.len();
        let want = setup::lineitem_rows() + live.rows_appended;
        if rows != want {
            live.problem(format!(
                "lineitem holds {rows} rows after the final drain, expected {want} \
                 ({} loaded + {} appended)",
                setup::lineitem_rows(),
                live.rows_appended
            ));
        }
    }
    server.stop();
    Ok(live)
}

fn read_loop(
    mut session: Session,
    pool: &[Query],
    offset: usize,
    reference: Option<&[Fingerprint]>,
    params: &CostParams,
    stop: &StopRule,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut k = offset;
    while !stop.reached() {
        let i = k % pool.len();
        k += 1;
        stop.attempted.fetch_add(1, Ordering::SeqCst);
        let t = Instant::now();
        let res = session.run(&pool[i]);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(r) => {
                out.done_at.push((Instant::now(), Op::Query(i)));
                out.live.queries.ok(ms);
                out.live.sim_s += r.stats.pipelined_simulated_secs(params);
                out.live.queue_wait.ok(r.stats.queue_wait_secs * 1e3);
                let outcome = Outcome { fp: fingerprint(&r.rows), stats: r.stats };
                check(&mut out.live, i, &outcome, reference.map(|f| &f[i]));
            }
            Err(_) => out.live.queries.failed(),
        }
    }
    out
}

/// The open-loop writer: batch `k` is due at `start + k * interval` and
/// is timed from then, so a stall also delays every batch behind it.
fn write_loop(
    mut session: Session,
    server: &DbServer,
    batches: Vec<Vec<Row>>,
    start: Instant,
    interval: Duration,
    sample_deltas: bool,
) -> WriterOut {
    let mut out = WriterOut::default();
    for (k, batch) in batches.into_iter().enumerate() {
        let due = start + interval * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        out.late_ms_max = out.late_ms_max.max(since_ms(due));
        match session.append("lineitem", batch) {
            Ok(n) => {
                out.appends.ok(since_ms(due));
                out.rows += n;
                out.done_at.push((Instant::now(), Op::Append(k)));
            }
            Err(_) => out.appends.failed(),
        }
        if sample_deltas {
            let delta = server.with_engine(|db| db.table("lineitem").map(|t| t.delta().len()));
            out.max_delta_blocks = out.max_delta_blocks.max(delta.unwrap_or(0));
        }
    }
    out
}

fn since_ms(t: Instant) -> f64 {
    Instant::now().saturating_duration_since(t).as_secs_f64() * 1e3
}
