//! # adaptdb-server — the concurrent query-serving runtime
//!
//! AdaptDB's premise is a system that keeps answering queries *while*
//! it repartitions under a live workload. The serial
//! [`adaptdb::Database`] interleaves the two on one thread;
//! [`DbServer`] splits them:
//!
//! * **Snapshot reads.** Each table's layout (partition trees + block
//!   manifests) is an immutable [`adaptdb::TableSnapshot`] behind an
//!   `Arc`, published in a map the readers consult. A query pins the
//!   `Arc`s it touches for its whole run, so it always sees one
//!   consistent layout, and an adaptation installing a new layout is a
//!   single pointer swap — readers never block behind a rewrite.
//! * **Cost-aware scheduling.** Admission goes through a pluggable
//!   [`scheduler::Scheduler`] policy ([`adaptdb::SchedPolicy`]:
//!   FIFO, priority lanes, or per-session fair share). Every
//!   submission is classified into a [`Lane`] by a cheap cost estimate
//!   ([`adaptdb::cost::estimate_query`] — tree lookups only), so a
//!   scan storm lands in the batch lane and cannot starve point
//!   queries; deadlines promote waiting work; per-lane wait estimates
//!   drive optional load shedding.
//! * **Worker-pool executor.** A pool of worker threads drains the
//!   scheduler and runs the exact serial read path
//!   ([`adaptdb::readpath`]) against the pinned snapshots. Under
//!   queue pressure the effective prefetch window can shrink
//!   ([`DbConfig::fetch_pace_wait_ms`]) without changing any result.
//! * **Background maintenance.** Executed queries are forwarded to a
//!   maintenance thread that replays the serial engine's window
//!   bookkeeping and adaptation decisions
//!   ([`Database::record_observation`] / [`Database::adapt_now`]) under
//!   an engine mutex, performs block migration off the hot path with
//!   deferred retirement, swaps the new snapshots in, and
//!   garbage-collects retired blocks once every reader pinned to an
//!   older snapshot has drained. The pass is *paced* by the same load
//!   signal the scheduler exposes: on a loaded server it processes one
//!   observation at a time (deferring the rest), and it drains the
//!   whole inbox when the queue is idle. Maintenance I/O is charged to
//!   its own `ClockKind::Maintenance` [`SimClock`], so query-visible
//!   cost figures stay faithful to the paper.
//!
//! ```
//! use adaptdb::{Database, DbConfig};
//! use adaptdb_common::{row, JoinQuery, Query, ScanQuery, Schema, ValueType};
//! use adaptdb_server::DbServer;
//!
//! let mut db = Database::new(DbConfig { rows_per_block: 8, ..DbConfig::small() });
//! let schema = Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]);
//! db.create_table("l", schema.clone(), vec![0, 1]).unwrap();
//! db.create_table("r", schema, vec![0, 1]).unwrap();
//! db.load_rows("l", (0..64i64).map(|i| row![i % 32, i])).unwrap();
//! db.load_rows("r", (0..32i64).map(|i| row![i, i * 2])).unwrap();
//!
//! let server = DbServer::start(db);
//! let q = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0));
//! let mut session = server.session();
//! let res = session.run(&q).unwrap();
//! assert_eq!(res.rows.len(), 64);
//! assert_eq!(session.stats().queries, 1);
//! ```

pub mod maintenance;
pub mod metrics;
pub mod queue;
pub mod scheduler;

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adaptdb::cost::{self, Lane};
use adaptdb::readpath::{self, SnapshotSource};
use adaptdb::{Database, DbConfig, QueryResult, RetireMode, SchedPolicy, TableSnapshot};
use adaptdb_common::{Error, Query, QueryStats, Result, Row};
use adaptdb_dfs::SimClock;
use adaptdb_storage::BlockStore;
use parking_lot::{Mutex, RwLock};

pub use metrics::{LaneReport, ServerReport, SessionStats};

use metrics::Metrics;
use queue::SchedQueue;
use scheduler::JobMeta;

/// DRR quantum (cost blocks granted per rotation) of the fair-share
/// policy when [`ServerOptions::fair_quantum`] is unset.
pub const DEFAULT_FAIR_QUANTUM: f64 = 8.0;

/// One submitted query plus the channel its result travels back on.
/// Scheduling metadata (lane, session, cost, deadline, submit time)
/// rides separately in [`JobMeta`].
struct Job {
    query: Query,
    reply: mpsc::Sender<Result<QueryResult>>,
}

/// Everything the worker pool, the maintenance loop, and the sessions
/// share.
pub(crate) struct Shared {
    config: DbConfig,
    store: Arc<BlockStore>,
    /// The serial engine: windows, samples, adaptation decisions. Only
    /// the maintenance thread (and test inspection) locks it — readers
    /// never touch it.
    engine: Mutex<Database>,
    /// The snapshots readers pin. Swapped atomically per table by
    /// maintenance; the lock is held only for map lookup/replace.
    published: RwLock<BTreeMap<String, Arc<TableSnapshot>>>,
    /// Executed queries awaiting window bookkeeping + adaptation.
    inbox: StdMutex<Vec<Query>>,
    inbox_signal: Condvar,
    queue: SchedQueue<Job>,
    /// The FIFO bound, or per-lane bound under lane-aware policies.
    queue_capacity: usize,
    metrics: Metrics,
    /// Executor pool width (the divisor of the admission wait estimate).
    workers: usize,
    /// Latency-aware admission bound; see
    /// [`ServerOptions::max_queue_wait_ms`].
    max_queue_wait_ms: Option<f64>,
    /// Session-id allocator (0 is reserved for [`DbServer::run`]).
    next_session: AtomicU64,
    /// Maintenance-attributed I/O clock (`ClockKind::Maintenance`).
    maint_clock: SimClock,
    maintenance_passes: AtomicU64,
    obs_submitted: AtomicU64,
    obs_processed: AtomicU64,
    /// Observations left in the inbox by pacing (gauge).
    maint_backlog: AtomicU64,
    /// Passes in which pacing deferred part of the inbox.
    maint_deferrals: AtomicU64,
    /// Maintenance steps (observation, adaptation, GC delete) that
    /// failed; see [`Shared::note_maintenance_error`].
    maint_errors: AtomicU64,
    /// Grace entries (retired-block batches) still awaiting reader
    /// drain — a gauge the maintenance loop refreshes every pass.
    pending_gc: AtomicU64,
    /// Snapshots displaced by the ingest path ([`DbServer::append`]
    /// swaps published layouts itself, off the maintenance thread).
    /// The next maintenance pass folds them into its grace entry, so
    /// blocks a tail merge retired stay readable until every query
    /// pinned to a pre-append snapshot drains.
    append_guards: Mutex<Vec<Arc<TableSnapshot>>>,
    /// JSON-lines journal of maintenance/adaptation decisions
    /// (adaptation passes, snapshot swaps, GC batches, pacing
    /// deferrals). Only written when [`DbConfig::trace`] is on.
    journal: adaptdb_common::Journal,
    shutdown: AtomicBool,
}

impl Shared {
    fn push_observation(&self, query: Query) {
        self.obs_submitted.fetch_add(1, Ordering::SeqCst);
        self.inbox.lock().unwrap().push(query);
        self.inbox_signal.notify_one();
    }

    /// Estimated queue wait for a new submission into `lane`, under the
    /// active policy's ordering (milliseconds).
    pub(crate) fn est_wait_ms(&self, lane: Lane) -> f64 {
        self.metrics.est_wait_ms(self.queue.depths_ahead(lane), self.workers)
    }

    /// The maintenance pacer's load signal: true while any query is
    /// waiting for admission or the interactive wait estimate exceeds
    /// `DbConfig::maint_pace_wait_ms`. Loaded means "defer background
    /// work"; idle means "catch up".
    pub(crate) fn is_loaded(&self) -> bool {
        !self.queue.is_empty()
            || self.est_wait_ms(Lane::Interactive) > self.config.maint_pace_wait_ms
    }

    /// Drain up to `quota` pending observations, waiting (at most once)
    /// while there are none. `None` blocks until a notify or shutdown —
    /// an idle server burns no CPU; `Some(t)` also returns after `t`,
    /// used while retired blocks await garbage collection or pacing
    /// left a backlog, so both retry even without traffic. Any wakeup
    /// returns (possibly empty): the maintenance loop counts a pass per
    /// wakeup, which is what `DbServer::drain_maintenance`'s
    /// notify-handshake relies on. Observations beyond the quota stay
    /// queued and are counted on the backlog/deferral gauges.
    pub(crate) fn wait_for_observations(
        &self,
        timeout: Option<std::time::Duration>,
        quota: usize,
    ) -> Vec<Query> {
        let mut inbox = self.inbox.lock().unwrap();
        if inbox.is_empty() && !self.is_shutdown() {
            inbox = match timeout {
                Some(t) => self.inbox_signal.wait_timeout(inbox, t).unwrap().0,
                None => self.inbox_signal.wait(inbox).unwrap(),
            };
        }
        let taken = if inbox.len() <= quota {
            std::mem::take(&mut *inbox)
        } else {
            self.maint_deferrals.fetch_add(1, Ordering::SeqCst);
            if let Some(j) = self.journal() {
                j.event(
                    self.journal_ts_us(),
                    "maintenance-deferral",
                    vec![
                        ("taken".into(), adaptdb_common::AttrValue::Int(quota as i64)),
                        (
                            "deferred".into(),
                            adaptdb_common::AttrValue::Int((inbox.len() - quota) as i64),
                        ),
                    ],
                );
            }
            inbox.drain(..quota).collect()
        };
        self.maint_backlog.store(inbox.len() as u64, Ordering::SeqCst);
        taken
    }

    /// Observations currently deferred by pacing (gauge).
    pub(crate) fn maintenance_backlog(&self) -> usize {
        self.maint_backlog.load(Ordering::SeqCst) as usize
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn engine(&self) -> &Mutex<Database> {
        &self.engine
    }

    pub(crate) fn published(&self) -> &RwLock<BTreeMap<String, Arc<TableSnapshot>>> {
        &self.published
    }

    pub(crate) fn store(&self) -> &Arc<BlockStore> {
        &self.store
    }

    pub(crate) fn maint_clock(&self) -> &SimClock {
        &self.maint_clock
    }

    /// The maintenance journal, or `None` while tracing is off (so the
    /// hot paths skip formatting entirely).
    pub(crate) fn journal(&self) -> Option<&adaptdb_common::Journal> {
        self.config.trace.then_some(&self.journal)
    }

    /// Journal timestamp: the maintenance clock's simulated time, µs.
    pub(crate) fn journal_ts_us(&self) -> u64 {
        adaptdb_dfs::secs_to_us(self.maint_clock.simulated_secs(&self.config.cost))
    }

    /// Drain the snapshots displaced by appends since the last pass
    /// (maintenance folds them into its grace entry).
    pub(crate) fn take_append_guards(&self) -> Vec<Arc<TableSnapshot>> {
        std::mem::take(&mut self.append_guards.lock())
    }

    /// Count a failed maintenance step and journal it as a
    /// `maintenance-error` event carrying the error text. The pass
    /// carries on with the next observation or block.
    pub(crate) fn note_maintenance_error(&self, step: &str, err: &adaptdb_common::Error) {
        self.maint_errors.fetch_add(1, Ordering::SeqCst);
        if let Some(j) = self.journal() {
            j.event(
                self.journal_ts_us(),
                "maintenance-error",
                vec![
                    ("step".into(), adaptdb_common::AttrValue::Str(step.to_string())),
                    ("error".into(), adaptdb_common::AttrValue::Str(err.to_string())),
                ],
            );
        }
    }

    pub(crate) fn note_pass(&self, processed: usize, pending_gc: usize) {
        self.obs_processed.fetch_add(processed as u64, Ordering::SeqCst);
        self.pending_gc.store(pending_gc as u64, Ordering::SeqCst);
        self.maintenance_passes.fetch_add(1, Ordering::SeqCst);
    }
}

/// The effective prefetch depth under queue pressure: the configured
/// window until the estimated queue wait crosses `threshold_ms`, then
/// one halving per threshold multiple, floor 1 (serial fetching). A
/// non-positive threshold disables pacing. Never changes block counts
/// or results — only how much read latency a loaded server still tries
/// to overlap.
pub fn paced_fetch_window(configured: usize, est_wait_ms: f64, threshold_ms: f64) -> usize {
    let full = configured.max(1);
    if threshold_ms <= 0.0 || est_wait_ms <= threshold_ms {
        return full;
    }
    let levels = (est_wait_ms / threshold_ms) as u32;
    (full >> levels.min(31)).max(1)
}

/// The per-query reader view: resolves snapshots from the published map
/// and pins each table's `Arc` for the duration of the query, so one
/// query never sees two generations of the same table. Owns its config
/// so per-query overrides (the paced fetch window) never touch the
/// server-wide settings.
struct QueryView<'a> {
    shared: &'a Shared,
    config: DbConfig,
    pinned: RefCell<BTreeMap<String, Arc<TableSnapshot>>>,
}

impl<'a> QueryView<'a> {
    fn new(shared: &'a Shared) -> Self {
        QueryView { shared, config: shared.config.clone(), pinned: RefCell::new(BTreeMap::new()) }
    }

    fn with_fetch_window(shared: &'a Shared, fetch_window: usize) -> Self {
        let mut view = QueryView::new(shared);
        view.config.fetch_window = fetch_window;
        view
    }
}

impl SnapshotSource for QueryView<'_> {
    fn config(&self) -> &DbConfig {
        &self.config
    }

    fn store(&self) -> &BlockStore {
        &self.shared.store
    }

    fn snapshot(&self, table: &str) -> Result<Arc<TableSnapshot>> {
        if let Some(s) = self.pinned.borrow().get(table) {
            return Ok(Arc::clone(s));
        }
        let snap = readpath::require_snapshot(&self.shared.published.read(), table)?;
        self.pinned.borrow_mut().insert(table.to_string(), Arc::clone(&snap));
        Ok(snap)
    }
}

/// Options for [`DbServer::start_with`].
#[derive(Debug, Clone, Default)]
pub struct ServerOptions {
    /// Executor worker threads. Defaults to the engine's
    /// `DbConfig::threads` (which honors `ADAPTDB_THREADS`).
    pub workers: Option<usize>,
    /// Admission-queue capacity: the FIFO bound, or the *per-lane*
    /// bound under lane-aware policies (so a batch storm backpressures
    /// batch producers only). Defaults to `4 × workers`.
    pub queue_capacity: Option<usize>,
    /// Admission-scheduling policy. Defaults to the engine's
    /// `DbConfig::sched` (which honors `ADAPTDB_SCHED`).
    pub sched: Option<SchedPolicy>,
    /// DRR quantum for [`SchedPolicy::Fair`], in cost-block units.
    /// Defaults to [`DEFAULT_FAIR_QUANTUM`].
    pub fair_quantum: Option<f64>,
    /// Latency-aware admission bound: reject a submission up front
    /// (with an error, instead of blocking) when the estimated queue
    /// wait *for its lane* — jobs scheduled ahead of it × their lanes'
    /// observed mean service time ÷ workers — exceeds this many
    /// milliseconds. `None` (the default) keeps pure blocking
    /// backpressure. Queries already admitted always run.
    pub max_queue_wait_ms: Option<f64>,
}

/// Per-submission scheduling options for [`Session::run_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Admission lane override. `None` classifies by the cheap cost
    /// estimate (`batch_cost_blocks` threshold); explicitly tagging
    /// [`Lane::Maintenance`] is the only way into that lane.
    pub lane: Option<Lane>,
    /// Latency deadline. Lane-aware policies promote the query ahead
    /// of lane order once half the deadline has elapsed in the queue.
    pub deadline: Option<Duration>,
    /// Session scheduling weight under [`SchedPolicy::Fair`]: scales
    /// the session's per-rotation DRR credit, so a weight-4 session is
    /// granted 4× the cost-blocks per rotation of a weight-1 peer in
    /// the same lane (clamped to [0.1, 16]; `None` = 1.0). Ignored by
    /// FIFO and plain lane policies.
    pub weight: Option<f64>,
}

/// A concurrent query server over a loaded [`Database`].
///
/// Construction takes ownership of the engine (load tables first);
/// [`DbServer::stop`] — also run on drop — shuts the pool down
/// gracefully and force-collects any remaining retired blocks.
pub struct DbServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    maintenance: Option<JoinHandle<()>>,
    worker_count: usize,
}

impl DbServer {
    /// Start serving with default options.
    pub fn start(db: Database) -> Self {
        DbServer::start_with(db, ServerOptions::default())
    }

    /// Start serving. Spawns the worker pool and the maintenance thread.
    pub fn start_with(mut db: Database, opts: ServerOptions) -> Self {
        // The server's invariant: a reader pinned to an old snapshot
        // must be able to finish, so migrated blocks are deleted only
        // after that snapshot drains.
        db.set_retire_mode(RetireMode::Deferred);
        let config = db.config().clone();
        let worker_count = opts.workers.unwrap_or(config.threads).max(1);
        let capacity = opts.queue_capacity.unwrap_or(worker_count * 4).max(1);
        let policy = opts.sched.unwrap_or(config.sched);
        let quantum = opts.fair_quantum.unwrap_or(DEFAULT_FAIR_QUANTUM);
        let published: BTreeMap<String, Arc<TableSnapshot>> = db
            .table_names()
            .into_iter()
            .map(|name| {
                let snap = db.table(&name).expect("listed table exists").snapshot_arc();
                (name, snap)
            })
            .collect();
        let shared = Arc::new(Shared {
            store: db.store_arc(),
            config,
            engine: Mutex::new(db),
            published: RwLock::new(published),
            inbox: StdMutex::new(Vec::new()),
            inbox_signal: Condvar::new(),
            queue: SchedQueue::new(scheduler::build(policy, capacity, quantum)),
            queue_capacity: capacity,
            metrics: Metrics::new(),
            workers: worker_count,
            max_queue_wait_ms: opts.max_queue_wait_ms,
            next_session: AtomicU64::new(1),
            maint_clock: SimClock::maintenance(),
            maintenance_passes: AtomicU64::new(0),
            obs_submitted: AtomicU64::new(0),
            obs_processed: AtomicU64::new(0),
            maint_backlog: AtomicU64::new(0),
            maint_deferrals: AtomicU64::new(0),
            maint_errors: AtomicU64::new(0),
            pending_gc: AtomicU64::new(0),
            append_guards: Mutex::new(Vec::new()),
            journal: adaptdb_common::Journal::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("adaptdb-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let maintenance = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("adaptdb-maintenance".into())
                .spawn(move || maintenance::run_loop(&shared))
                .expect("spawn maintenance")
        };
        DbServer { shared, workers, maintenance: Some(maintenance), worker_count }
    }

    /// Open a client session. Sessions are cheap; give each client
    /// thread its own. Each session is a distinct fairness principal
    /// under [`SchedPolicy::Fair`].
    pub fn session(&self) -> Session {
        Session {
            shared: Arc::clone(&self.shared),
            id: self.shared.next_session.fetch_add(1, Ordering::Relaxed),
            stats: SessionStats::default(),
        }
    }

    /// One-off query without session bookkeeping (fairness session 0).
    pub fn run(&self, query: &Query) -> Result<QueryResult> {
        submit(&self.shared, 0, query, SubmitOptions::default()).0
    }

    /// Append rows to a served table — the ingest write path. Rows
    /// land in delta blocks outside any partitioning tree and are
    /// visible to every query admitted after this returns; a query
    /// already pinned to the previous snapshot never sees them
    /// (snapshot isolation per admission). Maintenance folds
    /// accumulated deltas into the partition tree once the table
    /// crosses [`DbConfig::ingest_fold_blocks`]. On a durable engine
    /// ([`Database::open_durable`]) the append has been committed to
    /// the manifest journal before this returns.
    pub fn append(&self, table: &str, rows: Vec<Row>) -> Result<usize> {
        append_rows(&self.shared, table, rows)
    }

    /// Server-level throughput/latency report, including the live
    /// per-lane depth/wait gauges, ingest counters, and per-session
    /// fairness stats.
    pub fn report(&self) -> ServerReport {
        let lane_depths = self.shared.queue.lane_depths();
        let lane_waits_ms = [
            self.shared.est_wait_ms(Lane::Interactive),
            self.shared.est_wait_ms(Lane::Batch),
            self.shared.est_wait_ms(Lane::Maintenance),
        ];
        // Ingest counters live on the engine; the lock is taken and
        // released before any other lock (same order as maintenance).
        let (ingest, delta_blocks) = {
            let engine = self.shared.engine.lock();
            let delta = engine
                .table_names()
                .iter()
                .map(|n| engine.table(n).map(|t| t.delta().len()).unwrap_or(0))
                .sum();
            (engine.ingest_stats(), delta)
        };
        self.shared.metrics.report(
            self.shared.queue.policy_name(),
            self.worker_count,
            self.shared.queue_capacity,
            lane_depths,
            lane_waits_ms,
            self.shared.maint_clock.snapshot(),
            self.shared.maintenance_passes.load(Ordering::SeqCst),
            self.shared.maint_backlog.load(Ordering::SeqCst) as usize,
            self.shared.maint_deferrals.load(Ordering::SeqCst),
            self.shared.maint_errors.load(Ordering::SeqCst),
            ingest,
            delta_blocks,
            self.shared.store.cache().map(|c| c.report()),
        )
    }

    /// JSON-lines journal of maintenance/adaptation decisions —
    /// adaptation passes (with their maintenance-clock I/O deltas and
    /// retired-block counts), snapshot swaps per table, GC batches, and
    /// pacing deferrals. Empty unless [`DbConfig::trace`] is on.
    /// Timestamps are the maintenance clock's simulated microseconds.
    pub fn journal_jsonl(&self) -> String {
        self.shared.journal.to_jsonl()
    }

    /// The journal's events as structured values (see
    /// [`DbServer::journal_jsonl`]).
    pub fn journal_events(&self) -> Vec<adaptdb_common::JournalEvent> {
        self.shared.journal.snapshot()
    }

    /// Block until every observation submitted so far has been through
    /// window bookkeeping + adaptation, and every retired-block batch
    /// has been garbage-collected (i.e. all readers pinned to displaced
    /// snapshots drained). Call only after in-flight queries you care
    /// about returned. Test hook — production callers never need to
    /// wait on maintenance.
    pub fn drain_maintenance(&self) {
        if self.maintenance.is_none() {
            // Already stopped: the final pass ran and force-collected.
            return;
        }
        let target = self.shared.obs_submitted.load(Ordering::SeqCst);
        while self.shared.obs_processed.load(Ordering::SeqCst) < target {
            self.shared.inbox_signal.notify_one();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // One further pass refreshes the gauge after the last batch…
        let pass_target = self.shared.maintenance_passes.load(Ordering::SeqCst) + 2;
        while self.shared.maintenance_passes.load(Ordering::SeqCst) < pass_target {
            self.shared.inbox_signal.notify_one();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // …then wait for the grace list to empty (readers drain and GC
        // retries on its own timer while entries remain).
        while self.shared.pending_gc.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Inspect (or mutate) the underlying engine under the maintenance
    /// mutex — catalog state, windows, convergence checks in tests.
    /// Tables the closure *creates* (and loads) are published to
    /// readers before this returns; mutating already-served tables is
    /// not supported mid-serving (maintenance owns their lifecycle).
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut engine = self.shared.engine.lock();
        let out = f(&mut engine);
        let mut published = self.shared.published.write();
        for name in engine.table_names() {
            if let std::collections::btree_map::Entry::Vacant(slot) = published.entry(name) {
                let snap = engine.table(slot.key()).expect("listed table exists").snapshot_arc();
                slot.insert(snap);
            }
        }
        out
    }

    /// Graceful shutdown: stop admitting, drain the queue, join the
    /// workers, run a final maintenance pass, and force-collect retired
    /// blocks (no readers remain once the pool is joined). Idempotent.
    pub fn stop(&mut self) {
        if self.workers.is_empty() && self.maintenance.is_none() {
            return;
        }
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Take and release the inbox lock between setting the flag and
        // notifying: a maintenance thread between its shutdown check and
        // its wait would otherwise miss the wakeup forever.
        drop(self.shared.inbox.lock().unwrap());
        self.shared.inbox_signal.notify_all();
        if let Some(m) = self.maintenance.take() {
            let _ = m.join();
        }
    }
}

impl Drop for DbServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A client handle: submits queries and accumulates per-session stats.
/// Under [`SchedPolicy::Fair`] each session is one fairness principal
/// of the deficit round-robin.
pub struct Session {
    shared: Arc<Shared>,
    id: u64,
    stats: SessionStats,
}

impl Session {
    /// Run one query through the server, blocking for the result (and
    /// for admission while the query's lane is full — that is the
    /// server's backpressure). The lane comes from cost
    /// classification; use [`Session::run_with`] to override it or to
    /// attach a deadline.
    pub fn run(&mut self, query: &Query) -> Result<QueryResult> {
        self.run_with(query, SubmitOptions::default())
    }

    /// Run one query with explicit scheduling options.
    pub fn run_with(&mut self, query: &Query, opts: SubmitOptions) -> Result<QueryResult> {
        let (res, lane) = submit(&self.shared, self.id, query, opts);
        match &res {
            Ok(r) => self.stats.record_ok(lane, r.rows.len(), &r.stats),
            Err(_) => self.stats.record_err(),
        }
        res
    }

    /// Append rows to a served table through this session — see
    /// [`DbServer::append`] for the visibility and durability contract.
    pub fn append(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        append_rows(&self.shared, table, rows)
    }

    /// This session's fairness-principal id (stable for its lifetime).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// What this session's queries did so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }
}

/// The shared ingest write path: run the engine's append under the
/// maintenance mutex, then publish the table's new snapshot with the
/// same lock discipline as `maintenance::adapt_and_publish` (engine
/// lock held across the published-map write, so snapshot swaps are
/// totally ordered). The displaced snapshot is parked on
/// `Shared::append_guards` so a tail block retired by the merge is not
/// garbage-collected while a pre-append reader still pins it.
fn append_rows(shared: &Shared, table: &str, rows: Vec<Row>) -> Result<usize> {
    let engine = &mut *shared.engine.lock();
    let n = engine.append_rows_with(table, rows, shared.maint_clock())?;
    let ts = engine.table(table)?;
    let delta_blocks = ts.delta().len();
    let fresh = ts.snapshot_arc();
    {
        let mut published = shared.published.write();
        match published.get_mut(table) {
            Some(slot) if !Arc::ptr_eq(slot, &fresh) => {
                let displaced = std::mem::replace(slot, fresh);
                shared.append_guards.lock().push(displaced);
            }
            Some(_) => {}
            None => {
                published.insert(table.to_string(), fresh);
            }
        }
    }
    if let Some(j) = shared.journal() {
        j.event(
            shared.journal_ts_us(),
            "append",
            vec![
                ("table".into(), adaptdb_common::AttrValue::Str(table.to_string())),
                ("rows".into(), adaptdb_common::AttrValue::Int(n as i64)),
                ("delta_blocks".into(), adaptdb_common::AttrValue::Int(delta_blocks as i64)),
            ],
        );
    }
    Ok(n)
}

/// Classify, admission-check, enqueue, and await one query. Returns the
/// result and the lane the query was admitted into.
fn submit(
    shared: &Arc<Shared>,
    session: u64,
    query: &Query,
    opts: SubmitOptions,
) -> (Result<QueryResult>, Lane) {
    // The cheap cost estimate (tree lookups only): the classification
    // and fair-share weighting signal. An estimation error (e.g.
    // unknown table) is not surfaced here — the query is admitted
    // interactive and the executor reports the real error.
    let est = cost::estimate_query(&QueryView::new(shared), query).unwrap_or_default();
    let lane = opts.lane.unwrap_or_else(|| est.lane(&shared.config));
    // Seed the cold-start queue-wait prior: before any query finishes,
    // the admission estimate is the only service-time signal available.
    shared.metrics.note_estimate(est.est_secs(&shared.config.cost));
    // Latency-aware admission: when a wait bound is configured, shed
    // load up front instead of blocking. The estimate is per lane —
    // only work scheduled *ahead* of this submission counts, priced at
    // its own lanes' observed service times, so a drained batch lane
    // never masks interactive backlog and a deep batch lane never
    // sheds healthy interactive load.
    if let Some(bound_ms) = shared.max_queue_wait_ms {
        let est_ms = shared.est_wait_ms(lane);
        if est_ms > bound_ms {
            shared.metrics.note_shed(lane);
            return (
                Err(Error::Plan(format!(
                    "admission rejected: estimated {lane}-lane queue wait {est_ms:.1} ms \
                     exceeds bound {bound_ms:.1} ms"
                ))),
                lane,
            );
        }
    }
    let meta = match opts.weight {
        Some(w) => JobMeta::new(session, lane, est.blocks, opts.deadline).with_weight(w),
        None => JobMeta::new(session, lane, est.blocks, opts.deadline),
    };
    let (reply, rx) = mpsc::channel();
    if shared.queue.push(Job { query: query.clone(), reply }, meta).is_err() {
        return (Err(Error::Plan("server is shut down".into())), lane);
    }
    let res = match rx.recv() {
        Ok(r) => r,
        Err(_) => Err(Error::Plan("server worker dropped the query".into())),
    };
    (res, lane)
}

/// The error a contained query panic is reported as, carrying the
/// panic message when it is a string.
fn panic_error(payload: &(dyn Any + Send)) -> Error {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    Error::Plan(format!("query panicked: {msg}"))
}

fn worker_loop(shared: &Shared) {
    while let Some((Job { query, reply }, meta)) = shared.queue.pop() {
        shared.metrics.begin();
        let picked_up = Instant::now();
        let queue_wait = picked_up.duration_since(meta.submitted);
        // Adaptive prefetch pacing: under queue pressure, deep prefetch
        // only amplifies delay — shrink the effective window for this
        // query (results and block counts are invariant to it).
        let fetch_window = match shared.config.fetch_pace_wait_ms {
            Some(threshold_ms) => paced_fetch_window(
                shared.config.fetch_window,
                shared.est_wait_ms(meta.lane),
                threshold_ms,
            ),
            None => shared.config.fetch_window,
        };
        let unaccounted_before = shared.store.unaccounted_reads();
        let clock = SimClock::new();
        let view = QueryView::with_fetch_window(shared, fetch_window);
        // Per-query span tree when tracing is on. The simulated clock
        // starts at zero per query; admission wait is wall time, not
        // simulated, so it rides as a zero-duration span attribute.
        let params = shared.config.cost.clone();
        let tracer = shared.config.trace.then(adaptdb_common::Tracer::new);
        let root = tracer.as_ref().map(|t| {
            let root = t.start("query", None, 0);
            let w = t.start("admission-wait", Some(root), 0);
            t.attr_f(w, "wall_ms", queue_wait.as_secs_f64() * 1e3);
            t.attr_s(w, "lane", meta.lane.name());
            if meta.promoted {
                t.attr_i(w, "promoted", 1);
            }
            t.end(w, 0);
            root
        });
        let trace_ctx = tracer.as_ref().zip(root).map(|(t, root)| adaptdb_dfs::TraceCtx {
            tracer: t,
            params: &params,
            parent: root,
            base_us: 0,
        });
        // A panicking query must not take the worker down with it: the
        // panic becomes this query's error, and the pool keeps its
        // thread and its in-flight gauge stays balanced.
        let executed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            readpath::execute_query_traced(&view, &query, &clock, trace_ctx)
        }))
        .unwrap_or_else(|payload| Err(panic_error(payload.as_ref())));
        let result = executed.map(|(rows, strategy, c_hyj)| {
            let mut stats = QueryStats::empty(strategy);
            stats.query_io = clock.snapshot();
            stats.shuffle = clock.shuffle_snapshot();
            stats.overlap = clock.overlap_snapshot();
            stats.cache = clock.cache_snapshot();
            stats.estimated_c_hyj = c_hyj;
            // Submit-to-finish, so admission wait shows up under load.
            stats.wall_secs = meta.submitted.elapsed().as_secs_f64();
            stats.queue_wait_secs = queue_wait.as_secs_f64();
            let trace = tracer.map(|t| {
                let root = root.expect("root exists when tracing");
                t.attr_s(root, "strategy", &format!("{strategy:?}"));
                t.attr_i(root, "rows", rows.len() as i64);
                t.attr_i(root, "blocks_read", stats.query_io.reads() as i64);
                if stats.cache.lookups() > 0 {
                    t.attr_i(root, "cache_hits", stats.cache.hits() as i64);
                    t.attr_i(root, "cache_misses", stats.cache.misses as i64);
                }
                t.end(root, adaptdb_dfs::secs_to_us(stats.query_io.simulated_secs(&params)));
                Arc::new(t.finish())
            });
            QueryResult { rows, stats, trace }
        });
        debug_assert_eq!(
            shared.store.unaccounted_reads(),
            unaccounted_before,
            "a server read path skipped clock accounting"
        );
        let ok = result.is_ok();
        if let Ok(r) = &result {
            shared.metrics.note_shuffle(&r.stats.shuffle);
            // Feed the window/adaptation machinery off the hot path;
            // the query is owned here, so no clone on the serving path.
            shared.push_observation(query);
        }
        shared.metrics.record(
            meta.lane,
            meta.session,
            meta.cost_blocks,
            meta.promoted,
            meta.submitted.elapsed(),
            picked_up.elapsed(),
            ok,
        );
        // A client that gave up waiting is not an error.
        let _ = reply.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, JoinQuery, ScanQuery, Schema, ValueType};

    #[test]
    fn panicking_query_is_contained_and_the_worker_survives() {
        let mut db = Database::new(DbConfig { rows_per_block: 8, threads: 1, ..DbConfig::small() });
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]);
        db.create_table("l", schema.clone(), vec![0, 1]).unwrap();
        db.create_table("r", schema, vec![0, 1]).unwrap();
        db.load_rows("l", (0..32i64).map(|i| row![i, i])).unwrap();
        db.load_rows("r", (0..32i64).map(|i| row![i, i * 2])).unwrap();
        let server =
            DbServer::start_with(db, ServerOptions { workers: Some(1), ..Default::default() });
        // Publish a layout whose schema claims a column the stored
        // blocks lack: the query passes validation, then planning a
        // join on that column indexes past the block metadata and
        // panics inside the lone worker.
        {
            let mut published = server.shared.published.write();
            let mut ghost = (*published["l"]).clone();
            ghost.schema = Schema::from_pairs(&[
                ("k", ValueType::Int),
                ("x", ValueType::Int),
                ("ghost", ValueType::Int),
            ]);
            published.insert("l".into(), Arc::new(ghost));
        }
        let q = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 2, 0));
        let err = server.run(&q).unwrap_err();
        assert!(err.to_string().contains("query panicked"), "{err}");
        // The worker is still serving, and the failure is on the books.
        assert_eq!(server.run(&Query::Scan(ScanQuery::full("r"))).unwrap().rows.len(), 32);
        let report = server.report();
        assert_eq!((report.queries, report.errors, report.in_flight), (2, 1, 0));
    }

    #[test]
    fn paced_window_shrinks_with_pressure() {
        // Under the threshold (or unpaced): full window.
        assert_eq!(paced_fetch_window(8, 0.0, 5.0), 8);
        assert_eq!(paced_fetch_window(8, 5.0, 5.0), 8);
        assert_eq!(paced_fetch_window(8, 100.0, 0.0), 8, "non-positive threshold disables");
        // One halving per threshold multiple, floor 1.
        assert_eq!(paced_fetch_window(8, 7.0, 5.0), 4);
        assert_eq!(paced_fetch_window(8, 11.0, 5.0), 2);
        assert_eq!(paced_fetch_window(8, 16.0, 5.0), 1);
        assert_eq!(paced_fetch_window(8, 1e9, 5.0), 1, "saturates at serial");
        assert_eq!(paced_fetch_window(1, 100.0, 5.0), 1, "serial stays serial");
        // Monotone in pressure.
        let mut last = usize::MAX;
        for est in [0.0, 6.0, 12.0, 20.0, 40.0, 80.0] {
            let w = paced_fetch_window(16, est, 5.0);
            assert!(w <= last, "window must not grow with pressure");
            last = w;
        }
    }
}
