//! Shared execution context.

use adaptdb_dfs::{SimClock, SpanGuard, TraceCtx};
use adaptdb_storage::BlockStore;

/// Shuffle-service knobs threaded through the context so every
/// shuffle phase (baseline joins, multi-way fallbacks) places its
/// reducers node-aware and spills with the configured replication.
#[derive(Debug, Clone, Copy)]
pub struct ShuffleOptions {
    /// Reducer fan-out override; `None` = one reducer per live node.
    pub partitions: Option<usize>,
    /// Replication factor for spilled runs (1 = unreplicated, the
    /// Spark/MapReduce shuffle-file convention).
    pub replication: usize,
    /// Hot-partition split threshold: a partition whose combined row
    /// load exceeds this multiple of the mean is split across extra
    /// reducers during the reduce phase (the inverse of AQE-style
    /// coalescing). `None` disables splitting — every partition runs
    /// on its placed reducer, the pre-skew behavior.
    pub split_threshold: Option<f64>,
}

impl Default for ShuffleOptions {
    fn default() -> Self {
        ShuffleOptions { partitions: None, replication: 1, split_threshold: None }
    }
}

/// Everything an operator needs to run: the block store, the simulated
/// clock collecting I/O accounting, the worker-thread budget, and the
/// shuffle-service knobs.
#[derive(Clone, Copy)]
pub struct ExecContext<'a> {
    /// Block storage (read-only during query execution).
    pub store: &'a BlockStore,
    /// I/O accounting clock.
    pub clock: &'a SimClock,
    /// Number of worker threads operators may use.
    pub threads: usize,
    /// How shuffle phases fan out and replicate their spilled runs.
    pub shuffle: ShuffleOptions,
    /// In-flight depth of block fetches (scans, hyper-join probe legs
    /// and reducer run fetches all go through a `FetchStream` of this
    /// window). `1` = serial I/O, a one-deep stream; block *counts* are
    /// identical at every window, only overlapped latency differs.
    pub fetch_window: usize,
    /// Per-reducer build-side memory budget for hash joins, in blocks.
    /// A build side that would exceed it is spilled to scratch and
    /// recursively repartitioned (Grace-style), falling back to
    /// block-nested-loop at the recursion cap. `None` = unbounded,
    /// which reproduces the pre-budget join bit-identically.
    pub join_mem_budget_blocks: Option<usize>,
    /// Span-tracing handle; `None` (the default) disables tracing and
    /// every operator skips its telemetry calls entirely, keeping all
    /// accounting bit-identical to an untraced run.
    pub trace: Option<TraceCtx<'a>>,
    /// Morsel size in rows for scan/probe gathers: selected row ranges
    /// are split into cache-sized morsels dispatched through
    /// `parallel::map_ordered`, so multi-threaded runs reassemble in
    /// deterministic input order.
    pub morsel_rows: usize,
}

/// Default morsel size in rows (a cache-friendly unit of scan/probe
/// work; blocks bigger than this split into several morsels).
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

impl<'a> ExecContext<'a> {
    /// Context with an explicit thread budget (serial I/O; widen with
    /// [`ExecContext::with_fetch_window`]).
    pub fn new(store: &'a BlockStore, clock: &'a SimClock, threads: usize) -> Self {
        ExecContext {
            store,
            clock,
            threads: threads.max(1),
            shuffle: ShuffleOptions::default(),
            fetch_window: 1,
            join_mem_budget_blocks: None,
            trace: None,
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }

    /// Single-threaded context (deterministic row order; used in tests).
    pub fn single(store: &'a BlockStore, clock: &'a SimClock) -> Self {
        ExecContext::new(store, clock, 1)
    }

    /// Same context with explicit shuffle knobs (builder style).
    pub fn with_shuffle(mut self, shuffle: ShuffleOptions) -> Self {
        self.shuffle = shuffle;
        self
    }

    /// Same context with a pipelined-fetch window (builder style;
    /// clamped to ≥ 1).
    pub fn with_fetch_window(mut self, window: usize) -> Self {
        self.fetch_window = window.max(1);
        self
    }

    /// Same context with a per-reducer build-memory budget in blocks
    /// (builder style). `None` = unbounded; `Some(0)` is clamped to one
    /// block (a build table can never hold less than one).
    pub fn with_join_mem_budget(mut self, budget_blocks: Option<usize>) -> Self {
        self.join_mem_budget_blocks = budget_blocks.map(|b| b.max(1));
        self
    }

    /// Same context with a tracing handle (builder style). `None`
    /// leaves tracing disabled.
    pub fn with_trace(mut self, trace: Option<TraceCtx<'a>>) -> Self {
        self.trace = trace;
        self
    }

    /// Ignored: `ADB2` + column-wise execution is the only data plane;
    /// removed with the next benchmark change. Returns the context
    /// unchanged.
    pub fn with_columnar(self, _on: bool) -> Self {
        self
    }

    /// Same context with an explicit morsel size in rows (builder
    /// style; clamped to ≥ 1).
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    /// Begin a span named `name` under the current trace parent. Returns
    /// a context whose subsequent spans nest under the new span, plus a
    /// guard that ends it (at the clock's then-current timestamp) on
    /// drop. A no-op returning `(self, None)` when tracing is off.
    ///
    /// Spans must only be opened/closed at *barrier points* on the
    /// coordinating thread: the clock's tally-derived timestamps are
    /// deterministic there regardless of how worker threads interleaved
    /// within the phase (see [`ExecContext::worker_trace`]).
    pub fn traced(self, name: &'static str) -> (Self, Option<SpanGuard<'a>>) {
        match self.trace {
            None => (self, None),
            Some(t) => {
                let (child, guard) = t.span(name, self.clock);
                (self.with_trace(Some(child)), Some(guard))
            }
        }
    }

    /// The trace handle worker closures may use: the real handle when
    /// execution is single-threaded (clock readings stay deterministic),
    /// `None` otherwise — parallel workers share one clock, so their
    /// mid-phase readings would vary run to run and break the
    /// byte-reproducibility of traces.
    pub fn worker_trace(&self) -> Option<TraceCtx<'a>> {
        if self.threads <= 1 {
            self.trace
        } else {
            None
        }
    }
}
