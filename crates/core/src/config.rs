//! Database configuration.

use adaptdb_common::CostParams;

/// Which system variant runs — AdaptDB proper or one of the paper's
/// baselines (Figs. 12, 13, 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full AdaptDB: smooth repartitioning toward join attributes,
    /// Amoeba-style selection adaptation, cost-based hyper-join.
    Adaptive,
    /// "Full Scan" baseline: partitioning trees are ignored for pruning
    /// and every join is a shuffle join over all blocks.
    FullScan,
    /// "Repartitioning" baseline: no smooth migration — when half the
    /// query window uses a new join attribute, the whole table is
    /// repartitioned at once (the latency spikes of Figs. 13/18).
    FullRepartition,
    /// Amoeba baseline: selection-predicate adaptation only, shuffle
    /// joins always (its trees carry no join attribute).
    Amoeba,
    /// Static partitioning as loaded (hand-tuned / "best guess"
    /// baselines); the planner still chooses hyper vs shuffle by cost.
    Fixed,
}

/// Admission-scheduling policy of the serving runtime — which
/// `Scheduler` implementation `crates/server` feeds the worker pool
/// through. Selectable per server via `ServerOptions::sched`, per
/// process via the `ADAPTDB_SCHED` environment variable
/// (`fifo` | `lanes` | `fair`), defaulting to FIFO (the pre-scheduler
/// behavior).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// One FIFO queue, no lanes: every admitted query runs in arrival
    /// order. The original bounded-queue behavior.
    #[default]
    Fifo,
    /// Priority lanes (interactive > batch > maintenance) with
    /// cost-based classification, per-lane capacity, and deadline
    /// promotion.
    Lanes,
    /// The same lane priority, with deficit-weighted round-robin
    /// across sessions (fair share) inside each lane.
    Fair,
}

impl SchedPolicy {
    /// Parse the `ADAPTDB_SCHED` spelling: `fifo`, `lanes`, `fair`
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fifo" => Some(SchedPolicy::Fifo),
            "lanes" => Some(SchedPolicy::Lanes),
            "fair" => Some(SchedPolicy::Fair),
            _ => None,
        }
    }

    /// Stable lower-case name (`"fifo"`, `"lanes"`, `"fair"`).
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Lanes => "lanes",
            SchedPolicy::Fair => "fair",
        }
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs for a [`crate::Database`].
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Simulated cluster size (paper: 10 machines).
    pub nodes: usize,
    /// DFS replication factor (HDFS default: 3).
    pub replication: usize,
    /// Block-size budget expressed in rows (the paper's `B` bytes; all
    /// rows of a table are near-constant size, so rows are the unit).
    pub rows_per_block: usize,
    /// Query-window length `|W|` (paper default: 10, §7.1).
    pub window_size: usize,
    /// Hyper-join memory budget in blocks per worker (Fig. 14 sweeps
    /// this; paper lands on 4 GB ≈ tens of blocks).
    pub buffer_blocks: usize,
    /// Fraction of tree levels reserved for the join attribute in
    /// two-phase trees (paper default: half, §7.1).
    pub join_levels_fraction: f64,
    /// Minimum number of window queries with a new join attribute before
    /// a tree is created for it (`f_min`, §5.2).
    pub min_join_frequency: usize,
    /// Enable Amoeba-style selection-predicate adaptation.
    pub adapt_selections: bool,
    /// Shuffle-service reducer fan-out (`None` = one reducer per
    /// cluster node, the Spark default of "as many reducers as cores").
    pub shuffle_partitions: Option<usize>,
    /// Replication factor for spilled shuffle runs. 1 (the default)
    /// matches Spark/MapReduce shuffle files: transient runs are not
    /// worth the HDFS factor, and the occasional remote fetch is
    /// exactly what `C_SJ = 3` prices in. Raising it trades spill
    /// bandwidth for fetch locality (see `fig_shuffle`).
    pub shuffle_replication: usize,
    /// Hot-partition split threshold for shuffle joins: a reduce
    /// partition whose combined row load exceeds this multiple of the
    /// mean partition load (and is at least two blocks of rows) is
    /// split across extra reducers — the skew inverse of AQE-style
    /// coalescing. `None` disables splitting. The default (4×) leaves
    /// uniform workloads untouched.
    pub shuffle_split_threshold: Option<f64>,
    /// Per-reducer build-side memory budget for shuffle joins, in
    /// blocks: a reducer whose build hash table would exceed it spills
    /// the overflow to scratch and recursively repartitions it
    /// (Grace-style), falling back to block-nested-loop at the
    /// recursion cap. `None` (the default) is unbounded — the
    /// pre-budget join, bit-identical block counts. Defaults honor the
    /// `ADAPTDB_JOIN_MEM` environment variable; see
    /// [`DbConfig::env_join_mem`].
    pub join_mem_budget_blocks: Option<usize>,
    /// In-flight depth of the pipelined fetch backend: scans prefetch
    /// the manifest and reducers prefetch shuffle runs with up to this
    /// many block reads outstanding, charged max-of-window latency on
    /// the overlap breakdown. `1` disables pipelining (serial I/O —
    /// identical accounting to the pre-pipelining engine); block
    /// *counts* are the same at every setting. Defaults honor the
    /// `ADAPTDB_FETCH_WINDOW` environment variable; see
    /// [`DbConfig::env_fetch_window`].
    pub fetch_window: usize,
    /// Admission-scheduling policy the server runs
    /// ([`SchedPolicy::Fifo`] | [`SchedPolicy::Lanes`] |
    /// [`SchedPolicy::Fair`]). Pure scheduling: never changes any
    /// query's result, only the order work is admitted in. Defaults
    /// honor the `ADAPTDB_SCHED` environment variable; see
    /// [`DbConfig::env_sched`].
    pub sched: SchedPolicy,
    /// Cost-classification threshold: a query whose cheap estimate
    /// ([`crate::cost::estimate_query`]) projects at least this many
    /// candidate blocks is admitted into the batch lane instead of the
    /// interactive lane. Irrelevant under [`SchedPolicy::Fifo`].
    pub batch_cost_blocks: usize,
    /// Maintenance pacing threshold, milliseconds: when the estimated
    /// interactive queue wait exceeds this (or any query is waiting for
    /// admission), the background maintenance thread throttles itself
    /// to one observation per paced pass instead of draining its whole
    /// inbox — adaptation defers under load and catches up at idle.
    pub maint_pace_wait_ms: f64,
    /// Adaptive prefetch pacing, milliseconds: when set and the
    /// estimated queue wait for a query's lane exceeds this threshold,
    /// the server shrinks that query's effective `fetch_window`
    /// (halving per threshold multiple, floor 1) so deep prefetch
    /// stops amplifying queueing delay on a loaded server. `None` (the
    /// default) keeps the configured window unconditionally. Block
    /// counts and results are identical at every setting.
    pub fetch_pace_wait_ms: Option<f64>,
    /// Ignored: `ADB2` + column-wise execution is the only data plane;
    /// removed with the next benchmark change. Nothing reads it.
    pub columnar: bool,
    /// Morsel size in rows for scan/probe gathers: selected row ranges
    /// split into cache-sized morsels dispatched through the ordered
    /// parallel executor (deterministic output order at any thread
    /// count). Defaults honor the `ADAPTDB_MORSEL_ROWS` environment
    /// variable; see [`DbConfig::env_morsel_rows`].
    pub morsel_rows: usize,
    /// Query-lifecycle tracing: when on, every query run through
    /// [`crate::Database`] or the server collects a span tree
    /// (plan/scan/shuffle map/fetch/probe/…) timestamped on the
    /// simulated clocks, exportable as Chrome trace-event JSON. Tracing
    /// is observational only — it never charges a clock, so every
    /// stat, block count, and result is bit-identical with it off
    /// (the default). Defaults honor the `ADAPTDB_TRACE` environment
    /// variable; see [`DbConfig::env_trace`].
    pub trace: bool,
    /// Delta-fold threshold for the ingest path: once a table has
    /// accumulated at least this many unfolded delta blocks, the next
    /// adaptation pass folds them into the partition tree (a
    /// repartition of just the deltas, costed on the maintenance
    /// clock). Smaller = tighter query plans, more background I/O.
    /// Defaults honor the `ADAPTDB_INGEST_FOLD` environment variable;
    /// see [`DbConfig::env_ingest_fold`].
    pub ingest_fold_blocks: usize,
    /// Merge appended rows into a partial delta tail block instead of
    /// always opening a new block: the tail is read back (charged),
    /// rewritten full-size, and the old tail retired. Keeps trickle
    /// ingest block counts identical to bulk ingest of the same rows.
    /// On by default; disable to make every append its own block run.
    pub ingest_merge_tail: bool,
    /// Per-node block-cache budget, in blocks: each simulated node
    /// keeps up to this many recently-fetched encoded blocks resident,
    /// evicting by cost-weighted frequency/recency (a remote block is
    /// worth its local-vs-remote cost delta more than a local one).
    /// Cache hits are charged near-zero cost as
    /// `ReadKind::CacheHit` on the cache breakdown — never on the
    /// local/remote I/O tallies — so rows *and* every non-cache counter
    /// are bit-identical with the cache off. `0` (the default) disables
    /// caching entirely: today's exact behavior. Defaults honor the
    /// `ADAPTDB_CACHE` environment variable; see
    /// [`DbConfig::env_cache`].
    pub cache_blocks_per_node: usize,
    /// Durable-journal directory: when set, every block write/remove
    /// and every committed catalog snapshot is logged to a write-ahead
    /// manifest journal under this path (`FileDfs` backend), and
    /// [`crate::Database::open_durable`] can recover the last committed
    /// snapshot after a crash. `None` (the default) keeps the purely
    /// in-memory `SimDfs`. Defaults honor the `ADAPTDB_DURABLE_PATH`
    /// environment variable; see [`DbConfig::env_durable_path`].
    pub durable_path: Option<String>,
    /// Cost model for simulated seconds and plan comparison.
    pub cost: CostParams,
    /// System variant.
    pub mode: Mode,
    /// Worker threads for execution (scan/join fan-out and, in the
    /// server, the client-facing executor pool). Defaults honor the
    /// `ADAPTDB_THREADS` environment variable; see
    /// [`DbConfig::env_threads`].
    pub threads: usize,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
}

impl Default for DbConfig {
    fn default() -> Self {
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
            join_mem_budget_blocks: DbConfig::env_join_mem(),
            fetch_window: DbConfig::env_fetch_window().unwrap_or(4),
            sched: DbConfig::env_sched().unwrap_or_default(),
            batch_cost_blocks: 64,
            maint_pace_wait_ms: 5.0,
            fetch_pace_wait_ms: None,
            columnar: false,
            morsel_rows: DbConfig::env_morsel_rows().unwrap_or(adaptdb_exec::DEFAULT_MORSEL_ROWS),
            trace: DbConfig::env_trace(),
            ingest_fold_blocks: DbConfig::env_ingest_fold().unwrap_or(8),
            ingest_merge_tail: true,
            cache_blocks_per_node: DbConfig::env_cache().unwrap_or(0),
            durable_path: DbConfig::env_durable_path(),
            cost: CostParams::default(),
            mode: Mode::Adaptive,
            threads: DbConfig::env_threads().unwrap_or(2),
            seed: 42,
        }
    }
}

impl DbConfig {
    /// The `ADAPTDB_THREADS` override, if set to a positive integer.
    /// Row order is thread-count-invariant (the executor merges in
    /// input order), so this only changes wall-clock parallelism —
    /// call sites should use this instead of hard-coding counts.
    pub fn env_threads() -> Option<usize> {
        std::env::var("ADAPTDB_THREADS").ok()?.trim().parse::<usize>().ok().filter(|t| *t > 0)
    }

    /// The `ADAPTDB_FETCH_WINDOW` override, if set to a positive
    /// integer: the in-flight depth of pipelined block fetches
    /// (`1` = serial I/O). Like `ADAPTDB_THREADS`, this never changes
    /// results or block counts — only how much fetch latency overlaps.
    pub fn env_fetch_window() -> Option<usize> {
        std::env::var("ADAPTDB_FETCH_WINDOW").ok()?.trim().parse::<usize>().ok().filter(|w| *w > 0)
    }

    /// The `ADAPTDB_JOIN_MEM` override, if set to a positive integer:
    /// the per-reducer build-memory budget in blocks. Unlike the other
    /// overrides this changes the I/O *plan* (budgeted builds spill and
    /// re-read overflow), but never a query's rows.
    pub fn env_join_mem() -> Option<usize> {
        std::env::var("ADAPTDB_JOIN_MEM").ok()?.trim().parse::<usize>().ok().filter(|b| *b > 0)
    }

    /// The `ADAPTDB_SCHED` override, if set to a recognized policy
    /// name (`fifo` | `lanes` | `fair`). Like the other overrides this
    /// never changes results — only the order queries are admitted in.
    pub fn env_sched() -> Option<SchedPolicy> {
        SchedPolicy::parse(&std::env::var("ADAPTDB_SCHED").ok()?)
    }

    /// The `ADAPTDB_MORSEL_ROWS` override, if set to a positive
    /// integer: the morsel size (in rows) for scan/probe
    /// gathers. Like `ADAPTDB_THREADS`, this never changes results —
    /// morsels reassemble in input order.
    pub fn env_morsel_rows() -> Option<usize> {
        std::env::var("ADAPTDB_MORSEL_ROWS").ok()?.trim().parse::<usize>().ok().filter(|m| *m > 0)
    }

    /// The `ADAPTDB_TRACE` override: `1` / `true` / `on` enables
    /// query-lifecycle tracing (anything else, or unset, leaves it
    /// off). Tracing never changes results, counts, or simulated
    /// costs — it only collects span trees.
    pub fn env_trace() -> bool {
        matches!(
            std::env::var("ADAPTDB_TRACE").map(|v| v.trim().to_ascii_lowercase()).as_deref(),
            Ok("1") | Ok("true") | Ok("on")
        )
    }

    /// The `ADAPTDB_INGEST_FOLD` override, if set to a positive
    /// integer: the delta-block count at which the next adaptation
    /// pass folds a table's deltas into its partition tree. Changes
    /// *when* background fold I/O happens, never any query's rows.
    pub fn env_ingest_fold() -> Option<usize> {
        std::env::var("ADAPTDB_INGEST_FOLD").ok()?.trim().parse::<usize>().ok().filter(|n| *n > 0)
    }

    /// The `ADAPTDB_CACHE` override, if set to a non-negative integer:
    /// the per-node block-cache budget in blocks (`0` = off). Caching
    /// never changes a query's rows, and hits land on the dedicated
    /// cache breakdown — the local/remote I/O tallies are identical at
    /// every setting.
    pub fn env_cache() -> Option<usize> {
        std::env::var("ADAPTDB_CACHE").ok()?.trim().parse::<usize>().ok()
    }

    /// The `ADAPTDB_DURABLE_PATH` override, if set to a non-empty
    /// path: the directory the write-ahead manifest journal lives in.
    /// Purely a durability feature — results and simulated costs are
    /// identical with it unset.
    pub fn env_durable_path() -> Option<String> {
        std::env::var("ADAPTDB_DURABLE_PATH")
            .ok()
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
    }

    /// A small configuration suited to unit tests and doc examples:
    /// 4 nodes, no replication, tiny blocks.
    pub fn small() -> Self {
        DbConfig {
            nodes: 4,
            replication: 1,
            rows_per_block: 16,
            buffer_blocks: 2,
            threads: DbConfig::env_threads().unwrap_or(1),
            ..DbConfig::default()
        }
    }

    /// Same configuration with a different [`Mode`] — used to build the
    /// baseline systems in experiments.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Tree depth for a table of `rows` rows: enough levels that leaf
    /// buckets hold about one block each.
    pub fn depth_for_rows(&self, rows: usize) -> usize {
        if rows <= self.rows_per_block {
            return 0;
        }
        (rows as f64 / self.rows_per_block as f64).log2().ceil() as usize
    }

    /// Join levels for a tree of `depth` levels under the configured
    /// fraction.
    pub fn join_levels_for(&self, depth: usize) -> usize {
        ((depth as f64 * self.join_levels_fraction).round() as usize).min(depth)
    }

    /// Reducer fan-out the shuffle service uses under this config.
    pub fn shuffle_fanout(&self) -> usize {
        self.shuffle_partitions.unwrap_or(self.nodes).max(1)
    }

    /// The shuffle knobs in executor form.
    pub fn shuffle_options(&self) -> adaptdb_exec::ShuffleOptions {
        adaptdb_exec::ShuffleOptions {
            partitions: Some(self.shuffle_fanout()),
            replication: self.shuffle_replication.max(1),
            split_threshold: self.shuffle_split_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_scales_logarithmically() {
        let c = DbConfig { rows_per_block: 100, ..DbConfig::default() };
        assert_eq!(c.depth_for_rows(50), 0);
        assert_eq!(c.depth_for_rows(100), 0);
        assert_eq!(c.depth_for_rows(200), 1);
        assert_eq!(c.depth_for_rows(800), 3);
        assert_eq!(c.depth_for_rows(1000), 4); // ceil(log2(10)) = 4
    }

    #[test]
    fn join_levels_follow_fraction() {
        let c = DbConfig { join_levels_fraction: 0.5, ..DbConfig::default() };
        assert_eq!(c.join_levels_for(8), 4);
        assert_eq!(c.join_levels_for(7), 4); // round(3.5) = 4
        let c = DbConfig { join_levels_fraction: 1.0, ..DbConfig::default() };
        assert_eq!(c.join_levels_for(6), 6);
    }

    #[test]
    fn with_mode_builder() {
        let c = DbConfig::small().with_mode(Mode::FullScan);
        assert_eq!(c.mode, Mode::FullScan);
    }

    #[test]
    fn shuffle_knobs_default_and_override() {
        let c = DbConfig::small();
        assert_eq!(c.shuffle_fanout(), c.nodes, "default: one reducer per node");
        assert_eq!(c.shuffle_options().replication, 1, "spill runs unreplicated by default");
        let c = DbConfig { shuffle_partitions: Some(7), shuffle_replication: 3, ..c };
        assert_eq!(c.shuffle_fanout(), 7);
        assert_eq!(c.shuffle_options().partitions, Some(7));
        assert_eq!(c.shuffle_options().replication, 3);
    }

    #[test]
    fn skew_knobs_default_and_thread_through() {
        let c = DbConfig::default();
        assert_eq!(c.shuffle_split_threshold, Some(4.0), "splitting on by default at 4x mean");
        assert_eq!(c.shuffle_options().split_threshold, Some(4.0));
        if std::env::var("ADAPTDB_JOIN_MEM").is_err() {
            assert_eq!(c.join_mem_budget_blocks, None, "build memory unbounded by default");
        }
        let c = DbConfig { shuffle_split_threshold: None, ..c };
        assert_eq!(c.shuffle_options().split_threshold, None);
    }

    #[test]
    fn sched_policy_parse_and_defaults() {
        assert_eq!(SchedPolicy::parse("fifo"), Some(SchedPolicy::Fifo));
        assert_eq!(SchedPolicy::parse(" LANES "), Some(SchedPolicy::Lanes));
        assert_eq!(SchedPolicy::parse("fair"), Some(SchedPolicy::Fair));
        assert_eq!(SchedPolicy::parse("priority"), None);
        assert_eq!(SchedPolicy::Fair.to_string(), "fair");
        if std::env::var("ADAPTDB_SCHED").is_err() {
            assert_eq!(DbConfig::default().sched, SchedPolicy::Fifo);
        }
        let c = DbConfig::default();
        assert!(c.batch_cost_blocks > 0);
        assert!(c.maint_pace_wait_ms > 0.0);
        assert_eq!(c.fetch_pace_wait_ms, None, "prefetch pacing is opt-in");
    }

    #[test]
    fn columnar_defaults_off_and_morsel_positive() {
        // The ignored field keeps the value the benchmark harness pins.
        assert!(!DbConfig::default().columnar);
        if std::env::var("ADAPTDB_MORSEL_ROWS").is_err() {
            assert_eq!(DbConfig::default().morsel_rows, adaptdb_exec::DEFAULT_MORSEL_ROWS);
        }
        assert!(DbConfig::default().morsel_rows > 0);
    }

    #[test]
    fn ingest_knobs_default_and_guarded_by_env() {
        let c = DbConfig::default();
        if std::env::var("ADAPTDB_INGEST_FOLD").is_err() {
            assert_eq!(c.ingest_fold_blocks, 8);
        }
        assert!(c.ingest_fold_blocks > 0);
        assert!(c.ingest_merge_tail, "tail merging on by default (trickle == bulk counts)");
        if std::env::var("ADAPTDB_DURABLE_PATH").is_err() {
            assert_eq!(c.durable_path, None, "durability is opt-in; SimDfs stays the default");
        }
    }

    #[test]
    fn cache_defaults_off_and_honors_env() {
        if std::env::var("ADAPTDB_CACHE").is_err() {
            assert_eq!(DbConfig::default().cache_blocks_per_node, 0, "caching is opt-in");
            assert_eq!(DbConfig::small().cache_blocks_per_node, 0);
        }
        let c = DbConfig { cache_blocks_per_node: 32, ..DbConfig::small() };
        assert_eq!(c.cache_blocks_per_node, 32);
    }

    #[test]
    fn fetch_window_defaults_pipelined() {
        // Pipelining is on by default (window 4) unless the env
        // override says otherwise; results never depend on it.
        if std::env::var("ADAPTDB_FETCH_WINDOW").is_err() {
            assert_eq!(DbConfig::default().fetch_window, 4);
            assert_eq!(DbConfig::small().fetch_window, 4);
        }
        let serial = DbConfig { fetch_window: 1, ..DbConfig::small() };
        assert_eq!(serial.fetch_window, 1);
    }
}
