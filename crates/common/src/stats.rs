//! Execution statistics.
//!
//! Every query run returns a [`QueryStats`] so experiments can report
//! both block-level I/O counts (the paper's analytical currency) and
//! simulated seconds (the paper's plotted currency).

use crate::cost::CostParams;

/// Raw I/O tallies accumulated during one query (or one phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Blocks read from a node that stores them.
    pub local_reads: usize,
    /// Blocks read across the simulated network.
    pub remote_reads: usize,
    /// Blocks written (repartitioning output, shuffle spill).
    pub writes: usize,
    /// Rows that passed predicate filters into operators.
    pub rows_scanned: usize,
    /// Rows produced by the query.
    pub rows_out: usize,
    /// Candidate blocks the scan *skipped* via per-column zone maps
    /// (block min/max metadata excluded the predicates) before any
    /// read was issued. Not I/O — never part of [`IoStats::reads`] or
    /// simulated seconds; this tally only makes the second pruning
    /// tier (tree → zone map) observable. Identical for every block
    /// format: the metadata is format-independent.
    pub zone_skipped: usize,
}

impl IoStats {
    /// Total blocks read.
    pub fn reads(&self) -> usize {
        self.local_reads + self.remote_reads
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &IoStats) {
        self.local_reads += other.local_reads;
        self.remote_reads += other.remote_reads;
        self.writes += other.writes;
        self.rows_scanned += other.rows_scanned;
        self.rows_out += other.rows_out;
        self.zone_skipped += other.zone_skipped;
    }

    /// Simulated seconds under a cost model.
    pub fn simulated_secs(&self, params: &CostParams) -> f64 {
        params.secs_for(self.local_reads, self.remote_reads, self.writes)
    }
}

/// Per-phase shuffle-service accounting: what the map side spilled and
/// how the reduce side fetched it. Fetches are a *breakdown* of reads
/// already tallied in [`IoStats`] (every fetch is also a local or
/// remote read); spilled blocks are likewise a subset of
/// [`IoStats::writes`]. Keeping them separate lets experiments report
/// shuffle locality without disturbing the paper's block-I/O currency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// Non-empty per-(mapper, reducer) runs written during map phases.
    pub runs_written: usize,
    /// Physical blocks spilled to the DFS for those runs.
    pub blocks_spilled: usize,
    /// Encoded bytes of the spilled runs.
    pub bytes_spilled: usize,
    /// Run-block fetches where the reducer's node held a replica.
    pub local_fetches: usize,
    /// Run-block fetches that crossed the simulated network.
    pub remote_fetches: usize,
    /// Build-side blocks spilled back to scratch by the memory-budgeted
    /// build phase (a subset of [`IoStats::writes`], like run spills).
    pub build_blocks_spilled: usize,
    /// Extra run-block reads performed to broadcast a split partition's
    /// small side to its sibling sub-tasks. A breakdown of [`IoStats`]
    /// reads, deliberately *not* counted in
    /// [`ShuffleStats::local_fetches`]/[`ShuffleStats::remote_fetches`]
    /// so `fetches() == blocks_spilled` keeps holding for every run.
    pub broadcast_fetches: usize,
    /// Hot partitions the reduce phase split across extra reducers.
    pub split_partitions: usize,
    /// Deepest recursive-repartitioning level any budgeted build
    /// reached (gauge; 0 when every build fit its budget).
    pub max_recursion_depth: usize,
    /// Largest build-side hash table any reducer held at once, in
    /// blocks (gauge; bounded by `join_mem_budget_blocks` when set).
    pub peak_reducer_mem_blocks: usize,
}

impl ShuffleStats {
    /// Total run-block fetches by reducers.
    pub fn fetches(&self) -> usize {
        self.local_fetches + self.remote_fetches
    }

    /// Fraction of fetches that were reducer-local (1.0 when nothing
    /// was shuffled).
    pub fn locality_fraction(&self) -> f64 {
        if self.fetches() == 0 {
            return 1.0;
        }
        self.local_fetches as f64 / self.fetches() as f64
    }

    /// Merge another tally into this one (gauges take the max).
    pub fn merge(&mut self, other: &ShuffleStats) {
        self.runs_written += other.runs_written;
        self.blocks_spilled += other.blocks_spilled;
        self.bytes_spilled += other.bytes_spilled;
        self.local_fetches += other.local_fetches;
        self.remote_fetches += other.remote_fetches;
        self.build_blocks_spilled += other.build_blocks_spilled;
        self.broadcast_fetches += other.broadcast_fetches;
        self.split_partitions += other.split_partitions;
        self.max_recursion_depth = self.max_recursion_depth.max(other.max_recursion_depth);
        self.peak_reducer_mem_blocks =
            self.peak_reducer_mem_blocks.max(other.peak_reducer_mem_blocks);
    }
}

/// Pipelined-fetch accounting: how much block-read *latency* was hidden
/// by overlapping fetches in an in-flight window (the async I/O
/// backend's `FetchStream`).
///
/// Block **counts** are never changed by pipelining — every fetch is
/// still a local or remote read in [`IoStats`], so the paper's
/// block-I/O currency (and `C_SJ`) is untouched. What overlapping
/// changes is simulated *time*: a window of `w` concurrent fetches
/// completes in the time of its slowest member instead of the sum, so
/// `w − 1` of its reads have their latency fully hidden. This tally
/// classifies those hidden reads; [`OverlapStats::saved_secs`] converts
/// them to the seconds a pipelined run saves relative to charging the
/// same reads serially.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlapStats {
    /// Fetch windows issued (each charged max-of-window, not sum).
    pub windows: usize,
    /// Block fetches that went through a fetch stream (a subset of
    /// [`IoStats`] reads).
    pub fetches: usize,
    /// Local reads whose latency was hidden behind a slower window
    /// member.
    pub hidden_local: usize,
    /// Remote reads whose latency was hidden behind another remote
    /// fetch in the same window.
    pub hidden_remote: usize,
    /// Deepest in-flight window observed (≤ the configured
    /// `fetch_window`).
    pub max_in_flight: usize,
}

impl OverlapStats {
    /// Total reads whose latency was hidden by overlap.
    pub fn hidden(&self) -> usize {
        self.hidden_local + self.hidden_remote
    }

    /// Simulated seconds of block-read latency hidden by overlap,
    /// under the same parallelism divisor as
    /// [`IoStats::simulated_secs`]. CPU cost is *not* saved — hashing
    /// and probing stay serial per worker; only I/O wait overlaps.
    pub fn saved_secs(&self, params: &CostParams) -> f64 {
        let io = self.hidden_local as f64 * params.block_read_secs
            + self.hidden_remote as f64 * params.block_read_secs * params.remote_read_penalty;
        io / params.parallelism.max(1) as f64
    }

    /// Merge another tally into this one (gauges take the max).
    pub fn merge(&mut self, other: &OverlapStats) {
        self.windows += other.windows;
        self.fetches += other.fetches;
        self.hidden_local += other.hidden_local;
        self.hidden_remote += other.hidden_remote;
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
    }
}

/// Block-cache accounting: what the per-node buffer pool absorbed.
///
/// A cache hit is a block access that *would* have been a local or
/// remote DFS read but was served from the reading node's cache
/// instead. Hits never land on [`IoStats`] — the cache-off I/O tally is
/// bit-identical to a run without a cache — so the invariant linking
/// the two tallies is `local_reads + remote_reads + hits` being
/// constant for a fixed workload, regardless of cache size. Misses
/// count cache-enabled reads that fell through to the DFS (and were
/// charged normally); with the cache disabled every field stays zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits that replaced a would-be local read.
    pub local_hits: usize,
    /// Hits that replaced a would-be remote read (each worth the full
    /// remote penalty — the reason remote blocks get a bigger eviction
    /// weight).
    pub remote_hits: usize,
    /// Cache-enabled reads that missed and went to the DFS.
    pub misses: usize,
    /// Entries evicted to admit hotter blocks.
    pub evictions: usize,
    /// Encoded bytes served from the cache across all hits.
    pub hit_bytes: usize,
}

impl CacheStats {
    /// Total cache hits.
    pub fn hits(&self) -> usize {
        self.local_hits + self.remote_hits
    }

    /// Cache lookups that had a chance to hit (hits + misses).
    pub fn lookups(&self) -> usize {
        self.hits() + self.misses
    }

    /// Fraction of lookups served from the cache (0.0 when the cache is
    /// off or nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            return 0.0;
        }
        self.hits() as f64 / self.lookups() as f64
    }

    /// Simulated seconds the hits *cost* (each hit is charged
    /// [`CostParams::cache_hit_secs`], near-zero but not free), under
    /// the same parallelism divisor as [`IoStats::simulated_secs`].
    pub fn hit_secs(&self, params: &CostParams) -> f64 {
        self.hits() as f64 * params.cache_hit_secs / params.parallelism.max(1) as f64
    }

    /// Simulated seconds the hits saved relative to paying their
    /// would-be local/remote read cost (net of the near-zero hit
    /// charge). Zero when the cache is off.
    pub fn saved_secs(&self, params: &CostParams) -> f64 {
        let avoided = self.local_hits as f64 * params.block_read_secs
            + self.remote_hits as f64 * params.block_read_secs * params.remote_read_penalty
            + self.hits() as f64 * params.cpu_per_block_secs;
        avoided / params.parallelism.max(1) as f64 - self.hit_secs(params)
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.local_hits += other.local_hits;
        self.remote_hits += other.remote_hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.hit_bytes += other.hit_bytes;
    }
}

/// Ingest-path accounting: what the append API and the delta-fold
/// maintenance decision did. Appends are acknowledged once their delta
/// blocks are stored (and journaled, under a durable config); folds are
/// the background repartition of accumulated deltas into the partition
/// tree, charged to the maintenance clock like any other adaptation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Append calls acknowledged.
    pub appends: usize,
    /// Rows accepted across all appends.
    pub rows_appended: usize,
    /// Delta blocks written by the append path (including rewritten
    /// tails).
    pub delta_blocks_written: usize,
    /// Partial tail blocks read back, merged, and rewritten so trickle
    /// ingest converges to bulk-ingest block boundaries.
    pub tail_rewrites: usize,
    /// Delta-fold passes completed.
    pub folds: usize,
    /// Delta blocks folded into partition trees across all folds.
    pub blocks_folded: usize,
}

impl IngestStats {
    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &IngestStats) {
        self.appends += other.appends;
        self.rows_appended += other.rows_appended;
        self.delta_blocks_written += other.delta_blocks_written;
        self.tail_rewrites += other.tail_rewrites;
        self.folds += other.folds;
        self.blocks_folded += other.blocks_folded;
    }
}

/// Which join strategy the planner chose for a query (§6 "Query Planner").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// No join in the query.
    ScanOnly,
    /// Hyper-join on both sides (planner case 1).
    HyperJoin,
    /// Hyper-join for blocks in the matching tree, shuffle for the rest
    /// (planner case 2, mid-migration).
    Mixed,
    /// Full shuffle join (planner case 3).
    ShuffleJoin,
}

impl std::fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JoinStrategy::ScanOnly => "scan",
            JoinStrategy::HyperJoin => "hyper-join",
            JoinStrategy::Mixed => "mixed",
            JoinStrategy::ShuffleJoin => "shuffle-join",
        };
        f.write_str(s)
    }
}

/// Everything recorded about one executed query.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// I/O performed answering the query itself.
    pub query_io: IoStats,
    /// I/O performed by adaptive repartitioning piggybacked on the query
    /// (Type-2 blocks: scanned *and* rewritten, §6 "Optimizer").
    pub repartition_io: IoStats,
    /// Shuffle-service accounting (runs spilled, local vs remote
    /// fetches) for the query's shuffle phases, if any.
    pub shuffle: ShuffleStats,
    /// Pipelined-fetch accounting: read latency hidden by overlapping
    /// fetches (zero when `fetch_window = 1`, i.e. serial I/O).
    pub overlap: OverlapStats,
    /// Block-cache accounting: reads absorbed by the per-node buffer
    /// pool (all-zero when `cache_blocks_per_node = 0`).
    pub cache: CacheStats,
    /// Join strategy chosen.
    pub strategy: JoinStrategy,
    /// The planner's estimated `C_HyJ` for the chosen plan, if a join.
    pub estimated_c_hyj: Option<f64>,
    /// Wall-clock seconds actually spent executing (real CPU time).
    pub wall_secs: f64,
    /// Of `wall_secs`, seconds spent waiting in an admission queue
    /// before a worker picked the query up (zero in the serial engine,
    /// which has no queue). Lets serving experiments split scheduling
    /// delay from execution time per query.
    pub queue_wait_secs: f64,
}

impl QueryStats {
    /// A zeroed stats record for a scan.
    pub fn empty(strategy: JoinStrategy) -> Self {
        QueryStats {
            query_io: IoStats::default(),
            repartition_io: IoStats::default(),
            shuffle: ShuffleStats::default(),
            overlap: OverlapStats::default(),
            cache: CacheStats::default(),
            strategy,
            estimated_c_hyj: None,
            wall_secs: 0.0,
            queue_wait_secs: 0.0,
        }
    }

    /// Combined I/O (query + repartitioning work).
    pub fn total_io(&self) -> IoStats {
        let mut io = self.query_io;
        io.merge(&self.repartition_io);
        io
    }

    /// Simulated end-to-end seconds for the query including piggybacked
    /// repartitioning — the y-axis of Figs. 13, 15, 18. This is the
    /// *serial* figure: every block access charged in full — DFS reads
    /// and writes at their local/remote cost, cache hits at their
    /// near-zero [`CostParams::cache_hit_secs`] charge (zero term when
    /// the cache is off).
    pub fn simulated_secs(&self, params: &CostParams) -> f64 {
        self.total_io().simulated_secs(params) + self.cache.hit_secs(params)
    }

    /// Simulated seconds with pipelined fetches: the serial figure
    /// minus the read latency hidden by overlapping in-flight windows.
    /// Equals [`QueryStats::simulated_secs`] when nothing overlapped.
    pub fn pipelined_simulated_secs(&self, params: &CostParams) -> f64 {
        self.simulated_secs(params) - self.overlap.saved_secs(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = IoStats { local_reads: 1, remote_reads: 2, writes: 3, ..Default::default() };
        let b = IoStats { local_reads: 10, remote_reads: 20, writes: 30, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.local_reads, 11);
        assert_eq!(a.remote_reads, 22);
        assert_eq!(a.writes, 33);
        assert_eq!(a.reads(), 33);
    }

    #[test]
    fn total_io_includes_repartitioning() {
        let mut qs = QueryStats::empty(JoinStrategy::HyperJoin);
        qs.query_io.local_reads = 5;
        qs.repartition_io.writes = 7;
        let t = qs.total_io();
        assert_eq!(t.local_reads, 5);
        assert_eq!(t.writes, 7);
    }

    #[test]
    fn shuffle_stats_merge_and_locality() {
        let mut a = ShuffleStats {
            runs_written: 2,
            blocks_spilled: 3,
            bytes_spilled: 100,
            local_fetches: 1,
            remote_fetches: 2,
            build_blocks_spilled: 4,
            broadcast_fetches: 5,
            split_partitions: 1,
            max_recursion_depth: 2,
            peak_reducer_mem_blocks: 6,
        };
        let b = ShuffleStats {
            local_fetches: 1,
            build_blocks_spilled: 1,
            broadcast_fetches: 2,
            split_partitions: 1,
            max_recursion_depth: 1,
            peak_reducer_mem_blocks: 9,
            ..ShuffleStats::default()
        };
        a.merge(&b);
        assert_eq!(a.fetches(), 4);
        assert_eq!(a.locality_fraction(), 0.5);
        // Counters sum; gauges take the max.
        assert_eq!(a.build_blocks_spilled, 5);
        assert_eq!(a.broadcast_fetches, 7);
        assert_eq!(a.split_partitions, 2);
        assert_eq!(a.max_recursion_depth, 2);
        assert_eq!(a.peak_reducer_mem_blocks, 9);
        // Broadcast reads never leak into the fetch breakdown.
        assert_eq!(a.fetches(), a.local_fetches + a.remote_fetches);
        // Nothing shuffled → vacuously fully local.
        assert_eq!(ShuffleStats::default().locality_fraction(), 1.0);
    }

    #[test]
    fn ingest_stats_merge_accumulates() {
        let mut a = IngestStats {
            appends: 1,
            rows_appended: 10,
            delta_blocks_written: 2,
            tail_rewrites: 1,
            folds: 0,
            blocks_folded: 0,
        };
        a.merge(&IngestStats {
            appends: 2,
            rows_appended: 5,
            delta_blocks_written: 1,
            tail_rewrites: 0,
            folds: 1,
            blocks_folded: 3,
        });
        assert_eq!(a.appends, 3);
        assert_eq!(a.rows_appended, 15);
        assert_eq!(a.delta_blocks_written, 3);
        assert_eq!(a.tail_rewrites, 1);
        assert_eq!(a.folds, 1);
        assert_eq!(a.blocks_folded, 3);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(JoinStrategy::HyperJoin.to_string(), "hyper-join");
        assert_eq!(JoinStrategy::ShuffleJoin.to_string(), "shuffle-join");
    }

    #[test]
    fn overlap_saves_io_latency_but_never_counts() {
        let params = CostParams {
            parallelism: 1,
            block_read_secs: 1.0,
            remote_read_penalty: 1.25,
            cpu_per_block_secs: 0.0,
            ..CostParams::default()
        };
        // A window of 3 local + 1 remote: the remote is the max, so all
        // 3 locals hide (the remote itself is charged).
        let ov = OverlapStats {
            windows: 1,
            fetches: 4,
            hidden_local: 3,
            hidden_remote: 0,
            max_in_flight: 4,
        };
        assert_eq!(ov.hidden(), 3);
        assert!((ov.saved_secs(&params) - 3.0).abs() < 1e-9);
        // Two remotes in one window: one remote hides behind the other.
        let ov2 = OverlapStats { hidden_remote: 1, ..OverlapStats::default() };
        assert!((ov2.saved_secs(&params) - 1.25).abs() < 1e-9);
        // Merge accumulates counts and maxes the gauge.
        let mut m = ov;
        m.merge(&OverlapStats { windows: 2, fetches: 2, max_in_flight: 2, ..Default::default() });
        assert_eq!((m.windows, m.fetches, m.max_in_flight), (3, 6, 4));
    }

    #[test]
    fn pipelined_secs_never_exceed_serial() {
        let mut qs = QueryStats::empty(JoinStrategy::ShuffleJoin);
        qs.query_io = IoStats { local_reads: 8, remote_reads: 8, writes: 8, ..Default::default() };
        qs.overlap = OverlapStats {
            windows: 4,
            fetches: 8,
            hidden_local: 4,
            hidden_remote: 2,
            ..Default::default()
        };
        let params = CostParams::default();
        let serial = qs.simulated_secs(&params);
        let pipelined = qs.pipelined_simulated_secs(&params);
        assert!(pipelined < serial, "{pipelined} vs {serial}");
        assert!(pipelined > 0.0);
        // No overlap → identical figures.
        qs.overlap = OverlapStats::default();
        assert_eq!(qs.pipelined_simulated_secs(&params), qs.simulated_secs(&params));
    }

    #[test]
    fn simulated_secs_positive_when_io() {
        let mut qs = QueryStats::empty(JoinStrategy::ScanOnly);
        qs.query_io.local_reads = 10;
        assert!(qs.simulated_secs(&CostParams::default()) > 0.0);
    }
}
