//! Batched, pipelined block fetching — the async I/O backend.
//!
//! Every block list the executor reads — scans, the hyper-join probe
//! leg, shuffle reducer fetches — goes through a [`FetchStream`]: it
//! accepts a *set* of block requests and yields completions **out of
//! order**, simulating an in-flight window of up to `window` concurrent
//! reads over the [`SimClock`]:
//!
//! * every read still lands on the I/O tally at full count (block
//!   counts are the paper's cost currency and never change),
//! * but each issued window is charged **max-of-window** latency via
//!   [`SimClock::record_fetch_window`]: the window completes when its
//!   slowest member does, so all but the slowest read have their
//!   latency hidden ([`adaptdb_common::OverlapStats`]),
//! * within a window, **local fetches complete before remote ones** —
//!   the observable reordering a real async backend produces when disk
//!   reads finish ahead of network transfers,
//! * with a [`crate::cache::BlockCache`] attached, every pushed request
//!   is probed against the reader's cache first: hits complete
//!   immediately as [`ReadKind::CacheHit`] without consuming a window
//!   slot, so only the misses pay windowed fetch latency.
//!
//! A request whose block is unreadable (every replica on a failed
//! node) yields an `Err` completion without charging any I/O, and the
//! rest of its window proceeds — a failed fetch never stalls the
//! stream. Fail-over to a surviving replica happens below this layer
//! (the DFS classifies such reads `Remote`), so a node dying
//! mid-stream degrades locality, not correctness.
//!
//! `window = 1` is serial fetching: a one-deep stream whose reads are
//! charged exactly like [`crate::BlockStore::read_block_classified`]
//! (each is a window of one, so `OverlapStats::{windows, fetches}`
//! count it but nothing is hidden) — what the serial-vs-pipelined
//! equivalence tests pin.

use std::collections::VecDeque;

use adaptdb_common::{BlockId, GlobalBlockId, Result};
use adaptdb_dfs::{NodeId, ReadKind, SimClock, TraceCtx};

use crate::block::Block;
use crate::codec::LazyBlock;
use crate::store::BlockStore;

/// One block request queued on a [`FetchStream`] (the table is a
/// property of the stream, not the request — streams are single-table).
#[derive(Debug, Clone, Copy)]
struct FetchRequest {
    id: BlockId,
    /// Node issuing the read; `None` reads from the block's preferred
    /// (first live replica) node, like a locality-scheduled map task.
    reader: Option<NodeId>,
    tag: u64,
}

/// One finished fetch, yielded by [`FetchStream::next_completion`].
#[derive(Debug, Clone)]
pub struct FetchCompletion {
    /// The caller's tag from [`FetchStream::push`] — completions arrive
    /// out of order, so this is how callers re-associate them.
    pub tag: u64,
    /// How the DFS classified the read (remote on fail-over).
    pub kind: ReadKind,
    /// The fetched payload. Row-format (`ADB1`) blocks arrive fully
    /// decoded inside the lazy wrapper; columnar (`ADB2`) blocks arrive
    /// header-validated with columns still undecoded, so a consumer can
    /// materialize only what its selection needs.
    pub payload: LazyBlock,
}

impl FetchCompletion {
    /// Decode the payload to a whole [`Block`] — the eager path every
    /// row-oriented consumer uses.
    pub fn into_block(self) -> Result<Block> {
        self.payload.into_block()
    }
}

/// A pipelined fetch pipe over a [`BlockStore`]: push requests, pull
/// out-of-order completions, with overlapped-latency accounting.
///
/// Obtain one from [`BlockStore::fetch_stream`]. The stream issues
/// requests in windows of up to `window`: eagerly whenever a full
/// window is pending (so prefetch begins while the producer is still
/// queueing — e.g. while map tasks are still spilling runs), and lazily
/// on [`FetchStream::next_completion`] for the final partial window.
#[derive(Debug)]
pub struct FetchStream<'a> {
    store: &'a BlockStore,
    clock: &'a SimClock,
    /// The table every request reads from (one allocation per stream,
    /// not per block).
    table: String,
    window: usize,
    pending: VecDeque<FetchRequest>,
    ready: VecDeque<Result<FetchCompletion>>,
    issued: usize,
    /// Optional span tracing: when set, every issued window records a
    /// `fetch-window` span (observational only — the window's clock
    /// charge is identical with tracing off).
    trace: Option<TraceCtx<'a>>,
}

impl<'a> FetchStream<'a> {
    pub(crate) fn new(
        store: &'a BlockStore,
        table: &str,
        clock: &'a SimClock,
        window: usize,
    ) -> Self {
        FetchStream {
            store,
            clock,
            table: table.to_string(),
            window: window.max(1),
            pending: VecDeque::new(),
            ready: VecDeque::new(),
            issued: 0,
            trace: None,
        }
    }

    /// Attach a tracing handle: each subsequently issued window records
    /// a `fetch-window` span with its local/remote split. Callers must
    /// only attach a trace when the stream is drained from a single
    /// thread (trace timestamps read the shared clock).
    pub fn set_trace(&mut self, trace: Option<TraceCtx<'a>>) {
        self.trace = trace;
    }

    /// The table this stream fetches from.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The configured in-flight depth.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests queued but not yet issued.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Completions fetched but not yet consumed.
    pub fn ready(&self) -> usize {
        self.ready.len()
    }

    /// Total requests issued to the store so far.
    pub fn issued(&self) -> usize {
        self.issued
    }

    /// Queue a fetch of block `id`, read from `reader` (`None` = the
    /// block's preferred node). `tag` comes back verbatim on the
    /// completion. A full pending window is issued immediately.
    ///
    /// When the store has a block cache attached, the request is probed
    /// against `reader`'s cache first: a hit completes immediately as
    /// [`ReadKind::CacheHit`] and **never occupies a window slot**, so
    /// the remaining misses form smaller windows and the max-of-window
    /// latency charge shrinks. A probe that cannot classify the read
    /// (all replicas dead) falls through to the normal pending path so
    /// failures surface exactly as they do with the cache off.
    pub fn push(&mut self, id: BlockId, reader: Option<NodeId>, tag: u64) {
        if self.store.cache_enabled() {
            let gid = GlobalBlockId::new(self.table.as_str(), id);
            let node = reader.or_else(|| self.store.dfs().preferred_node(&gid).ok());
            if let Some(node) = node {
                if let Some((bytes, _)) = self.store.cache_probe(&gid, node, self.clock) {
                    let completion = self
                        .store
                        .parse_memoized(&gid, bytes)
                        .map(|payload| FetchCompletion { tag, kind: ReadKind::CacheHit, payload });
                    self.ready.push_back(completion);
                    return;
                }
            }
        }
        self.pending.push_back(FetchRequest { id, reader, tag });
        if self.pending.len() >= self.window {
            self.issue_window();
        }
    }

    /// Pull the next completion, issuing a (possibly partial) window
    /// if none is ready. `None` means the stream is drained. Within a
    /// window, local completions are yielded before remote ones;
    /// failed requests come last (they "complete" at error detection).
    pub fn next_completion(&mut self) -> Option<Result<FetchCompletion>> {
        if self.ready.is_empty() && !self.pending.is_empty() {
            self.issue_window();
        }
        self.ready.pop_front()
    }

    /// Issue up to one window of pending requests: classify and decode
    /// each, charge the window max-of-window on the clock, and stage
    /// completions locals-first.
    fn issue_window(&mut self) {
        let take = self.pending.len().min(self.window);
        if take == 0 {
            return;
        }
        let batch: Vec<FetchRequest> = self.pending.drain(..take).collect();
        let mut locals = Vec::new();
        let mut remotes = Vec::new();
        let mut errors = Vec::new();
        for req in batch {
            self.issued += 1;
            match self.fetch_one(&req) {
                Ok(c) if c.kind == ReadKind::Local => locals.push(Ok(c)),
                Ok(c) => remotes.push(Ok(c)),
                Err(e) => errors.push(Err(e)),
            }
        }
        let span = self.trace.map(|t| {
            let (_, guard) = t.span("fetch-window", self.clock);
            guard.attr_i("local", locals.len() as i64);
            guard.attr_i("remote", remotes.len() as i64);
            if !errors.is_empty() {
                guard.attr_i("errors", errors.len() as i64);
            }
            guard
        });
        self.clock.record_fetch_window(locals.len(), remotes.len());
        drop(span);
        self.ready.extend(locals);
        self.ready.extend(remotes);
        self.ready.extend(errors);
    }

    /// Classify + read + decode one request, charging nothing — the
    /// window-level accounting happens in [`FetchStream::issue_window`].
    fn fetch_one(&self, req: &FetchRequest) -> Result<FetchCompletion> {
        let gid = GlobalBlockId::new(self.table.as_str(), req.id);
        let (kind, bytes, reader) = {
            let dfs = self.store.dfs();
            let reader = match req.reader {
                Some(n) => n,
                None => dfs.preferred_node(&gid)?,
            };
            let kind = dfs.read_from(&gid, reader)?;
            drop(dfs);
            let bytes =
                self.store.block_bytes(&gid).ok_or(adaptdb_common::Error::UnknownBlock(req.id))?;
            (kind, bytes, reader)
        };
        self.store.cache_admit(&gid, reader, &bytes, kind, self.clock);
        let payload = self.store.parse_memoized(&gid, bytes)?;
        Ok(FetchCompletion { tag: req.tag, kind, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::row;

    /// One block per node, unreplicated: block `i`'s only replica is
    /// node `i` (writer round-robin starts at 0).
    fn striped_store(nodes: usize, blocks: usize) -> (BlockStore, Vec<BlockId>) {
        let store = BlockStore::new(nodes, 1, 1);
        let ids = (0..blocks)
            .map(|i| store.write_block("t", vec![row![i as i64]], 1, Some((i % nodes) as NodeId)))
            .collect();
        (store, ids)
    }

    fn drain(stream: &mut FetchStream<'_>) -> Vec<FetchCompletion> {
        let mut out = Vec::new();
        while let Some(c) = stream.next_completion() {
            out.push(c.unwrap());
        }
        out
    }

    #[test]
    fn window_of_one_matches_serial_accounting() {
        let (store, ids) = striped_store(4, 4);
        let serial = SimClock::new();
        for &id in &ids {
            store.read_block("t", id, 0, &serial).unwrap();
        }
        let piped = SimClock::new();
        let mut stream = store.fetch_stream("t", &piped, 1);
        for (i, &id) in ids.iter().enumerate() {
            stream.push(id, Some(0), i as u64);
        }
        let got = drain(&mut stream);
        assert_eq!(got.len(), 4);
        // Identical I/O counts, identical order (no reordering at w=1),
        // and nothing hidden.
        assert_eq!(piped.snapshot(), serial.snapshot());
        assert_eq!(got.iter().map(|c| c.tag).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(piped.overlap_snapshot().hidden(), 0);
        assert_eq!(piped.overlap_snapshot().windows, 4);
    }

    #[test]
    fn completions_reorder_locals_first_and_hide_latency() {
        let (store, ids) = striped_store(4, 4);
        let clock = SimClock::new();
        let mut stream = store.fetch_stream("t", &clock, 4);
        // Reader node 2: block 2 is local, the rest remote. Push in id
        // order; the local block must complete first.
        for (i, &id) in ids.iter().enumerate() {
            stream.push(id, Some(2), i as u64);
        }
        let got = drain(&mut stream);
        assert_eq!(got[0].tag, 2, "local fetch completes before remote ones");
        assert_eq!(got[0].kind, ReadKind::Local);
        assert!(got[1..].iter().all(|c| c.kind == ReadKind::Remote));
        // Counts unchanged; 1 local + 2 of 3 remotes hidden.
        let io = clock.snapshot();
        assert_eq!((io.local_reads, io.remote_reads), (1, 3));
        let ov = clock.overlap_snapshot();
        assert_eq!(ov.windows, 1);
        assert_eq!((ov.hidden_local, ov.hidden_remote), (1, 2));
        assert_eq!(ov.max_in_flight, 4);
    }

    #[test]
    fn push_issues_eagerly_at_full_windows() {
        let (store, ids) = striped_store(2, 6);
        let clock = SimClock::new();
        let mut stream = store.fetch_stream("t", &clock, 2);
        for (i, &id) in ids.iter().enumerate() {
            stream.push(id, None, i as u64);
        }
        // Three full windows were issued during the pushes — prefetch
        // begins before the consumer asks for anything.
        assert_eq!(stream.issued(), 6);
        assert_eq!(stream.pending(), 0);
        assert_eq!(clock.overlap_snapshot().windows, 3);
        assert_eq!(drain(&mut stream).len(), 6);
    }

    #[test]
    fn preferred_node_requests_read_locally() {
        let (store, ids) = striped_store(4, 8);
        let clock = SimClock::new();
        let mut stream = store.fetch_stream("t", &clock, 4);
        for (i, &id) in ids.iter().enumerate() {
            stream.push(id, None, i as u64);
        }
        let got = drain(&mut stream);
        assert!(got.iter().all(|c| c.kind == ReadKind::Local));
        let io = clock.snapshot();
        assert_eq!((io.local_reads, io.remote_reads), (8, 0));
        // All-local windows still overlap: 3 of each 4 hidden.
        assert_eq!(clock.overlap_snapshot().hidden_local, 6);
    }

    #[test]
    fn dead_block_yields_error_without_stalling_or_charging() {
        let (store, ids) = striped_store(4, 4);
        store.dfs_mut().fail_node(1); // block 1 is unreplicated on node 1
        let clock = SimClock::new();
        let mut stream = store.fetch_stream("t", &clock, 4);
        for (i, &id) in ids.iter().enumerate() {
            stream.push(id, Some(0), i as u64);
        }
        let mut ok = Vec::new();
        let mut errs = 0usize;
        while let Some(c) = stream.next_completion() {
            match c {
                Ok(c) => ok.push(c.tag),
                Err(_) => errs += 1,
            }
        }
        assert_eq!(errs, 1, "exactly the orphaned block fails");
        ok.sort_unstable();
        assert_eq!(ok, vec![0, 2, 3]);
        // The failed request charged nothing; the 3 survivors did.
        assert_eq!(clock.snapshot().reads(), 3);
    }

    #[test]
    fn cache_hits_complete_immediately_without_window_slots() {
        let (store, ids) = striped_store(4, 4);
        store.enable_cache(8, 2.0);
        // Warm the cache at reader node 0: 1 local + 3 remote misses.
        let warm = SimClock::new();
        for &id in &ids {
            store.read_block("t", id, 0, &warm).unwrap();
        }
        assert_eq!(warm.snapshot().reads(), 4);
        assert_eq!(warm.cache_snapshot().misses, 4);

        let clock = SimClock::new();
        let mut stream = store.fetch_stream("t", &clock, 4);
        for (i, &id) in ids.iter().enumerate() {
            stream.push(id, Some(0), i as u64);
        }
        // Every push hit the cache: nothing pending, nothing issued.
        assert_eq!((stream.pending(), stream.issued()), (0, 0));
        let got = drain(&mut stream);
        assert_eq!(got.len(), 4);
        assert!(got.iter().all(|c| c.kind == ReadKind::CacheHit));
        // Hits are immediate, so they keep push order — no locals-first
        // reordering because no window was ever formed.
        assert_eq!(got.iter().map(|c| c.tag).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let io = clock.snapshot();
        assert_eq!(io.reads(), 0, "hits never touch the I/O tally");
        assert_eq!(clock.overlap_snapshot().windows, 0);
        let cs = clock.cache_snapshot();
        assert_eq!((cs.local_hits, cs.remote_hits, cs.misses), (1, 3, 0));
    }

    #[test]
    fn mixed_hits_shrink_the_issued_window() {
        let (store, ids) = striped_store(4, 4);
        store.enable_cache(8, 2.0);
        let warm = SimClock::new();
        store.read_block("t", ids[1], 0, &warm).unwrap();
        store.read_block("t", ids[2], 0, &warm).unwrap();

        let clock = SimClock::new();
        let mut stream = store.fetch_stream("t", &clock, 4);
        for (i, &id) in ids.iter().enumerate() {
            stream.push(id, Some(0), i as u64);
        }
        // The two hits were staged directly; only the two misses pend,
        // so the "full" window of 4 never triggers an eager issue.
        assert_eq!((stream.ready(), stream.pending()), (2, 2));
        let got = drain(&mut stream);
        assert_eq!(got.len(), 4);
        let io = clock.snapshot();
        let cs = clock.cache_snapshot();
        assert_eq!(io.reads(), 2, "only the misses reached the DFS");
        assert_eq!((cs.hits(), cs.misses), (2, 2));
        // Workload invariant: reads + hits covers every request.
        assert_eq!(io.reads() + cs.hits(), 4);
        // The misses formed one window of two, not four.
        let ov = clock.overlap_snapshot();
        assert_eq!(ov.windows, 1);
        assert_eq!(ov.max_in_flight, 2);
    }

    #[test]
    fn failover_mid_stream_degrades_to_remote_not_error() {
        // Replication 2: every block survives one node failure.
        let store = BlockStore::new(4, 2, 1);
        let ids: Vec<BlockId> =
            (0..8).map(|i| store.write_block("t", vec![row![i as i64]], 1, Some(0))).collect();
        let clock = SimClock::new();
        let mut stream = store.fetch_stream("t", &clock, 4);
        for (i, &id) in ids.iter().enumerate().take(4) {
            stream.push(id, Some(0), i as u64);
        }
        // First window already issued (eager). Now the primary dies
        // mid-stream; the remaining requests fail over to replicas.
        store.dfs_mut().fail_node(0);
        for (i, &id) in ids.iter().enumerate().skip(4) {
            stream.push(id, Some(0), i as u64);
        }
        let got = drain(&mut stream);
        assert_eq!(got.len(), 8, "fail-over must not lose fetches");
        let io = clock.snapshot();
        assert_eq!(io.local_reads, 4, "pre-failure window was primary-local");
        assert_eq!(io.remote_reads, 4, "post-failure fetches fail over remotely");
    }
}
