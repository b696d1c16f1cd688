//! Type-1 block processing: scan + filter.
//!
//! Block lists are read through one loop, `stream_blocks`: one
//! [`adaptdb_storage::FetchStream`] of depth `ExecContext::fetch_window`
//! per reader, its out-of-order completions (locals before remotes
//! within a window) handed back to a per-block closure in manifest
//! order. The scan splits the manifest into one contiguous chunk per
//! worker; the hyper-join probe leg streams one chunk pinned to its
//! group's node.
//! Window 1 is the serial case — a one-deep stream through the same
//! code, every read charged in full and no latency hidden — and deeper
//! windows only overlap latency (charged max-of-window), so pipelining
//! changes simulated wall-clock but never row order, counts, or
//! results.
//!
//! The filter stage is **late materialization**: predicates evaluate
//! column-wise over lazily-decoded `ADB2` payloads into a selection
//! [`BitSet`], then only the selected rows are gathered, split into
//! `morsel_rows`-sized morsels dispatched through
//! [`parallel::map_ordered`] (deterministic input order). Legacy `ADB1`
//! blocks decode eagerly at parse time and flow through the same
//! stages, so rows, row order, and every simulated count are
//! independent of the block format. Pruning composes in a fixed order:
//! partition tree (upstream `lookup`) → zone maps (block min/max
//! metadata, counted on `IoStats::zone_skipped`, no I/O charged) →
//! selection bitset within each surviving block.

use adaptdb_common::{BitSet, BlockId, PredicateSet, Result, Row};
use adaptdb_dfs::{NodeId, TraceCtx};
use adaptdb_storage::LazyBlock;

use crate::context::ExecContext;
use crate::parallel;

/// Read the given blocks of `table`, filter rows by `preds`, and return
/// the survivors. Block-level skipping has already happened upstream via
/// `lookup(T, q)` — this operator additionally skips blocks whose range
/// metadata contradicts the predicates (belt and braces; the paper's
/// trees can be stale mid-migration).
pub fn scan_blocks(
    ctx: ExecContext<'_>,
    table: &str,
    blocks: &[BlockId],
    preds: &PredicateSet,
) -> Result<Vec<Row>> {
    let (ctx, span) = ctx.traced("scan");
    let before = span.as_ref().map(|_| ctx.clock.snapshot());
    let out = scan_inner(ctx, table, blocks, preds)?;
    if let (Some(span), Some(before)) = (span, before) {
        let after = ctx.clock.snapshot();
        span.attr_s("table", table);
        span.attr_i("blocks_listed", blocks.len() as i64);
        span.attr_i("blocks_read", (after.reads() - before.reads()) as i64);
        span.attr_i("local_reads", (after.local_reads - before.local_reads) as i64);
        span.attr_i("remote_reads", (after.remote_reads - before.remote_reads) as i64);
        span.attr_i("rows_scanned", (after.rows_scanned - before.rows_scanned) as i64);
        span.attr_i("rows_out", (after.rows_out - before.rows_out) as i64);
        span.attr_i("zone_skipped", (after.zone_skipped - before.zone_skipped) as i64);
    }
    Ok(out)
}

/// Scan body shared by the traced wrapper above.
fn scan_inner(
    ctx: ExecContext<'_>,
    table: &str,
    blocks: &[BlockId],
    preds: &PredicateSet,
) -> Result<Vec<Row>> {
    // Zone-map skip first: per-column min/max metadata excludes whole
    // blocks before any read is issued (no I/O charged, only the
    // `zone_skipped` tally).
    let mut to_read = Vec::with_capacity(blocks.len());
    for &b in blocks {
        if ctx.store.with_block_meta(table, b, |m| preds.may_match(&m.ranges))? {
            to_read.push(b);
        }
    }
    let skipped = blocks.len() - to_read.len();
    if skipped > 0 {
        ctx.clock.record_zone_skips(skipped);
    }
    // Stage A: lazy read + column-wise selection; stage B gathers only
    // the selected rows.
    let selected = read_chunked(ctx, table, &to_read, |lazy| {
        let sel = select_lazy(&lazy, preds)?;
        ctx.clock.record_rows(lazy.row_count(), sel.count_ones());
        Ok((lazy, sel))
    })?;
    gather_morsels(ctx, &selected)
}

/// Read `blocks` of `table` as one contiguous chunk per worker, each
/// chunk through [`stream_blocks`] at the blocks' preferred nodes (a
/// locality-scheduled scan), and map every payload with `per_block`.
/// Results come back in manifest order at any thread count or window.
fn read_chunked<T: Send>(
    ctx: ExecContext<'_>,
    table: &str,
    blocks: &[BlockId],
    per_block: impl Fn(LazyBlock) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    if blocks.is_empty() {
        return Ok(Vec::new());
    }
    let chunk_len = blocks.len().div_ceil(ctx.threads.max(1));
    let chunks: Vec<&[BlockId]> = blocks.chunks(chunk_len).collect();
    let results = parallel::map_ordered(chunks, ctx.threads, |chunk| -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(chunk.len());
        stream_blocks(ctx, table, chunk, None, ctx.worker_trace(), |lazy| {
            out.push(per_block(lazy)?);
            Ok(())
        })?;
        Ok(out)
    });
    let mut out = Vec::with_capacity(blocks.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// The executor's one block-read loop: push every block of `blocks`
/// onto a [`adaptdb_storage::FetchStream`] of depth
/// `ctx.fetch_window`, read at `reader` (`None` = each block's
/// preferred node), and hand each payload to `per_block` in list order.
/// A completion that overtakes an earlier block waits in its slot until
/// every block before it has been handed over. `trace` records a
/// `fetch-window` span per issued window (single-threaded callers only,
/// see [`ExecContext::worker_trace`]).
pub(crate) fn stream_blocks<'a>(
    ctx: ExecContext<'a>,
    table: &str,
    blocks: &[BlockId],
    reader: Option<NodeId>,
    trace: Option<TraceCtx<'a>>,
    mut per_block: impl FnMut(LazyBlock) -> Result<()>,
) -> Result<()> {
    let mut stream = ctx.store.fetch_stream(table, ctx.clock, ctx.fetch_window);
    stream.set_trace(trace);
    for (i, &b) in blocks.iter().enumerate() {
        stream.push(b, reader, i as u64);
    }
    let mut slots: Vec<Option<LazyBlock>> = Vec::new();
    slots.resize_with(blocks.len(), || None);
    let mut next = 0;
    while let Some(completion) = stream.next_completion() {
        let c = completion?;
        slots[c.tag as usize] = Some(c.payload);
        while let Some(lazy) = slots.get_mut(next).and_then(Option::take) {
            per_block(lazy)?;
            next += 1;
        }
    }
    Ok(())
}

/// Evaluate `preds` column-wise over a lazily-decoded block: decode
/// only the predicate columns, AND the per-predicate bitsets. Rows
/// never materialize here.
pub(crate) fn select_lazy(lazy: &LazyBlock, preds: &PredicateSet) -> Result<BitSet> {
    let n = lazy.row_count();
    let mut sel = BitSet::all_set(n);
    for p in preds.predicates() {
        if sel.count_ones() == 0 {
            break;
        }
        let col = lazy.column(p.attr as usize)?;
        sel.intersect_with(&col.eval(p.op, &p.value));
    }
    Ok(sel)
}

/// Stage B of the scan, shared with the hyper-join build and probe legs:
/// split each block's row space into `morsel_rows`-sized ranges,
/// gather each morsel's selected rows in parallel, and concatenate in
/// block-then-row order (deterministic at any thread count).
pub(crate) fn gather_morsels(
    ctx: ExecContext<'_>,
    selected: &[(LazyBlock, BitSet)],
) -> Result<Vec<Row>> {
    let morsel = ctx.morsel_rows.max(1);
    let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
    for (bi, (lazy, _)) in selected.iter().enumerate() {
        let n = lazy.row_count();
        let mut start = 0;
        while start < n {
            let end = (start + morsel).min(n);
            tasks.push((bi, start, end));
            start = end;
        }
    }
    let gathered = parallel::map_ordered(tasks, ctx.threads, |(bi, start, end)| {
        let (lazy, sel) = &selected[bi];
        lazy.gather_range(start, end, sel)
    });
    let mut out = Vec::new();
    for g in gathered {
        out.extend(g?);
    }
    Ok(out)
}

/// Read one block of `table` at `node` and return its rows that match
/// `preds`, in block order: a lazy read, the column-wise selection, then
/// one single-threaded gather of the survivors. Charges the read and the
/// scanned/kept row counts on `ctx.clock`. The hyper-join build leg, the
/// multi-way step build and the shuffle map side read their blocks
/// through this.
pub(crate) fn read_selected(
    ctx: ExecContext<'_>,
    table: &str,
    block: BlockId,
    node: NodeId,
    preds: &PredicateSet,
) -> Result<Vec<Row>> {
    let (lazy, _) = ctx.store.read_lazy_classified(table, block, node, ctx.clock)?;
    let sel = select_lazy(&lazy, preds)?;
    ctx.clock.record_rows(lazy.row_count(), sel.count_ones());
    gather_morsels(ExecContext { threads: 1, ..ctx }, &[(lazy, sel)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, CmpOp, Predicate};
    use adaptdb_dfs::SimClock;
    use adaptdb_storage::BlockStore;

    fn setup() -> (BlockStore, Vec<BlockId>) {
        let store = BlockStore::new(4, 1, 1);
        let mut ids = Vec::new();
        for base in [0i64, 100, 200] {
            let rows = (base..base + 10).map(|i| row![i]).collect();
            ids.push(store.write_block("t", rows, 1, None));
        }
        (store, ids)
    }

    #[test]
    fn full_scan_returns_everything() {
        let (store, ids) = setup();
        let clock = SimClock::new();
        let rows =
            scan_blocks(ExecContext::single(&store, &clock), "t", &ids, &PredicateSet::none())
                .unwrap();
        assert_eq!(rows.len(), 30);
        assert_eq!(clock.snapshot().reads(), 3);
    }

    #[test]
    fn metadata_skipping_avoids_io() {
        let (store, ids) = setup();
        let clock = SimClock::new();
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 200i64));
        let rows = scan_blocks(ExecContext::single(&store, &clock), "t", &ids, &preds).unwrap();
        assert_eq!(rows.len(), 10);
        // Only the third block matches [200, 210): exactly 1 read.
        assert_eq!(clock.snapshot().reads(), 1);
    }

    #[test]
    fn row_filtering_within_blocks() {
        let (store, ids) = setup();
        let clock = SimClock::new();
        let preds = PredicateSet::none()
            .and(Predicate::new(0, CmpOp::Ge, 5i64))
            .and(Predicate::new(0, CmpOp::Lt, 103i64));
        let rows = scan_blocks(ExecContext::single(&store, &clock), "t", &ids, &preds).unwrap();
        assert_eq!(rows.len(), 5 + 3);
        let io = clock.snapshot();
        assert_eq!(io.reads(), 2);
        assert_eq!(io.rows_scanned, 20);
        assert_eq!(io.rows_out, 8);
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let (store, ids) = setup();
        let c1 = SimClock::new();
        let seq = scan_blocks(ExecContext::single(&store, &c1), "t", &ids, &PredicateSet::none())
            .unwrap();
        let c2 = SimClock::new();
        let par = scan_blocks(ExecContext::new(&store, &c2, 4), "t", &ids, &PredicateSet::none())
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(c1.snapshot().reads(), c2.snapshot().reads());
    }

    #[test]
    fn pipelined_scan_is_row_and_count_identical_to_serial() {
        let (store, ids) = setup();
        let c_serial = SimClock::new();
        let serial =
            scan_blocks(ExecContext::single(&store, &c_serial), "t", &ids, &PredicateSet::none())
                .unwrap();
        let c_piped = SimClock::new();
        let piped = scan_blocks(
            ExecContext::single(&store, &c_piped).with_fetch_window(4),
            "t",
            &ids,
            &PredicateSet::none(),
        )
        .unwrap();
        // Same rows in the same (manifest) order, same I/O counts —
        // pipelining only overlaps latency.
        assert_eq!(serial, piped);
        assert_eq!(c_serial.snapshot(), c_piped.snapshot());
        assert_eq!(c_serial.overlap_snapshot().hidden(), 0);
        let ov = c_piped.overlap_snapshot();
        assert_eq!(ov.fetches, 3);
        assert_eq!(ov.hidden_local, 2, "3 local reads in one window: 2 hidden");
        // And the saved latency shows up as strictly lower pipelined time.
        let params = adaptdb_common::CostParams::default();
        assert!(ov.saved_secs(&params) > 0.0);
    }

    #[test]
    fn pipelined_scan_respects_metadata_skipping() {
        let (store, ids) = setup();
        let clock = SimClock::new();
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 200i64));
        let rows = scan_blocks(
            ExecContext::single(&store, &clock).with_fetch_window(8),
            "t",
            &ids,
            &preds,
        )
        .unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(clock.snapshot().reads(), 1, "skipped blocks are never prefetched");
    }

    /// The same blocks in the legacy row format (`ADB1`), as a journal
    /// written before `ADB2` recovers them.
    fn setup_adb1() -> (BlockStore, Vec<BlockId>) {
        let (store, ids) = setup();
        store.rewrite_as_adb1("t").unwrap();
        (store, ids)
    }

    /// `ADB2` blocks, wide config sweep: the scan must be row-, order-,
    /// and count-identical to a serial scan of the same blocks in
    /// `ADB1` at every fetch window / thread count / morsel size.
    #[test]
    fn columnar_scan_matches_row_scan_across_configs() {
        let preds = PredicateSet::none()
            .and(Predicate::new(0, CmpOp::Ge, 3i64))
            .and(Predicate::new(0, CmpOp::Lt, 206i64));
        let (row_store, ids) = setup_adb1();
        let c_row = SimClock::new();
        let expect =
            scan_blocks(ExecContext::single(&row_store, &c_row), "t", &ids, &preds).unwrap();
        let row_io = c_row.take();
        let (cstore, cids) = setup();
        assert_eq!(cids, ids);
        for window in [1, 4] {
            for threads in [1, 4] {
                for morsel in [1, 3, 1024] {
                    let clock = SimClock::new();
                    let ctx = ExecContext::new(&cstore, &clock, threads)
                        .with_fetch_window(window)
                        .with_morsel_rows(morsel);
                    let got = scan_blocks(ctx, "t", &ids, &preds).unwrap();
                    assert_eq!(got, expect, "w={window} t={threads} m={morsel}");
                    assert_eq!(clock.take(), row_io, "w={window} t={threads} m={morsel}");
                }
            }
        }
    }

    /// The scan also reads legacy row-format (`ADB1`) blocks: the lazy
    /// parse decodes them eagerly and everything above it is
    /// unchanged.
    #[test]
    fn columnar_scan_reads_row_format_blocks() {
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 105i64));
        let (store, ids) = setup();
        let c_col = SimClock::new();
        let expect = scan_blocks(ExecContext::single(&store, &c_col), "t", &ids, &preds).unwrap();
        let (row_store, _) = setup_adb1();
        let c_row = SimClock::new();
        let got = scan_blocks(ExecContext::single(&row_store, &c_row), "t", &ids, &preds).unwrap();
        assert_eq!(got, expect);
        assert_eq!(c_row.take(), c_col.take());
    }

    /// Zone-map skips are tallied (identically for both block formats)
    /// without charging any I/O or simulated time for the skipped
    /// blocks.
    #[test]
    fn zone_map_skips_are_counted_not_charged() {
        for (format, (store, ids)) in [("ADB2", setup()), ("ADB1", setup_adb1())] {
            let clock = SimClock::new();
            let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 200i64));
            let rows = scan_blocks(ExecContext::single(&store, &clock), "t", &ids, &preds).unwrap();
            assert_eq!(rows.len(), 10);
            let io = clock.take();
            assert_eq!(io.zone_skipped, 2, "{format}");
            assert_eq!(io.reads(), 1, "{format}");
        }
    }

    #[test]
    fn missing_block_is_an_error() {
        let (store, _) = setup();
        let clock = SimClock::new();
        assert!(scan_blocks(
            ExecContext::single(&store, &clock),
            "t",
            &[99],
            &PredicateSet::none()
        )
        .is_err());
    }
}
