//! Hyper-join execution (§4.1, §6).
//!
//! Each group of the plan becomes one task: read the group's build
//! blocks, build a hash table (bounded by the memory budget the planner
//! already enforced), then stream exactly the group's overlapping probe
//! blocks through it. No shuffle: probe blocks are read (possibly more
//! than once across groups — that is `C_HyJ`), never rewritten.
//!
//! The probe leg reads through the scan's block-read loop
//! ([`crate::scan`]): a [`adaptdb_storage::FetchStream`] of depth
//! `ExecContext::fetch_window` pinned to the group's node, its
//! completions handed back in plan order — so block counts and output
//! are identical at every window (window 1 is the serial leg), only
//! simulated latency overlaps. Probe blocks stay lazily decoded:
//! predicates evaluate column-wise into a selection bitset, the join
//! key column alone is decoded for a batch probe, and only the matching
//! probe rows are ever materialized (in morsel-sized gathers shared
//! with the scan path).

use adaptdb_common::{AttrId, BitSet, PredicateSet, Result, Row};
use adaptdb_join::{HyperJoinPlan, JoinSide};
use adaptdb_storage::LazyBlock;

use crate::context::ExecContext;
use crate::hash_table::JoinHashTable;
use crate::parallel;
use crate::scan::{gather_morsels, select_lazy, stream_blocks};

/// Everything needed to execute one hyper-join.
#[derive(Debug, Clone)]
pub struct HyperJoinSpec<'a> {
    /// Left table name.
    pub left_table: &'a str,
    /// Right table name.
    pub right_table: &'a str,
    /// Join attribute on the left side.
    pub left_attr: AttrId,
    /// Join attribute on the right side.
    pub right_attr: AttrId,
    /// Row-level predicates on the left side.
    pub left_preds: &'a PredicateSet,
    /// Row-level predicates on the right side.
    pub right_preds: &'a PredicateSet,
    /// The block schedule produced by the planner.
    pub plan: &'a HyperJoinPlan,
}

/// Execute a hyper-join; output rows are `left ⋈ right` (left columns
/// first) regardless of which side the hash tables were built on.
pub fn hyper_join(ctx: ExecContext<'_>, spec: HyperJoinSpec<'_>) -> Result<Vec<Row>> {
    let (build_table, probe_table, build_attr, probe_attr, build_preds, probe_preds) =
        match spec.plan.build_side {
            JoinSide::Left => (
                spec.left_table,
                spec.right_table,
                spec.left_attr,
                spec.right_attr,
                spec.left_preds,
                spec.right_preds,
            ),
            JoinSide::Right => (
                spec.right_table,
                spec.left_table,
                spec.right_attr,
                spec.left_attr,
                spec.right_preds,
                spec.left_preds,
            ),
        };

    let tasks: Vec<(Vec<u32>, Vec<u32>)> =
        spec.plan.groups.iter().cloned().zip(spec.plan.probes.iter().cloned()).collect();

    let results = parallel::map_ordered(tasks, ctx.threads, |(build_blocks, probe_blocks)| {
        run_group(
            ctx,
            build_table,
            probe_table,
            build_attr,
            probe_attr,
            build_preds,
            probe_preds,
            spec.plan.build_side,
            &build_blocks,
            &probe_blocks,
        )
    });
    let mut out = Vec::new();
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn run_group(
    ctx: ExecContext<'_>,
    build_table: &str,
    probe_table: &str,
    build_attr: AttrId,
    probe_attr: AttrId,
    build_preds: &PredicateSet,
    probe_preds: &PredicateSet,
    build_side: JoinSide,
    build_blocks: &[u32],
    probe_blocks: &[u32],
) -> Result<Vec<Row>> {
    if build_blocks.is_empty() {
        return Ok(Vec::new());
    }
    // The whole group runs on the node holding the first build block's
    // primary replica (a locality-aware scheduler would do the same);
    // other blocks may be remote reads.
    let node = ctx.store.preferred_node(build_table, build_blocks[0])?;

    let mut table = JoinHashTable::new();
    for &b in build_blocks {
        let (lazy, _) = ctx.store.read_lazy_classified(build_table, b, node, ctx.clock)?;
        // Column-wise filter, then gather only the surviving rows into
        // the hash table in block order.
        let sel = select_lazy(&lazy, build_preds)?;
        ctx.clock.record_rows(lazy.row_count(), sel.count_ones());
        let selected = [(lazy, sel)];
        for row in gather_morsels(ExecContext { threads: 1, ..ctx }, &selected)? {
            table.insert(build_attr, row);
        }
    }
    // Stream the group's probe blocks from the group's node (untraced:
    // groups run in parallel), probing each in plan order.
    let mut out = Vec::new();
    stream_blocks(ctx, probe_table, probe_blocks, Some(node), None, |lazy| {
        probe_block(ctx, &table, lazy, probe_attr, probe_preds, build_side, &mut out)
    })?;
    Ok(out)
}

/// Probe one (lazily-read) block against the group's hash table,
/// appending joined rows in `left ⋈ right` column order.
fn probe_block(
    ctx: ExecContext<'_>,
    table: &JoinHashTable,
    lazy: LazyBlock,
    probe_attr: AttrId,
    probe_preds: &PredicateSet,
    build_side: JoinSide,
    out: &mut Vec<Row>,
) -> Result<()> {
    // Late materialization: selection bitset from the predicate
    // columns, batch-probe the key column, then gather only the probe
    // rows that actually matched.
    let sel = select_lazy(&lazy, probe_preds)?;
    ctx.clock.record_rows(lazy.row_count(), sel.count_ones());
    let keys = lazy.column(probe_attr as usize)?;
    let hits = table.probe_batch(&keys, &sel);
    let mut matched = BitSet::new(lazy.row_count());
    for &(i, _) in &hits {
        matched.set(i);
    }
    let selected = [(lazy, matched)];
    let probe_rows = gather_morsels(ExecContext { threads: 1, ..ctx }, &selected)?;
    debug_assert_eq!(probe_rows.len(), hits.len());
    for ((_, build_rows), probe_row) in hits.iter().zip(&probe_rows) {
        for build_row in *build_rows {
            // Normalize output to left ⋈ right column order.
            let joined = match build_side {
                JoinSide::Left => build_row.concat(probe_row),
                JoinSide::Right => probe_row.concat(build_row),
            };
            out.push(joined);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, CmpOp, CostParams, Predicate, Value, ValueRange};
    use adaptdb_dfs::SimClock;
    use adaptdb_join::planner::{plan, BlockRange};
    use adaptdb_join::JoinDecision;
    use adaptdb_storage::BlockStore;

    /// Build two co-partitioned tables: left has keys 0..n with payload,
    /// right has the same keys with another payload; k keys per block.
    fn setup(n: i64, per_block: i64) -> (BlockStore, Vec<BlockRange>, Vec<BlockRange>) {
        let store = BlockStore::new(4, 1, 1);
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut k = 0i64;
        while k < n {
            let hi = (k + per_block).min(n);
            let lrows = (k..hi).map(|i| row![i, i * 10]).collect();
            let rrows = (k..hi).map(|i| row![i, i * 100]).collect();
            let lb = store.write_block("l", lrows, 2, None);
            let rb = store.write_block("r", rrows, 2, None);
            left.push((lb, ValueRange::new(Value::Int(k), Value::Int(hi - 1))));
            right.push((rb, ValueRange::new(Value::Int(k), Value::Int(hi - 1))));
            k = hi;
        }
        (store, left, right)
    }

    fn run(
        store: &BlockStore,
        left: &[BlockRange],
        right: &[BlockRange],
        buffer: usize,
        threads: usize,
    ) -> (Vec<Row>, adaptdb_common::IoStats) {
        let decision = plan(left, right, buffer, &CostParams::default());
        let JoinDecision::Hyper(p) = decision else { panic!("expected hyper-join") };
        let clock = SimClock::new();
        let none = PredicateSet::none();
        let rows = hyper_join(
            ExecContext::new(store, &clock, threads),
            HyperJoinSpec {
                left_table: "l",
                right_table: "r",
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                plan: &p,
            },
        )
        .unwrap();
        (rows, clock.snapshot())
    }

    #[test]
    fn co_partitioned_join_is_complete_and_correct() {
        let (store, left, right) = setup(64, 8);
        let (mut rows, io) = run(&store, &left, &right, 2, 1);
        assert_eq!(rows.len(), 64);
        rows.sort_by_key(|r| r.get(0).as_int().unwrap());
        for (i, r) in rows.iter().enumerate() {
            let i = i as i64;
            assert_eq!(
                r.values(),
                &[Value::Int(i), Value::Int(i * 10), Value::Int(i), Value::Int(i * 100)]
            );
        }
        // Co-partitioned: 8 build reads + 8 probe reads.
        assert_eq!(io.reads(), 16);
        assert_eq!(io.writes, 0, "hyper-join must not shuffle");
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let (store, left, right) = setup(100, 10);
        let (mut seq, io1) = run(&store, &left, &right, 3, 1);
        let (mut par, io2) = run(&store, &left, &right, 3, 4);
        seq.sort_by_key(|r| r.get(0).as_int().unwrap());
        par.sort_by_key(|r| r.get(0).as_int().unwrap());
        assert_eq!(seq, par);
        assert_eq!(io1.reads(), io2.reads());
    }

    #[test]
    fn output_column_order_is_left_then_right_even_building_right() {
        // Make left much larger so the planner builds on the right.
        let store = BlockStore::new(4, 1, 1);
        let mut left = Vec::new();
        for b in 0..8i64 {
            let rows = (b * 10..b * 10 + 10).map(|i| row![i, 7i64]).collect();
            let id = store.write_block("l", rows, 2, None);
            left.push((id, ValueRange::new(Value::Int(b * 10), Value::Int(b * 10 + 9))));
        }
        let rrows = (0..80i64).map(|i| row![i, 9i64]).collect();
        let rid = store.write_block("r", rrows, 2, None);
        let right = vec![(rid, ValueRange::new(Value::Int(0), Value::Int(79)))];

        let decision = plan(&right, &left, 4, &CostParams::default());
        // Plan with right as the "left" argument to force build_side games;
        // instead use the public API directly:
        let JoinDecision::Hyper(p) = plan(&left, &right, 4, &CostParams::default()) else {
            panic!("expected hyper");
        };
        drop(decision);
        let clock = SimClock::new();
        let none = PredicateSet::none();
        let rows = hyper_join(
            ExecContext::single(&store, &clock),
            HyperJoinSpec {
                left_table: "l",
                right_table: "r",
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                plan: &p,
            },
        )
        .unwrap();
        assert_eq!(rows.len(), 80);
        for r in &rows {
            assert_eq!(r.get(1), &Value::Int(7), "left payload must be column 1");
            assert_eq!(r.get(3), &Value::Int(9), "right payload must be column 3");
        }
    }

    #[test]
    fn predicates_filter_both_sides() {
        let (store, left, right) = setup(40, 5);
        let JoinDecision::Hyper(p) = plan(&left, &right, 2, &CostParams::default()) else {
            panic!()
        };
        let clock = SimClock::new();
        let lp = PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 20i64));
        let rp = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 10i64));
        let rows = hyper_join(
            ExecContext::single(&store, &clock),
            HyperJoinSpec {
                left_table: "l",
                right_table: "r",
                left_attr: 0,
                right_attr: 0,
                left_preds: &lp,
                right_preds: &rp,
                plan: &p,
            },
        )
        .unwrap();
        // Keys in [10, 20).
        assert_eq!(rows.len(), 10);
    }

    /// Probing `ADB2` blocks and the pipelined probe leg must both be
    /// row-, order-, and count-identical to the serial join over the
    /// same blocks in legacy `ADB1`, at every fetch window / thread
    /// count / morsel size — including with predicates filtering both
    /// sides.
    #[test]
    fn columnar_and_pipelined_probe_match_row_join() {
        let (store, left, right) = setup(64, 8);
        let (row_store, _, _) = setup(64, 8);
        row_store.rewrite_as_adb1("l").unwrap();
        row_store.rewrite_as_adb1("r").unwrap();
        let JoinDecision::Hyper(p) = plan(&left, &right, 2, &CostParams::default()) else {
            panic!("expected hyper-join")
        };
        let lp = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 8i64));
        let rp = PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 56i64));
        let spec = |lpreds, rpreds| HyperJoinSpec {
            left_table: "l",
            right_table: "r",
            left_attr: 0,
            right_attr: 0,
            left_preds: lpreds,
            right_preds: rpreds,
            plan: &p,
        };
        let base_clock = SimClock::new();
        let expect =
            hyper_join(ExecContext::single(&row_store, &base_clock), spec(&lp, &rp)).unwrap();
        assert_eq!(expect.len(), 48);
        let base_io = base_clock.take();
        for (format, s) in [("ADB1", &row_store), ("ADB2", &store)] {
            for window in [1, 4] {
                for threads in [1, 4] {
                    let clock = SimClock::new();
                    let ctx = ExecContext::new(s, &clock, threads)
                        .with_fetch_window(window)
                        .with_morsel_rows(3);
                    let got = hyper_join(ctx, spec(&lp, &rp)).unwrap();
                    assert_eq!(got, expect, "{format} w={window} t={threads}");
                    assert_eq!(clock.take(), base_io, "{format} w={window} t={threads}");
                }
            }
        }
    }

    /// The pipelined probe leg hides fetch latency; the window-1 leg
    /// streams the same fetches but hides none. Counts stay equal
    /// either way (pinned above).
    #[test]
    fn pipelined_probe_leg_overlaps_fetches() {
        let (store, left, right) = setup(64, 8);
        let JoinDecision::Hyper(p) = plan(&left, &right, 4, &CostParams::default()) else {
            panic!("expected hyper-join")
        };
        let none = PredicateSet::none();
        let clock = SimClock::new();
        let spec = HyperJoinSpec {
            left_table: "l",
            right_table: "r",
            left_attr: 0,
            right_attr: 0,
            left_preds: &none,
            right_preds: &none,
            plan: &p,
        };
        hyper_join(ExecContext::single(&store, &clock).with_fetch_window(4), spec.clone()).unwrap();
        let ov = clock.overlap_snapshot();
        assert!(ov.fetches > 0, "probe blocks must go through the fetch stream");
        let c2 = SimClock::new();
        hyper_join(ExecContext::single(&store, &c2), spec).unwrap();
        assert_eq!(c2.overlap_snapshot().hidden(), 0);
    }

    #[test]
    fn offset_partitions_read_probe_blocks_multiple_times() {
        // Shift right-side ranges so each build block overlaps two probe
        // blocks; with capacity 1, C(P) > distinct blocks.
        let store = BlockStore::new(4, 1, 1);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for b in 0..8i64 {
            let lrows = (b * 10 + 5..b * 10 + 15).map(|i| row![i]).collect();
            let lid = store.write_block("l", lrows, 1, None);
            left.push((lid, ValueRange::new(Value::Int(b * 10 + 5), Value::Int(b * 10 + 14))));
            let rrows = (b * 10..b * 10 + 10).map(|i| row![i]).collect();
            let rid = store.write_block("r", rrows, 1, None);
            right.push((rid, ValueRange::new(Value::Int(b * 10), Value::Int(b * 10 + 9))));
        }
        let rrows = (80..90i64).map(|i| row![i]).collect();
        let rid = store.write_block("r", rrows, 1, None);
        right.push((rid, ValueRange::new(Value::Int(80), Value::Int(89))));

        let JoinDecision::Hyper(p) = plan(&left, &right, 1, &CostParams::default()) else {
            panic!()
        };
        let clock = SimClock::new();
        let none = PredicateSet::none();
        let rows = hyper_join(
            ExecContext::single(&store, &clock),
            HyperJoinSpec {
                left_table: "l",
                right_table: "r",
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                plan: &p,
            },
        )
        .unwrap();
        // Every left key 5..85 matches exactly one right key.
        assert_eq!(rows.len(), 80);
        assert!(p.c_hyj > 1.0, "offset partitioning must re-read probes");
    }
}
