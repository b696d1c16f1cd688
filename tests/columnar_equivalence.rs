//! Block-format equivalence acceptance tests: `ADB2` vs legacy `ADB1`.
//!
//! The engine writes every block in the columnar `ADB2` format and
//! executes column-wise (selection bitsets, zone-map skipping,
//! morsel-driven gathers, batch probes). Blocks in the row-oriented
//! `ADB1` format still exist — a journal written before `ADB2` holds
//! them — and are produced here through that recovery path
//! (`BlockStore::rewrite_as_adb1`: `codec::encode_block` +
//! `BlockStore::restore_block`). The format changes *how* bytes are
//! laid out and rows are materialized — never what a query returns or
//! what it costs in the simulated currency. These tests pin that
//! end-to-end: on TPC-H and on Zipfian synthetic joins, a layout held
//! in `ADB1` must be row-identical to the same layout in `ADB2` with
//! bit-identical `IoStats` (including `zone_skipped`), `ShuffleStats`,
//! block boundaries, and per-block byte sizes; zone-map skipping must
//! never drop a qualifying row under randomized predicates; and `ADB1`
//! blocks must keep decoding inside a database that writes `ADB2`.

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::{row, CmpOp, Predicate, PredicateSet, Query, Row, ScanQuery, Value};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{scan_blocks, shuffle_join, ExecContext, ShuffleJoinSpec, ShuffleOptions};
use adaptdb_storage::BlockStore;
use adaptdb_workloads::tpch::{li, Template, TpchGen};
use adaptdb_workloads::zipf;
use proptest::prelude::*;

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

const TPCH_TABLES: [&str; 5] = ["lineitem", "orders", "customer", "part", "supplier"];

/// The converged TPC-H layout, held in legacy `ADB1` when `adb1`.
fn tpch_db(adb1: bool, mode: Mode) -> Database {
    let gen = TpchGen::new(0.02, 5);
    let config = DbConfig {
        nodes: 4,
        replication: 2,
        rows_per_block: 64,
        buffer_blocks: 8,
        threads: 1,
        adapt_selections: false,
        fetch_window: 4,
        morsel_rows: 24, // several morsels per block
        seed: 5,
        ..DbConfig::default()
    };
    let mut db = Database::new(config.with_mode(mode));
    gen.load_converged(&mut db, li::ORDERKEY).unwrap();
    if adb1 {
        for t in db.table_names() {
            db.store().rewrite_as_adb1(&t).unwrap();
        }
    }
    db
}

/// The canonical byte-size definition makes block boundaries,
/// per-block row counts, byte sizes, and zone maps *identical* across
/// formats — metadata re-derived from `ADB1` bytes on recovery equals
/// what the `ADB2` writer recorded.
#[test]
fn block_boundaries_and_metadata_are_format_invariant() {
    let row_db = tpch_db(true, Mode::Adaptive);
    let col_db = tpch_db(false, Mode::Adaptive);
    for t in TPCH_TABLES {
        let row_blocks = row_db.table(t).unwrap().all_blocks();
        let col_blocks = col_db.table(t).unwrap().all_blocks();
        assert_eq!(row_blocks, col_blocks, "{t}: block ids/boundaries diverged");
        assert!(!row_blocks.is_empty(), "{t}: corpus must load blocks");
        for &b in &row_blocks {
            let rm = row_db
                .store()
                .with_block_meta(t, b, |m| (m.row_count, m.byte_size, format!("{:?}", m.ranges)))
                .unwrap();
            let cm = col_db
                .store()
                .with_block_meta(t, b, |m| (m.row_count, m.byte_size, format!("{:?}", m.ranges)))
                .unwrap();
            assert_eq!(rm, cm, "{t}/{b}: block metadata diverged across formats");
        }
    }
}

/// TPC-H end-to-end (scans + every join template, adaptation and
/// migrations included): the `ADB2` layout must return the same rows
/// as the `ADB1` layout with bit-identical I/O, shuffle, and
/// repartition accounting — `IoStats` equality covers `zone_skipped`
/// too.
#[test]
fn tpch_columnar_matches_row_format_bit_identically() {
    for mode in [Mode::Adaptive, Mode::Amoeba] {
        let mut row_db = tpch_db(true, mode);
        let mut col_db = tpch_db(false, mode);
        let mut q_rng = adaptdb_common::rng::derived(5, "columnar-equivalence");
        let queries: Vec<Query> =
            Template::all().iter().map(|t| t.instantiate(&mut q_rng)).collect();
        for (i, q) in queries.iter().enumerate() {
            let r = row_db.run(q).unwrap();
            let c = col_db.run(q).unwrap();
            assert_eq!(sorted(r.rows.clone()), sorted(c.rows.clone()), "template {i} diverged");
            assert_eq!(r.stats.strategy, c.stats.strategy, "template {i}: plans diverged");
            assert_eq!(r.stats.query_io, c.stats.query_io, "template {i}: I/O diverged");
            assert_eq!(r.stats.shuffle, c.stats.shuffle, "template {i}: shuffle diverged");
            assert_eq!(
                r.stats.repartition_io, c.stats.repartition_io,
                "template {i}: migration diverged"
            );
        }
        // Post-workload: migrations wrote new blocks — boundaries must
        // still agree block for block.
        for t in TPCH_TABLES {
            assert_eq!(
                row_db.table(t).unwrap().all_blocks(),
                col_db.table(t).unwrap().all_blocks(),
                "{t}: boundaries diverged after adaptation"
            );
        }
    }
}

/// A selective scan on an attribute the tree does not index: zone maps
/// must actually skip blocks (same tally both formats), and the scan
/// must return identical rows.
#[test]
fn tpch_selective_scan_skips_zones_identically() {
    let mut row_db = tpch_db(true, Mode::Fixed);
    let mut col_db = tpch_db(false, Mode::Fixed);
    // lineitem is partitioned on orderkey; shipdate is only visible to
    // the per-block zone maps.
    let q = Query::Scan(ScanQuery::new(
        "lineitem",
        PredicateSet::none().and(Predicate::new(li::SHIPDATE, CmpOp::Lt, Value::Date(80))),
    ));
    let r = row_db.run(&q).unwrap();
    let c = col_db.run(&q).unwrap();
    assert_eq!(sorted(r.rows), sorted(c.rows));
    assert_eq!(r.stats.query_io, c.stats.query_io);
    assert!(r.stats.query_io.zone_skipped > 0, "zone maps must exclude whole blocks");
}

/// Zipfian synthetic join on the raw executor surface: inputs in
/// `ADB1` and in `ADB2` must agree row for row and count for count,
/// skew mitigations included.
#[test]
fn zipfian_shuffle_join_is_format_invariant() {
    let mk = |adb1: bool| {
        let store = BlockStore::new(4, 1, 9);
        let mut rng = adaptdb_common::rng::derived(9, "columnar-zipf");
        let fact = zipf::zipf_rows(2000, 100, 1.1, &mut rng);
        let dim = zipf::key_rows(100);
        let mut lids = Vec::new();
        let mut rids = Vec::new();
        for chunk in fact.chunks(50) {
            lids.push(store.write_block("l", chunk.to_vec(), 2, None));
        }
        for chunk in dim.chunks(50) {
            rids.push(store.write_block("r", chunk.to_vec(), 2, None));
        }
        if adb1 {
            store.rewrite_as_adb1("l").unwrap();
            store.rewrite_as_adb1("r").unwrap();
        }
        (store, lids, rids)
    };
    let run = |adb1: bool| {
        let (store, lids, rids) = mk(adb1);
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock, 2)
            .with_shuffle(ShuffleOptions {
                partitions: Some(4),
                replication: 1,
                split_threshold: Some(2.0),
            })
            .with_fetch_window(4)
            .with_morsel_rows(16);
        let none = PredicateSet::none();
        let rows = shuffle_join(
            ctx,
            ShuffleJoinSpec {
                left_table: "l",
                left_blocks: &lids,
                right_table: "r",
                right_blocks: &rids,
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                rows_per_block: 50,
            },
        )
        .unwrap();
        (sorted(rows), clock.snapshot(), clock.shuffle_snapshot())
    };
    let (row_rows, row_io, row_sh) = run(true);
    let (col_rows, col_io, col_sh) = run(false);
    assert_eq!(row_rows.len(), 2000, "every fact row matches exactly one dim key");
    assert_eq!(row_rows, col_rows);
    assert_eq!(row_io, col_io);
    assert_eq!(row_sh, col_sh);
}

/// Legacy compatibility: a database keeps reading `ADB1` blocks. The
/// corpus is recovered in the legacy format, then the engine runs over
/// it — and once adaptation migrates blocks, the table holds both wire
/// formats at once. Results and accounting must match an all-`ADB2`
/// database throughout.
#[test]
fn adb1_blocks_decode_inside_a_columnar_database() {
    let mk = |adb1: bool| {
        let gen = TpchGen::new(0.01, 13);
        let config = DbConfig {
            nodes: 4,
            replication: 1,
            rows_per_block: 64,
            buffer_blocks: 8,
            threads: 1,
            fetch_window: 4,
            seed: 13,
            ..DbConfig::default()
        };
        let mut db = Database::new(config.with_mode(Mode::Adaptive));
        gen.load_converged(&mut db, li::ORDERKEY).unwrap();
        if adb1 {
            // Every loaded block becomes ADB1, as a pre-ADB2 journal
            // recovers it.
            for t in db.table_names() {
                db.store().rewrite_as_adb1(&t).unwrap();
            }
        }
        db
    };
    let mut row_db = mk(true);
    let mut col_db = mk(false);
    let mut q_rng = adaptdb_common::rng::derived(13, "columnar-legacy");
    // Join templates trigger migrations, so the legacy database ends up
    // with ADB1 originals next to freshly-written ADB2 blocks.
    for (i, t) in Template::all().iter().enumerate() {
        let q = t.instantiate(&mut q_rng);
        let r = row_db.run(&q).unwrap();
        let c = col_db.run(&q).unwrap();
        assert_eq!(sorted(r.rows), sorted(c.rows), "template {i} diverged on mixed formats");
        assert_eq!(r.stats.query_io, c.stats.query_io, "template {i}: I/O diverged");
        assert_eq!(r.stats.shuffle, c.stats.shuffle, "template {i}: shuffle diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zone-map skipping never drops a qualifying row: for random data
    /// and random predicates, the scan (over `ADB2` or `ADB1` blocks,
    /// serial and pipelined) returns exactly the brute-force filter of
    /// the full corpus, in insertion order.
    #[test]
    fn zone_map_skipping_never_drops_rows(
        keys in prop::collection::vec(-50i64..50, 1..120),
        attr in 0u16..3,
        op_pick in 0u8..6,
        bound in -60i64..60,
        adb1_blocks in any::<bool>(),
    ) {
        let op = [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
            [op_pick as usize];
        // Three columns: the raw key, a shifted key, and a string
        // rendering (exercises Str zone maps and Str gathers).
        let rows: Vec<Row> = keys
            .iter()
            .map(|&k| row![k, k + 7, format!("s{:+04}", k)])
            .collect();
        let value = if attr == 2 {
            Value::Str(format!("s{:+04}", bound))
        } else {
            Value::Int(bound)
        };
        let preds = PredicateSet::none().and(Predicate::new(attr, op, value));
        let expect: Vec<Row> = rows.iter().filter(|r| preds.matches(r)).cloned().collect();

        let store = BlockStore::new(2, 1, 1);
        let mut ids = Vec::new();
        for chunk in rows.chunks(16) {
            ids.push(store.write_block("t", chunk.to_vec(), 1, None));
        }
        if adb1_blocks {
            store.rewrite_as_adb1("t").unwrap();
        }
        for window in [1usize, 4] {
            let clock = SimClock::new();
            let ctx = ExecContext::single(&store, &clock)
                .with_fetch_window(window)
                .with_morsel_rows(5);
            let got = scan_blocks(ctx, "t", &ids, &preds).unwrap();
            prop_assert_eq!(
                &got, &expect,
                "adb1={} window={} dropped or invented rows",
                adb1_blocks, window
            );
        }
    }
}
