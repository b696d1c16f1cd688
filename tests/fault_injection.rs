//! Fault-injection tests: node failures under HDFS-style replication.
//!
//! The paper's substrate (HDFS, replication factor 3) tolerates node
//! loss transparently at the cost of remote reads; the simulated DFS
//! reproduces that, and these tests pin the behaviour end-to-end
//! through the full query stack.

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::{
    row, Error, JoinQuery, PredicateSet, Query, Row, ScanQuery, Schema, ValueType,
};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{reduce_partition, ExecContext, ShuffleOptions, ShuffleService};
use adaptdb_storage::BlockStore;

fn schema2() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)])
}

fn config(replication: usize) -> DbConfig {
    DbConfig {
        nodes: 4,
        replication,
        rows_per_block: 16,
        buffer_blocks: 2,
        threads: 1,
        ..DbConfig::default()
    }
}

fn db(replication: usize) -> Database {
    db_with(config(replication))
}

fn db_with(config: DbConfig) -> Database {
    let mut db = Database::new(config);
    db.create_table("l", schema2(), vec![1]).unwrap();
    db.create_table("r", schema2(), vec![1]).unwrap();
    let l: Vec<Row> = (0..240i64).map(|i| row![i % 60, i]).collect();
    let r: Vec<Row> = (0..60i64).map(|i| row![i, i * 2]).collect();
    db.load_two_phase("l", l, 0, None).unwrap();
    db.load_two_phase("r", r, 0, None).unwrap();
    db
}

fn join() -> Query {
    Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0))
}

/// With replication 2, losing a node changes scheduling, not results:
/// every block remains readable through a surviving replica and the
/// join output is bit-identical.
#[test]
fn replicated_cluster_survives_node_loss() {
    // Cache pinned off: the third run must read blocks, not hit cache.
    let mut d = db_with(DbConfig { cache_blocks_per_node: 0, ..config(2) });
    let mut before = d.run(&join()).unwrap().rows;
    d.inject_node_failure(0);
    let mut after = d.run(&join()).unwrap().rows;
    before.sort_by_key(|r| (r.get(0).clone(), r.get(1).clone()));
    after.sort_by_key(|r| (r.get(0).clone(), r.get(1).clone()));
    assert_eq!(before, after, "results must be unchanged by fail-over");
    // Same total block reads: fail-over reroutes, it does not re-read.
    let b = d.run(&join()).unwrap();
    assert!(b.stats.query_io.reads() > 0);
}

/// Losing two of four nodes with replication 2 can strand blocks; when
/// it does, queries fail with a clean DFS error rather than wrong
/// results. With our deterministic placement, at least one block loses
/// both replicas.
#[test]
fn double_failure_is_a_clean_error_or_full_result() {
    let mut d = db(2);
    let expected_rows = d.run(&join()).unwrap().rows.len();
    d.inject_node_failure(0);
    d.inject_node_failure(1);
    match d.run(&join()) {
        Ok(res) => assert_eq!(res.rows.len(), expected_rows),
        Err(e) => assert!(matches!(e, Error::Dfs(_)), "unexpected error: {e}"),
    }
}

/// Unreplicated storage loses data with its node — and says so.
#[test]
fn unreplicated_cluster_fails_loudly() {
    let mut d = db(1);
    d.run(&join()).unwrap();
    d.inject_node_failure(0);
    let err = d.run(&join()).expect_err("blocks on node 0 must be unreachable");
    assert!(matches!(err, Error::Dfs(_)), "got {err}");
}

/// Recovery restores service: queries run identically after the node
/// returns, and blocks on the recovered node are locally readable again
/// (verified at the DFS layer).
#[test]
fn recovery_restores_local_reads() {
    let mut d = db(2);
    d.inject_node_failure(2);
    let degraded = d.run(&join()).unwrap();
    d.recover_node(2);
    let recovered = d.run(&join()).unwrap();
    assert_eq!(degraded.rows.len(), recovered.rows.len());
    assert!(!d.store().dfs().is_dead(2));
    // Every stored block has a live preferred node again.
    for table in ["l", "r"] {
        for b in d.store().block_ids(table) {
            d.store().preferred_node(table, b).unwrap();
        }
    }
}

/// Reducer placement is a one-shot snapshot of the live nodes taken
/// when the shuffle opens; a node that dies *after* placement but
/// *before* the fetch leg must not sink the join. The rerouted reduce
/// task runs on a fail-over node, so runs whose surviving replica
/// lives elsewhere now charge Remote — the same contract as the
/// map-side fail-over.
#[test]
fn reducer_node_death_mid_shuffle_fails_over() {
    let write_inputs = |store: &BlockStore| -> (Vec<u32>, Vec<u32>) {
        let mut lids = Vec::new();
        let mut rids = Vec::new();
        for k in 0..8i64 {
            let range = || k * 50..(k + 1) * 50;
            lids.push(store.write_block("l", range().map(|i| row![i, i]).collect(), 2, None));
            rids.push(store.write_block("r", range().map(|i| row![i, -i]).collect(), 2, None));
        }
        (lids, rids)
    };
    // Spilled runs replicated ×2, so a reducer node can die without
    // stranding its partition's runs.
    let shuffle = ShuffleOptions { partitions: Some(4), replication: 2, split_threshold: None };
    let none = PredicateSet::none();
    let run = |fail_reducer: bool| -> (Vec<Row>, adaptdb_common::ShuffleStats, bool) {
        let store = BlockStore::new(4, 2, 17);
        let (lids, rids) = write_inputs(&store);
        let clock = SimClock::new();
        let ctx = ExecContext::single(&store, &clock).with_shuffle(shuffle);
        let svc = ShuffleService::new(ctx, 4, 50, "l+r").unwrap();
        // Map phase completes against a healthy cluster…
        let left = svc.spill_blocks("l", &lids, 0, &none).unwrap();
        let right = svc.spill_blocks("r", &rids, 0, &none).unwrap();
        let mut rerouted = false;
        if fail_reducer {
            // …then partition 0's reducer dies before any fetch.
            let victim = svc.reducer_nodes()[0];
            store.dfs_mut().fail_node(victim);
            rerouted = svc.reducer_node(0) != victim;
        }
        let plan = svc.split_plan(&left, &right);
        let mut rows = Vec::new();
        for (p, &k) in plan.iter().enumerate() {
            rows.extend(reduce_partition(&svc, p, k, &left, &right, 0, 0).unwrap());
        }
        svc.cleanup();
        rows.sort_by(|a, b| a.values().cmp(b.values()));
        (rows, clock.shuffle_snapshot(), rerouted)
    };
    let (healthy_rows, healthy_sh, _) = run(false);
    let (degraded_rows, degraded_sh, rerouted) = run(true);
    assert_eq!(healthy_rows.len(), 400);
    assert_eq!(healthy_rows, degraded_rows, "reducer fail-over must not change the join");
    assert!(rerouted, "partition 0 must run on a fail-over node");
    // Every run is still fetched exactly once, and the rerouted
    // reducer's lost co-location shows up as remote (not local) reads.
    assert_eq!(degraded_sh.fetches(), degraded_sh.blocks_spilled);
    assert!(degraded_sh.remote_fetches > 0, "fail-over fetches must charge Remote");
    assert!(healthy_sh.remote_fetches > 0);
}

/// Adaptation keeps working on a degraded cluster: repartitioning
/// writes avoid the dead node and queries stay correct throughout.
#[test]
fn adaptation_continues_on_degraded_cluster() {
    let config = DbConfig {
        nodes: 4,
        replication: 2,
        rows_per_block: 16,
        buffer_blocks: 2,
        threads: 1,
        window_size: 5,
        ..DbConfig::default()
    };
    let mut d = Database::new(config.with_mode(Mode::Adaptive));
    d.create_table("l", schema2(), vec![1]).unwrap();
    d.create_table("r", schema2(), vec![1]).unwrap();
    d.load_rows("l", (0..240i64).map(|i| row![i % 60, i])).unwrap();
    d.load_rows("r", (0..60i64).map(|i| row![i, i * 2])).unwrap();

    d.inject_node_failure(3);
    let mut last = None;
    for _ in 0..8 {
        let res = d.run(&join()).unwrap();
        assert_eq!(res.rows.len(), 240);
        last = Some(res);
    }
    // Still converges to hyper-join despite the failure.
    assert_eq!(last.unwrap().stats.strategy, adaptdb_common::stats::JoinStrategy::HyperJoin);
}
