//! Concurrency tests for the serving runtime: result correctness under
//! parallel clients, snapshot isolation during background adaptation,
//! graceful shutdown, and garbage-collection invariants.

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::{row, AttrValue, JoinQuery, Query, Row, ScanQuery, Schema, ValueType};
use adaptdb_server::{DbServer, ServerOptions};
use std::time::Duration;

fn schema2() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)])
}

fn loaded_db(mode: Mode, threads: usize) -> Database {
    let config = DbConfig {
        rows_per_block: 10,
        window_size: 5,
        buffer_blocks: 2,
        threads,
        mode,
        ..DbConfig::small()
    };
    let mut db = Database::new(config);
    db.create_table("l", schema2(), vec![0, 1]).unwrap();
    db.create_table("r", schema2(), vec![0, 1]).unwrap();
    db.load_rows("l", (0..400i64).map(|i| row![i % 200, i])).unwrap();
    db.load_rows("r", (0..200i64).map(|i| row![i, i * 2])).unwrap();
    db
}

fn join_query() -> Query {
    Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0))
}

fn scan_query(lt: i64) -> Query {
    use adaptdb_common::{CmpOp, Predicate, PredicateSet};
    Query::Scan(ScanQuery::new("r", PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, lt))))
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

#[test]
fn concurrent_clients_match_serial_results() {
    // Serial baseline answers the whole query mix first.
    let queries: Vec<Query> = (0..12)
        .map(|i| if i % 3 == 2 { scan_query(10 + i as i64) } else { join_query() })
        .collect();
    let mut serial = loaded_db(Mode::Adaptive, 1);
    let expected: Vec<Vec<Row>> =
        queries.iter().map(|q| sorted(serial.run(q).unwrap().rows)).collect();

    // Four client threads each run the full mix against one server.
    let server = DbServer::start_with(
        loaded_db(Mode::Adaptive, 1),
        ServerOptions { workers: Some(4), queue_capacity: Some(8), ..Default::default() },
    );
    std::thread::scope(|s| {
        for _ in 0..4 {
            let mut session = server.session();
            let queries = &queries;
            let expected = &expected;
            s.spawn(move || {
                for (q, want) in queries.iter().zip(expected) {
                    let got = sorted(session.run(q).unwrap().rows);
                    assert_eq!(&got, want, "concurrent result diverged from serial");
                }
                assert_eq!(session.stats().queries, queries.len());
            });
        }
    });
    let report = server.report();
    assert_eq!(report.queries, 4 * queries.len() as u64);
    assert_eq!(report.errors, 0);
}

#[test]
fn serving_continues_while_adaptation_runs_in_background() {
    // Adaptive mode with joins on a fresh upfront layout forces smooth
    // migration; clients must keep getting exact results throughout.
    let server = DbServer::start_with(
        loaded_db(Mode::Adaptive, 1),
        ServerOptions { workers: Some(4), queue_capacity: Some(16), ..Default::default() },
    );
    std::thread::scope(|s| {
        for _ in 0..4 {
            let mut session = server.session();
            s.spawn(move || {
                for _ in 0..10 {
                    let res = session.run(&join_query()).unwrap();
                    assert_eq!(res.rows.len(), 400);
                    for r in &res.rows {
                        assert_eq!(r.get(2).as_int().unwrap(), r.get(0).as_int().unwrap());
                    }
                }
            });
        }
    });
    server.drain_maintenance();
    let report = server.report();
    assert!(
        report.maintenance_io.writes > 0,
        "background adaptation must have migrated blocks: {report}"
    );
    // The engine converged to join-attribute trees, exactly like serial.
    server.with_engine(|db| {
        for t in ["l", "r"] {
            assert!(db.table(t).unwrap().tree_for_join_attr(0).is_some(), "{t} not adapted");
        }
    });
}

#[test]
fn retired_blocks_are_garbage_collected_after_drain() {
    let server = DbServer::start(loaded_db(Mode::Adaptive, 1));
    let mut session = server.session();
    for _ in 0..12 {
        session.run(&join_query()).unwrap();
    }
    server.drain_maintenance();
    // After maintenance quiesces, the store holds exactly the blocks the
    // manifests reference: nothing retired lingers, nothing referenced
    // is missing.
    server.with_engine(|db| {
        for t in ["l", "r"] {
            let manifest = db.table(t).unwrap().all_blocks().len();
            let stored = db.store().block_count(t);
            assert_eq!(manifest, stored, "{t}: manifest vs stored blocks");
        }
    });
}

#[test]
fn maintenance_io_stays_off_query_clocks() {
    let server = DbServer::start(loaded_db(Mode::Adaptive, 1));
    let mut session = server.session();
    let mut repartition_io = 0usize;
    for _ in 0..10 {
        let res = session.run(&join_query()).unwrap();
        // Server queries never carry repartition I/O — migration belongs
        // to the maintenance clock. (query_io.writes may be nonzero:
        // shuffle joins legitimately spill on the query clock.)
        repartition_io += res.stats.repartition_io.writes + res.stats.repartition_io.reads();
    }
    server.drain_maintenance();
    assert_eq!(repartition_io, 0, "migration I/O leaked into query accounting");
    assert!(server.report().maintenance_io.writes > 0, "adaptation should have run");
}

#[test]
fn queue_backpressure_and_errors_are_reported() {
    let server = DbServer::start_with(
        loaded_db(Mode::Adaptive, 1),
        ServerOptions { workers: Some(2), queue_capacity: Some(2), ..Default::default() },
    );
    let mut session = server.session();
    // Unknown table surfaces as an error to this client only.
    assert!(session.run(&Query::Scan(ScanQuery::full("nope"))).is_err());
    assert_eq!(session.stats().errors, 1);
    // The server keeps serving afterwards.
    let res = session.run(&scan_query(5)).unwrap();
    assert_eq!(res.rows.len(), 5);
    let report = server.report();
    assert_eq!(report.queue_capacity, 2);
    assert_eq!(report.workers, 2);
    assert_eq!(report.errors, 1);
}

#[test]
fn stop_is_graceful_and_idempotent() {
    let mut server = DbServer::start(loaded_db(Mode::Adaptive, 1));
    let mut session = server.session();
    session.run(&join_query()).unwrap();
    server.stop();
    // Idempotent; post-shutdown submissions fail cleanly.
    server.stop();
    assert!(session.run(&join_query()).is_err());
}

#[test]
fn tables_created_mid_serving_become_queryable() {
    let server = DbServer::start(loaded_db(Mode::Adaptive, 1));
    server.with_engine(|db| {
        db.create_table("late", schema2(), vec![0]).unwrap();
        db.load_rows("late", (0..50i64).map(|i| row![i, i])).unwrap();
    });
    // The new table is visible immediately, even with zero prior
    // successful queries to tick the maintenance loop.
    let res = server.run(&Query::Scan(ScanQuery::full("late"))).unwrap();
    assert_eq!(res.rows.len(), 50);
}

#[test]
fn drain_after_stop_returns_immediately() {
    let mut server = DbServer::start(loaded_db(Mode::Adaptive, 1));
    server.run(&join_query()).unwrap();
    server.stop();
    // Must not hang waiting on a joined maintenance thread.
    server.drain_maintenance();
}

#[test]
fn fixed_mode_serves_without_any_maintenance_writes() {
    let mut db = loaded_db(Mode::Fixed, 1);
    // Pre-converge so Fixed mode hyper-joins from the start.
    db = {
        let config = db.config().clone();
        let mut fresh = Database::new(config);
        fresh.create_table("l", schema2(), vec![1]).unwrap();
        fresh.create_table("r", schema2(), vec![1]).unwrap();
        fresh
            .load_two_phase("l", (0..400i64).map(|i| row![i % 200, i]).collect(), 0, None)
            .unwrap();
        fresh.load_two_phase("r", (0..200i64).map(|i| row![i, i * 2]).collect(), 0, None).unwrap();
        fresh
    };
    let server = DbServer::start(db);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let mut session = server.session();
            s.spawn(move || {
                for _ in 0..5 {
                    let res = session.run(&join_query()).unwrap();
                    assert_eq!(res.rows.len(), 400);
                }
            });
        }
    });
    server.drain_maintenance();
    assert_eq!(server.report().maintenance_io.writes, 0, "Fixed mode must not adapt");
}

/// A maintenance step that fails after its query succeeded is counted
/// on the report and journaled with its error text, not dropped.
#[test]
fn failed_maintenance_steps_are_counted_and_journaled() {
    let config = DbConfig {
        rows_per_block: 10,
        ingest_fold_blocks: 1,
        trace: true,
        mode: Mode::Fixed,
        ..DbConfig::small()
    };
    let nodes = config.nodes;
    let mut db = Database::new(config);
    db.create_table("r", schema2(), vec![0, 1]).unwrap();
    db.load_rows("r", (0..200i64).map(|i| row![i, i * 2])).unwrap();
    let server = DbServer::start(db);
    // One delta block: the next observation of `r` makes maintenance
    // fold it, which reads it.
    server.append("r", (200..205i64).map(|i| row![i, i * 2]).collect()).unwrap();
    server.with_engine(|db| {
        // Maintenance waits on the engine lock held here, so the query
        // succeeds on its published snapshot first; then every node
        // fails and the fold cannot read the delta block.
        assert_eq!(server.run(&scan_query(1000)).unwrap().rows.len(), 205);
        for n in 0..nodes {
            db.inject_node_failure(n as adaptdb_dfs::NodeId);
        }
    });
    server.drain_maintenance();
    assert_eq!(server.report().maintenance_errors, 1);
    let errors: Vec<_> =
        server.journal_events().into_iter().filter(|e| e.kind == "maintenance-error").collect();
    assert_eq!(errors.len(), 1, "one journal event per failed step");
    let field = |name: &str| {
        errors[0].fields.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone()).unwrap()
    };
    assert_eq!(field("step"), AttrValue::Str("adapt_now".into()));
    let AttrValue::Str(text) = field("error") else { panic!("error text must be a string") };
    assert!(!text.is_empty());
}

/// Attribute ids past a table's schema are rejected up front by the
/// serial engine and the server alike, and a one-worker server keeps
/// serving afterwards — checked under a timeout, so a lost worker fails
/// the test instead of hanging it.
#[test]
fn out_of_range_attributes_error_and_never_kill_a_worker() {
    use adaptdb_common::{CmpOp, Error, JoinStep, Predicate, PredicateSet};
    let full_join = JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0);
    let bad = [
        Query::Scan(ScanQuery::new(
            "r",
            PredicateSet::none().and(Predicate::new(9, CmpOp::Lt, 5i64)),
        )),
        Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 9)),
        // The intermediate of a 2-column ⋈ 2-column join has 4 columns.
        Query::MultiJoin {
            first: full_join,
            steps: vec![JoinStep {
                intermediate_attr: 4,
                table: ScanQuery::full("r"),
                table_attr: 0,
            }],
        },
    ];
    let mut db = loaded_db(Mode::Adaptive, 1);
    for q in &bad {
        assert!(matches!(db.run(q), Err(Error::UnknownAttribute(_))), "{q:?}");
    }
    assert_eq!(db.run(&scan_query(5)).unwrap().rows.len(), 5);

    let server = DbServer::start_with(
        loaded_db(Mode::Adaptive, 1),
        ServerOptions { workers: Some(1), ..Default::default() },
    );
    let mut session = server.session();
    let (tx, rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let errors: Vec<bool> =
            bad.iter().map(|q| matches!(session.run(q), Err(Error::UnknownAttribute(_)))).collect();
        let _ = tx.send((errors, session.run(&scan_query(5)).map(|r| r.rows.len())));
    });
    let (errors, next) =
        rx.recv_timeout(Duration::from_secs(60)).expect("the lone worker stopped serving");
    client.join().expect("client thread panicked");
    assert_eq!(errors, vec![true; 3]);
    assert_eq!(next.unwrap(), 5);
    let report = server.report();
    assert_eq!((report.queries, report.errors, report.in_flight), (4, 3, 0));
}

#[test]
fn report_exposes_queue_and_inflight_gauges() {
    let db = loaded_db(Mode::Fixed, 1);
    let server = DbServer::start(db);
    // Idle server: both gauges at zero, estimate zero.
    let idle = server.report();
    assert_eq!(idle.queue_depth, 0);
    assert_eq!(idle.in_flight, 0);
    assert_eq!(idle.est_queue_wait_ms, 0.0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let mut session = server.session();
            s.spawn(move || {
                for _ in 0..3 {
                    session.run(&join_query()).unwrap();
                }
            });
        }
    });
    // Quiesced again after the burst; Display carries the gauges.
    let done = server.report();
    assert_eq!(done.queries, 12);
    assert_eq!(done.in_flight, 0);
    assert!(done.to_string().contains("in flight"));
}

#[test]
fn sessions_aggregate_overlap_stats_under_pipelining() {
    // Shuffle-heavy mode with a pinned pipelined window (explicit so
    // the ADAPTDB_FETCH_WINDOW override can't change the assertions):
    // sessions must see hidden fetch latency accumulate.
    let config = DbConfig {
        rows_per_block: 10,
        window_size: 5,
        buffer_blocks: 2,
        threads: 1,
        fetch_window: 4,
        mode: Mode::Amoeba,
        ..DbConfig::small()
    };
    let mut db = Database::new(config);
    db.create_table("l", schema2(), vec![0, 1]).unwrap();
    db.create_table("r", schema2(), vec![0, 1]).unwrap();
    db.load_rows("l", (0..400i64).map(|i| row![i % 200, i])).unwrap();
    db.load_rows("r", (0..200i64).map(|i| row![i, i * 2])).unwrap();
    let server = DbServer::start(db);
    let mut session = server.session();
    for _ in 0..3 {
        session.run(&join_query()).unwrap();
    }
    let stats = session.stats();
    assert!(stats.shuffle.fetches() > 0, "Amoeba joins shuffle");
    assert!(stats.overlap.fetches > 0, "fetches went through the stream");
    assert!(stats.overlap.hidden() > 0, "windows > 1 hide latency");
    assert!(stats.overlap.max_in_flight > 1);
    // The overlap breakdown never exceeds what was actually read.
    assert!(stats.overlap.fetches <= stats.io.reads());
}

#[test]
fn latency_aware_admission_sheds_load_beyond_wait_bound() {
    let db = loaded_db(Mode::Fixed, 1);
    // One worker, deep queue, and an unsatisfiable wait bound of 0 ms:
    // once one query has completed (mean latency > 0), any queued
    // backlog must trip the estimate.
    let server = DbServer::start_with(
        db,
        ServerOptions {
            workers: Some(1),
            queue_capacity: Some(64),
            max_queue_wait_ms: Some(0.0),
            ..Default::default()
        },
    );
    // An empty queue always admits (estimate is 0 × mean = 0).
    server.run(&join_query()).unwrap();
    let mut shed = 0usize;
    let mut served = 0usize;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..8 {
            let mut session = server.session();
            handles.push(s.spawn(move || {
                let mut rejected = 0usize;
                let mut ok = 0usize;
                for _ in 0..4 {
                    match session.run(&join_query()) {
                        Ok(_) => ok += 1,
                        Err(e) => {
                            assert!(
                                e.to_string().contains("admission rejected"),
                                "unexpected error: {e}"
                            );
                            rejected += 1;
                        }
                    }
                }
                (ok, rejected)
            }));
        }
        for h in handles {
            let (ok, rejected) = h.join().unwrap();
            served += ok;
            shed += rejected;
        }
    });
    assert!(shed > 0, "8 clients on 1 worker with a 0 ms bound must shed");
    assert_eq!(served + shed, 32);
    // Admitted queries all ran to completion despite the shedding.
    assert_eq!(server.report().queries, served as u64 + 1);
}
