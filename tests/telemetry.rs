//! Cross-crate telemetry tests: histogram quantile accuracy against a
//! sorted-Vec reference, span-tree determinism (identical runs export
//! byte-identical Chrome traces), the tracing-never-changes-accounting
//! rule, the EXPLAIN ANALYZE contract, and the server's maintenance
//! journal + lane percentiles.

use std::sync::Arc;

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::{chrome_trace_json, rng, AttrValue, Histogram, Query, Trace};
use adaptdb_server::{DbServer, ServerOptions};
use adaptdb_workloads::tpch::{Template, TpchGen};
use adaptdb_workloads::zipf::Zipf;
use rand::RngExt;

/// Nearest-rank percentile over a sorted slice — the formulation the
/// figure binaries used before switching to [`Histogram`].
fn reference_quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The histogram's quantile must land inside the log bucket holding the
/// exact nearest-rank sample — an error of at most one bucket width.
fn assert_quantiles_within_one_bucket(samples: Vec<f64>, label: &str) {
    let mut hist = Histogram::new();
    for &x in &samples {
        hist.record(x);
    }
    let mut sorted = samples;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    for q in [0.10, 0.50, 0.90, 0.95, 0.99] {
        let reference = reference_quantile(&sorted, q);
        let (lo, hi) = Histogram::bucket_bounds(reference);
        let got = hist.quantile(q);
        assert!(
            got >= lo && got <= hi,
            "{label} q={q}: histogram {got} outside bucket [{lo}, {hi}] of reference {reference}"
        );
    }
    // Count, sum-derived mean, and extrema are exact, not bucketed.
    assert_eq!(hist.count() as usize, sorted.len());
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    assert!((hist.mean() - mean).abs() <= 1e-9 * mean.abs().max(1.0));
    assert_eq!(hist.min(), sorted[0]);
    assert_eq!(hist.max(), *sorted.last().expect("non-empty"));
}

#[test]
fn histogram_quantiles_track_reference_on_uniform_samples() {
    let mut rng = rng::derived(17, "hist-uniform");
    let samples: Vec<f64> = (0..4096).map(|_| rng.random_range(0.5..250.0)).collect();
    assert_quantiles_within_one_bucket(samples, "uniform");
}

#[test]
fn histogram_quantiles_track_reference_on_zipfian_samples() {
    // Zipf-distributed "latencies": rank k arrives with probability
    // ∝ 1/k^1.1, value 0.25·(k+1) ms — the shape of a skewed lane.
    let mut rng = rng::derived(23, "hist-zipf");
    let zipf = Zipf::new(1000, 1.1);
    let samples: Vec<f64> = (0..4096).map(|_| 0.25 * (zipf.sample(&mut rng) + 1) as f64).collect();
    assert_quantiles_within_one_bucket(samples, "zipfian");
}

fn tpch_config(trace: bool) -> DbConfig {
    DbConfig {
        rows_per_block: 100,
        buffer_blocks: 8,
        threads: 1,
        seed: 7,
        trace,
        ..DbConfig::default()
    }
}

fn tpch_db(trace: bool) -> Database {
    tpch_db_with(tpch_config(trace))
}

fn tpch_db_with(config: DbConfig) -> Database {
    let gen = TpchGen::new(0.02, 7);
    let mut db = Database::new(config.with_mode(Mode::Adaptive));
    gen.load_upfront(&mut db).expect("load TPC-H");
    db
}

fn seed_queries(n: usize) -> Vec<Query> {
    let templates = Template::join_templates();
    let mut r = rng::derived(7, "telemetry-queries");
    (0..n).map(|i| templates[i % templates.len()].instantiate(&mut r)).collect()
}

#[test]
fn identical_traced_runs_export_byte_identical_chrome_json() {
    let queries = seed_queries(3);
    let run = || {
        let mut db = tpch_db(true);
        let traces: Vec<Arc<Trace>> =
            queries.iter().map(|q| db.run(q).expect("query").trace.expect("tracing on")).collect();
        let parts: Vec<(u32, &Trace)> =
            traces.iter().enumerate().map(|(i, t)| ((i + 1) as u32, t.as_ref())).collect();
        chrome_trace_json(&parts)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical runs must export byte-identical traces");
    assert!(a.contains("\"query\""), "root span must be named 'query'");
}

#[test]
fn tracing_never_changes_accounting() {
    let queries = seed_queries(4);
    let mut on = tpch_db(true);
    let mut off = tpch_db(false);
    for q in &queries {
        let traced = on.run(q).expect("traced run");
        let plain = off.run(q).expect("plain run");
        assert_eq!(traced.rows, plain.rows, "rows must not depend on tracing");
        assert_eq!(
            traced.stats.query_io.reads(),
            plain.stats.query_io.reads(),
            "block reads must not depend on tracing"
        );
        assert_eq!(traced.stats.query_io.writes, plain.stats.query_io.writes);
        assert_eq!(
            traced.stats.repartition_io.writes, plain.stats.repartition_io.writes,
            "adaptation work must not depend on tracing"
        );
        assert!(traced.trace.is_some(), "trace on must attach a span tree");
        assert!(plain.trace.is_none(), "trace off must attach nothing");
    }
}

#[test]
fn explain_analyze_blocks_are_exact_and_estimates_bounded() {
    // Cache pinned off: the read bounds below are for block reads, and
    // a repeated template would otherwise be served from cache.
    let mut db = tpch_db_with(DbConfig { cache_blocks_per_node: 0, ..tpch_config(false) });
    for q in seed_queries(3) {
        let report = db.explain_analyze(&q).expect("explain analyze");
        assert!(!db.config().trace, "explain_analyze must restore the tracing flag");
        let root = report.trace.roots().next().expect("root span");
        // Exact contract: the root span's blocks_read attribute is the
        // run's total block reads, bit for bit.
        let attr = root.attr("blocks_read").expect("blocks_read attribute");
        let AttrValue::Int(blocks) = attr else { panic!("blocks_read must be Int") };
        assert_eq!(*blocks as usize, report.stats.total_io().reads());
        // Root duration covers adaptation + execution: equal to the
        // run's simulated seconds up to ±2 µs of per-leg rounding.
        let total_us = (report.stats.simulated_secs(&db.config().cost) * 1e6).round() as i64;
        let drift = (report.trace.root_duration_us() as i64 - total_us).abs();
        assert!(
            drift <= 2,
            "root span {} µs vs stats {} µs",
            report.trace.root_duration_us(),
            total_us
        );
        // Documented tolerance (ARCHITECTURE.md): the scheduler's
        // candidate-block estimate brackets actual reads within 4x in
        // either direction — it counts candidates before hyper-join
        // pruning and after-the-fact shuffle re-reads.
        let actual = report.stats.query_io.reads().max(1);
        let est = report.explain.est_cost_blocks.max(1);
        assert!(
            est <= actual * 4 && actual <= est * 4,
            "est_cost_blocks {est} vs actual reads {actual} outside 4x tolerance"
        );
        // The rendered report must carry the analyze section.
        let text = report.to_string();
        assert!(text.contains("analyze:"), "Display must include analyze section");
        assert!(text.contains("span tree:"), "Display must include the span tree");
    }
}

#[test]
fn server_journals_maintenance_and_orders_lane_percentiles() {
    let mut server = DbServer::start_with(
        tpch_db(true),
        ServerOptions { workers: Some(2), ..Default::default() },
    );
    let mut session = server.session();
    for q in seed_queries(6) {
        session.run(&q).expect("query");
    }
    server.drain_maintenance();
    let report = server.report();
    for lane in &report.lanes {
        if lane.queries == 0 {
            continue;
        }
        assert!(lane.p50_ms <= lane.p95_ms, "{}: p50 > p95", lane.lane);
        assert!(lane.p95_ms <= lane.p99_ms, "{}: p95 > p99", lane.lane);
        assert!(lane.p99_ms <= lane.max_latency_ms, "{}: p99 > max", lane.lane);
    }
    let events = server.journal_events();
    assert!(
        events.iter().any(|e| e.kind == "adaptation-pass"),
        "maintenance must journal its adaptation passes, got kinds {:?}",
        events.iter().map(|e| e.kind.clone()).collect::<Vec<_>>()
    );
    let mut last_ts = 0;
    for e in &events {
        assert!(e.ts_us >= last_ts, "journal timestamps must be monotone");
        last_ts = e.ts_us;
    }
    let jsonl = server.journal_jsonl();
    assert_eq!(jsonl.lines().count(), events.len(), "one JSON line per event");
    server.stop();
}
