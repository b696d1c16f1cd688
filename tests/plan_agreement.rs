//! EXPLAIN and execution share one plan. Replaying the Fig. 13b
//! shifting workload from the up-front layout, before every query
//! EXPLAIN's strategy must be the one the read path runs and its
//! candidate blocks the ones the admission estimate counts. The modes
//! cover the three ways planning can drift apart: hyper-join allowed
//! with remainder shuffles and multi-way steps (`Adaptive`, `Fixed`),
//! and the `FullScan` baseline that prunes nothing.

use adaptdb::{cost, readpath, Database, DbConfig, Mode};
use adaptdb_common::rng;
use adaptdb_dfs::SimClock;
use adaptdb_workloads::patterns;
use adaptdb_workloads::tpch::{Template, TpchGen};

const SCALE: f64 = 0.02;
const SEED: u64 = 1;

fn replay(mode: Mode) {
    let mut db = Database::new(DbConfig::default().with_mode(mode));
    TpchGen::new(SCALE, SEED).load_upfront(&mut db).expect("load");
    let sequence = patterns::shifting(&Template::all(), 30, SEED);
    let mut q_rng = rng::derived(SEED, "fig13b");
    for (i, template) in sequence.iter().enumerate() {
        let q = template.instantiate(&mut q_rng);
        let what = format!("{mode:?} query {i} ({})", template.name());
        let report = db.explain(&q).expect("explain");
        let (_, ran, _) = readpath::execute_query(&db, &q, &SimClock::new()).expect("execute");
        assert_eq!(report.strategy, ran, "{what}: EXPLAIN vs execution strategy");
        let explained: usize = report.candidates.iter().map(|(_, m, o)| m + o).sum();
        let estimated = cost::estimate_query(&db, &q).expect("estimate").blocks;
        assert_eq!(explained, estimated, "{what}: EXPLAIN vs admission-estimate candidates");
        db.run(&q).expect("run");
    }
}

#[test]
fn explain_agrees_with_execution_adaptive() {
    replay(Mode::Adaptive);
}

#[test]
fn explain_agrees_with_execution_fixed() {
    replay(Mode::Fixed);
}

#[test]
fn explain_agrees_with_execution_full_scan() {
    replay(Mode::FullScan);
}
