//! Columnar data plane: wall-clock speedup of `ADB2` blocks over the
//! same blocks in legacy `ADB1` on TPC-H scans and join probes, at
//! bit-identical simulated accounting.
//!
//! One column-wise, late-materializing executor reads both formats; the
//! `ADB1` cells re-encode their blocks through the recovery path a
//! journal written before `ADB2` replays
//! ([`BlockStore::rewrite_as_adb1`]), and the JSON keeps the
//! `columnar` key (`false` = `ADB1`). The simulated currency (block
//! I/Os) is format-blind by design — `ADB2`'s win is *real* CPU time:
//! decode only the predicate and key columns, evaluate into selection
//! bitsets, and materialize only surviving rows in morsel-sized
//! gathers, where an `ADB1` block decodes every row first. This figure
//! measures that win and pins the invariants the format promises:
//!
//! * **scan sweep** — a selective predicate on an *unclustered*
//!   attribute (zone maps cannot skip, every block is decoded): the
//!   `ADB2` scan must be ≥ 4× faster wall-clock than the `ADB1` scan
//!   at identical reads / rows / output;
//! * **clustered cell** — the same scan shape on the clustering
//!   attribute: zone maps must skip ≥ half the candidate blocks before
//!   any read, identically in both formats;
//! * **probe sweep** — a hyper-join whose probe leg has a low hit
//!   rate: batch probing the `ADB2` key column must be ≥ 4× faster
//!   than probing `ADB1` blocks at identical output;
//! * **parity** — the full TPC-H template corpus through the engine,
//!   loaded in `ADB1` vs `ADB2`: rows, `IoStats` (including
//!   `zone_skipped`), and `ShuffleStats` bit-identical — the committed
//!   baseline gates every counter exactly
//!   (`scripts/check_bench_columnar.py`).
//!
//! Wall-clock cells report the *minimum* over several iterations (the
//! noise-robust estimator); counters are deterministic at any speed.
//!
//! Usage: `fig_columnar [--scale X] [--seed N] [--quick]`

use adaptdb_bench::{parse_args, print_table, BenchOpts, Stopwatch};
use adaptdb_common::{
    row, CmpOp, CostParams, Predicate, PredicateSet, Query, Row, Value, ValueRange,
};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{hyper_join, scan_blocks, ExecContext, HyperJoinSpec};
use adaptdb_join::{planner, JoinDecision};
use adaptdb_storage::BlockStore;
use adaptdb_workloads::tpch::{li, Template, TpchGen};

const ROWS_PER_BLOCK: usize = 200;
const NODES: usize = 4;
/// Wall-clock acceptance floor for both timed sweeps.
const SPEEDUP_FLOOR: f64 = 4.0;
/// Minimum fraction of candidate blocks the clustered cell must
/// zone-skip.
const SKIP_RATE_FLOOR: f64 = 0.5;

/// One timed cell: a scan or probe leg in one format.
struct Cell {
    name: &'static str,
    columnar: bool,
    blocks: usize,
    reads: usize,
    zone_skipped: usize,
    rows_scanned: usize,
    rows_out: usize,
    wall_ms: f64,
}

/// One untimed parity cell: the whole TPC-H corpus in one format.
struct Parity {
    columnar: bool,
    queries: usize,
    rows_out: usize,
    reads: usize,
    writes: usize,
    zone_skipped: usize,
    spill_blocks: usize,
    local_fetches: usize,
    remote_fetches: usize,
    bytes_spilled: usize,
}

/// Write `rows` as blocks of `table`, returning ids and per-block
/// min/max ranges of `attr` (the zone map the join planner consumes).
fn write_blocks(
    store: &BlockStore,
    table: &str,
    rows: &[Row],
    attr: u16,
) -> (Vec<u32>, Vec<(u32, ValueRange)>) {
    let arity = rows.first().map(|r| r.values().len()).unwrap_or(0);
    let mut ids = Vec::new();
    let mut ranges = Vec::new();
    for chunk in rows.chunks(ROWS_PER_BLOCK) {
        let mut range = ValueRange::empty();
        for r in chunk {
            range.insert(r.get(attr));
        }
        let id = store.write_block(table, chunk.to_vec(), arity, None);
        ids.push(id);
        ranges.push((id, range));
    }
    (ids, ranges)
}

/// Minimum wall milliseconds of `f` over `iters` runs.
fn min_wall_ms<T>(iters: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters.max(1) {
        let sw = Stopwatch::start();
        let v = f();
        best = best.min(sw.ms());
        out = Some(v);
    }
    (out.unwrap(), best)
}

/// Measure one scan in one format.
fn scan_cell(
    name: &'static str,
    columnar: bool,
    rows: &[Row],
    preds: &PredicateSet,
    iters: usize,
    seed: u64,
) -> Cell {
    let store = BlockStore::new(NODES, 1, seed);
    let (ids, _) = write_blocks(&store, "li", rows, li::ORDERKEY);
    if !columnar {
        store.rewrite_as_adb1("li").expect("rewrite as ADB1");
    }
    let clock = SimClock::new();
    let ctx = ExecContext::single(&store, &clock);
    let (out, wall_ms) = min_wall_ms(iters, || {
        clock.take();
        scan_blocks(ctx, "li", &ids, preds).expect("scan")
    });
    let io = clock.take();
    Cell {
        name,
        columnar,
        blocks: ids.len(),
        reads: io.reads(),
        zone_skipped: io.zone_skipped,
        rows_scanned: io.rows_scanned,
        rows_out: out.len(),
        wall_ms,
    }
}

/// Measure one hyper-join probe leg in one format: a small dimension
/// side (every ~50th orderkey) built against the full lineitem probe
/// side — a ~2% hit rate, the shape late materialization likes least
/// to waste on.
fn probe_cell(name: &'static str, columnar: bool, rows: &[Row], iters: usize, seed: u64) -> Cell {
    let store = BlockStore::new(NODES, 1, seed);
    let (_lids, lranges) = write_blocks(&store, "li", rows, li::ORDERKEY);
    let max_key = rows.iter().map(|r| r.get(li::ORDERKEY).as_int().unwrap()).max().unwrap_or(0);
    let dim: Vec<Row> = (0..=max_key).step_by(50).map(|k| row![k, k * 3]).collect();
    let (_, dranges) = write_blocks(&store, "dim", &dim, 0);
    if !columnar {
        store.rewrite_as_adb1("li").expect("rewrite as ADB1");
        store.rewrite_as_adb1("dim").expect("rewrite as ADB1");
    }
    let decision = planner::plan(&lranges, &dranges, 64, &CostParams::default());
    let JoinDecision::Hyper(plan) = decision else { panic!("expected a hyper-join plan") };
    let clock = SimClock::new();
    let ctx = ExecContext::single(&store, &clock);
    let none = PredicateSet::none();
    let (out, wall_ms) = min_wall_ms(iters, || {
        clock.take();
        hyper_join(
            ctx,
            HyperJoinSpec {
                left_table: "li",
                right_table: "dim",
                left_attr: li::ORDERKEY,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                plan: &plan,
            },
        )
        .expect("hyper join")
    });
    let io = clock.take();
    Cell {
        name,
        columnar,
        blocks: lranges.len() + dranges.len(),
        reads: io.reads(),
        zone_skipped: io.zone_skipped,
        rows_scanned: io.rows_scanned,
        rows_out: out.len(),
        wall_ms,
    }
}

/// Run the whole TPC-H template corpus through the engine, loaded in
/// one format, and total the accounting.
fn parity_cell(opts: &BenchOpts, columnar: bool) -> Parity {
    use adaptdb::{Database, DbConfig, Mode};
    let gen = TpchGen::new(opts.scale.max(0.02), opts.seed);
    let config = DbConfig {
        nodes: NODES,
        replication: 2,
        rows_per_block: 64,
        buffer_blocks: 8,
        threads: 1,
        adapt_selections: false,
        fetch_window: 4,
        seed: opts.seed,
        ..DbConfig::default()
    };
    let mut db = Database::new(config.with_mode(Mode::Adaptive));
    gen.load_converged(&mut db, li::ORDERKEY).expect("load");
    if !columnar {
        for t in db.table_names() {
            db.store().rewrite_as_adb1(&t).expect("rewrite as ADB1");
        }
    }
    let mut q_rng = adaptdb_common::rng::derived(opts.seed, "fig-columnar-parity");
    let queries: Vec<Query> = Template::all().iter().map(|t| t.instantiate(&mut q_rng)).collect();
    let mut p = Parity {
        columnar,
        queries: queries.len(),
        rows_out: 0,
        reads: 0,
        writes: 0,
        zone_skipped: 0,
        spill_blocks: 0,
        local_fetches: 0,
        remote_fetches: 0,
        bytes_spilled: 0,
    };
    for q in &queries {
        let r = db.run(q).expect("query");
        p.rows_out += r.rows.len();
        p.reads += r.stats.query_io.reads();
        p.writes += r.stats.query_io.writes;
        p.zone_skipped += r.stats.query_io.zone_skipped;
        p.spill_blocks += r.stats.shuffle.blocks_spilled;
        p.local_fetches += r.stats.shuffle.local_fetches;
        p.remote_fetches += r.stats.shuffle.remote_fetches;
        p.bytes_spilled += r.stats.shuffle.bytes_spilled;
    }
    p
}

fn json_cell(c: &Cell) -> String {
    format!(
        "    {{\"name\": \"{}\", \"columnar\": {}, \"blocks\": {}, \"reads\": {}, \
         \"zone_skipped\": {}, \"rows_scanned\": {}, \"rows_out\": {}, \"wall_ms\": {:.3}}}",
        c.name,
        c.columnar,
        c.blocks,
        c.reads,
        c.zone_skipped,
        c.rows_scanned,
        c.rows_out,
        c.wall_ms
    )
}

fn json_parity(p: &Parity) -> String {
    format!(
        "    {{\"columnar\": {}, \"queries\": {}, \"rows_out\": {}, \"reads\": {}, \
         \"writes\": {}, \"zone_skipped\": {}, \"spill_blocks\": {}, \"local_fetches\": {}, \
         \"remote_fetches\": {}, \"bytes_spilled\": {}}}",
        p.columnar,
        p.queries,
        p.rows_out,
        p.reads,
        p.writes,
        p.zone_skipped,
        p.spill_blocks,
        p.local_fetches,
        p.remote_fetches,
        p.bytes_spilled
    )
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    scan: &[Cell],
    clustered: &[Cell],
    probe: &[Cell],
    parity: &[Parity],
    scan_speedup: f64,
    probe_speedup: f64,
    opts: &BenchOpts,
) {
    let fmt = |cells: &[Cell]| cells.iter().map(json_cell).collect::<Vec<_>>().join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"columnar\",\n  \"scale\": {},\n  \"seed\": {},\n  \
         \"rows_per_block\": {},\n  \"speedup_floor\": {},\n  \"skip_rate_floor\": {},\n  \
         \"scan_speedup\": {:.2},\n  \"probe_speedup\": {:.2},\n  \"scan\": [\n{}\n  ],\n  \
         \"clustered\": [\n{}\n  ],\n  \"probe\": [\n{}\n  ],\n  \"parity\": [\n{}\n  ]\n}}\n",
        opts.scale,
        opts.seed,
        ROWS_PER_BLOCK,
        SPEEDUP_FLOOR,
        SKIP_RATE_FLOOR,
        scan_speedup,
        probe_speedup,
        fmt(scan),
        fmt(clustered),
        fmt(probe),
        parity.iter().map(json_parity).collect::<Vec<_>>().join(",\n"),
    );
    std::fs::write(path, json).expect("write BENCH_columnar.json");
    println!("wrote {path}");
}

fn table_rows(cells: &[Cell]) -> Vec<Vec<String>> {
    cells
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                if c.columnar { "ADB2".into() } else { "ADB1".into() },
                c.blocks.to_string(),
                c.reads.to_string(),
                c.zone_skipped.to_string(),
                c.rows_scanned.to_string(),
                c.rows_out.to_string(),
                format!("{:.2}", c.wall_ms),
            ]
        })
        .collect()
}

/// The two cells of a sweep must agree on every simulated counter; the
/// wall-clock ratio is the speedup.
fn assert_counts_and_speedup(pair: &[Cell]) -> f64 {
    let (r, c) = (&pair[0], &pair[1]);
    assert!(!r.columnar && c.columnar, "{}: cells out of order", r.name);
    assert_eq!(r.blocks, c.blocks, "{}: block counts diverged", r.name);
    assert_eq!(r.reads, c.reads, "{}: reads diverged", r.name);
    assert_eq!(r.zone_skipped, c.zone_skipped, "{}: zone skips diverged", r.name);
    assert_eq!(r.rows_scanned, c.rows_scanned, "{}: rows scanned diverged", r.name);
    assert_eq!(r.rows_out, c.rows_out, "{}: rows out diverged", r.name);
    r.wall_ms / c.wall_ms.max(1e-9)
}

fn main() {
    let (opts, _) = parse_args();
    let iters = if opts.quick { 3 } else { 10 };
    // A sizeable lineitem corpus, sorted by orderkey so the clustering
    // attribute is real. Every wall-clock cell scans this.
    let gen = TpchGen::new((opts.scale * 4.0).max(0.2), opts.seed);
    let mut rows = gen.lineitem();
    rows.sort_by(|a, b| a.get(li::ORDERKEY).cmp(b.get(li::ORDERKEY)));

    // Selective predicate on QUANTITY — uncorrelated with block order,
    // so zone maps keep every block and decode cost dominates.
    let unclustered = PredicateSet::none().and(Predicate::new(li::QUANTITY, CmpOp::Eq, 7i64));
    let scan = [
        scan_cell("scan-unclustered", false, &rows, &unclustered, iters, opts.seed),
        scan_cell("scan-unclustered", true, &rows, &unclustered, iters, opts.seed),
    ];
    let scan_speedup = assert_counts_and_speedup(&scan);

    // The same scan shape on the clustering attribute: zone maps skip.
    let max_key = rows.last().map(|r| r.get(li::ORDERKEY).as_int().unwrap()).unwrap_or(0);
    let clustered_preds =
        PredicateSet::none().and(Predicate::new(li::ORDERKEY, CmpOp::Lt, Value::Int(max_key / 5)));
    let clustered = [
        scan_cell("scan-clustered", false, &rows, &clustered_preds, iters, opts.seed),
        scan_cell("scan-clustered", true, &rows, &clustered_preds, iters, opts.seed),
    ];
    assert_counts_and_speedup(&clustered);

    let probe = [
        probe_cell("hyper-probe", false, &rows, iters, opts.seed),
        probe_cell("hyper-probe", true, &rows, iters, opts.seed),
    ];
    let probe_speedup = assert_counts_and_speedup(&probe);

    let parity = [parity_cell(&opts, false), parity_cell(&opts, true)];

    let headers = ["cell", "fmt", "blocks", "reads", "zskip", "scanned", "out", "wall ms"];
    print_table(
        "Selective scan, unclustered predicate (decode-bound)",
        &headers,
        &table_rows(&scan),
    );
    print_table(
        "Selective scan, clustered predicate (zone maps)",
        &headers,
        &table_rows(&clustered),
    );
    print_table("Hyper-join probe leg, ~2% hit rate", &headers, &table_rows(&probe));
    println!("\nscan speedup: {scan_speedup:.2}x   probe speedup: {probe_speedup:.2}x");

    // In-binary acceptance: the properties CI gates on must hold here
    // before a baseline is ever written.
    assert!(
        scan_speedup >= SPEEDUP_FLOOR,
        "ADB2 scan speedup {scan_speedup:.2}x below {SPEEDUP_FLOOR}x"
    );
    assert!(
        probe_speedup >= SPEEDUP_FLOOR,
        "ADB2 probe speedup {probe_speedup:.2}x below {SPEEDUP_FLOOR}x"
    );
    let skip_rate = clustered[0].zone_skipped as f64 / clustered[0].blocks as f64;
    assert!(
        skip_rate >= SKIP_RATE_FLOOR,
        "clustered cell skip rate {skip_rate:.2} below {SKIP_RATE_FLOOR}"
    );
    assert_eq!(scan[0].zone_skipped, 0, "unclustered predicate must not zone-skip");
    let (pr, pc) = (&parity[0], &parity[1]);
    assert_eq!(
        (pr.rows_out, pr.reads, pr.writes, pr.zone_skipped),
        (pc.rows_out, pc.reads, pc.writes, pc.zone_skipped),
        "TPC-H I/O accounting diverged across formats"
    );
    assert_eq!(
        (pr.spill_blocks, pr.local_fetches, pr.remote_fetches, pr.bytes_spilled),
        (pc.spill_blocks, pc.local_fetches, pc.remote_fetches, pc.bytes_spilled),
        "TPC-H shuffle accounting diverged across formats"
    );

    write_json(
        "BENCH_columnar.json",
        &scan,
        &clustered,
        &probe,
        &parity,
        scan_speedup,
        probe_speedup,
        &opts,
    );
}
