//! End-to-end benchmark of the AdaptDB engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload drift|steady|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Three workloads run against the public `Database` / `DbServer` API on
//! TPC-H data at scale 0.5 (30k lineitem and 7.5k orders rows, blocks of
//! 200 rows on 10 simulated nodes), generated from `--seed`:
//!
//! * `drift`: serial `Database::run`, one closed-loop client, from the
//!   upfront layout, over the Fig. 13b shifting sequence of all eight
//!   templates (240 queries). The only workload where adaptation runs
//!   inline, so adaptation and planner changes show here.
//! * `steady`: `DbServer`, 2 workers, 2 closed-loop sessions cycling the
//!   orderkey-join templates Q3/Q5/Q10/Q12 over the converged layout.
//!   The layout already fits, so adaptation is almost idle and the read
//!   path dominates.
//! * `ingest`: the `steady` layout and reader with 1 closed-loop reader
//!   beside 1 open-loop writer appending quarter-block lineitem batches
//!   on a fixed schedule (lineitem grows by a third per run), so delta
//!   blocks, tail merges and folds compete with reads.
//!
//! Every configuration field is pinned to today's default, with the
//! block cache, columnar execution, durability and tracing off; any
//! `ADAPTDB_*` environment variable is refused. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` runs the same workload, then replays
//! it serially with every call into the engine timed, for per-layer
//! metrics. The last line of output is one JSON object with the result.
//! Exit status: 0 when every check passed, 1 when a correctness check
//! failed (the result line says `"correct": false`), 2 on a usage or
//! engine error, with no result line.

mod alloc;
mod live;
mod measure;
mod replay;
mod setup;

use std::fmt::Write as _;
use std::process::ExitCode;

use adaptdb::Mode;
use adaptdb_common::IngestStats;

use live::{same_accounting, Live, Op};
use measure::{failed_frac, Latencies};
use replay::{ratio, Layers, Replayed};
use setup::Layout;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The traced replay of `steady` and `ingest` covers this many queries.
const REPLAY_QUERIES: usize = 240;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Drift,
    Steady,
    Ingest,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "drift" => Workload::Drift,
                    "steady" => Workload::Steady,
                    "ingest" => Workload::Ingest,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value:?}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload drift|steady|ingest is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// The configuration is pinned in code; an `ADAPTDB_*` variable would
/// silently change defaults elsewhere, so its presence is an error.
fn refuse_engine_env() -> Result<(), String> {
    match std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("ADAPTDB_")) {
        Some((k, _)) => Err(format!(
            "environment variable {} is set; unset every ADAPTDB_* variable, the benchmark \
             pins its configuration",
            k.to_string_lossy()
        )),
        None => Ok(()),
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a correctness check failed.
fn run() -> Result<bool, String> {
    refuse_engine_env()?;
    let args = parse_args(std::env::args().skip(1))?;
    println!(
        "perfbench: workload={:?} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("config: {:?}", setup::pinned_config(Mode::Adaptive));
    if args.workload != Workload::Drift {
        println!("server: {:?}", setup::server_options());
    }
    println!("threads: available_parallelism={:?}", std::thread::available_parallelism().ok());

    let e = |err: adaptdb_common::Error| err.to_string();
    let mut live = match args.workload {
        Workload::Drift => live::drift(args.seed, args.seconds),
        Workload::Steady => live::serve(args.seed, args.seconds, false, args.trace),
        Workload::Ingest => live::serve(args.seed, args.seconds, true, args.trace),
    }
    .map_err(e)?;

    let end_to_end = end_to_end(&live)?;
    print_metrics("end-to-end", &end_to_end);
    let attempted = live.queries.attempted() + live.appends.attempted();
    let failed = live.queries.failures() + live.appends.failures();
    println!(
        "samples: queries={} appends={} measured_s={:.3} pass_s={:.3?} failed_frac={} \
         checked_against_fullscan={}",
        live.queries.attempted(),
        live.appends.attempted(),
        live.wall_s,
        live.pass_s,
        failed_frac(failed, attempted),
        live.checked
    );
    if let Some(r) = &live.report {
        println!("server report: {r}");
    }

    let metrics = if args.trace {
        let layers = per_layer(args.workload, args.seed, &mut live)?;
        print_metrics("per-layer", &layers);
        layers
    } else {
        end_to_end
    };

    for p in live.problems.iter().take(20) {
        println!("check failed: {p}");
    }
    let correct = live.problems.is_empty();
    println!("{}", result_json(correct, attempted, failed, &metrics)?);
    Ok(correct)
}

fn end_to_end(live: &Live) -> Result<Vec<Metric>, String> {
    let completed = live.queries.attempted() - live.queries.failures();
    Ok(vec![
        m("setup_s", live.setup_s, "s"),
        m("qps", completed as f64 / live.wall_s, "1/s"),
        m("query_p50_ms", live.queries.percentile(0.50)?, "ms"),
        m("query_p95_ms", live.queries.percentile(0.95)?, "ms"),
        m("sim_s_per_query", live.sim_s / live.sim_queries.max(1) as f64, "s"),
        m("peak_heap_mb", live.peak_heap_bytes as f64 / (1u64 << 20) as f64, "MB"),
    ])
}

/// `p` of `lat`; 0 when the workload has no such operations.
fn percentile_or_zero(lat: &Latencies, p: f64) -> Result<f64, String> {
    if lat.attempted() == 0 {
        Ok(0.0)
    } else {
        lat.percentile(p)
    }
}

/// The traced run: replay the live run's operations serially with every
/// engine call timed, reconcile the replay with an untraced one, and
/// derive the per-layer metrics.
fn per_layer(workload: Workload, seed: u64, live: &mut Live) -> Result<Vec<Metric>, String> {
    let e = |err: adaptdb_common::Error| err.to_string();
    let (layout, queries) = match workload {
        Workload::Drift => (Layout::Upfront, setup::drift_queries(seed)),
        Workload::Steady | Workload::Ingest => (Layout::Converged, setup::steady_pool(seed)),
    };
    let batches =
        if workload == Workload::Ingest { setup::append_batches(seed) } else { Vec::new() };
    // The replayed prefix: up to REPLAY_QUERIES queries and the appends
    // that completed among them.
    let mut seen = 0;
    let ops: Vec<Op> = live
        .log
        .iter()
        .copied()
        .take_while(|op| {
            let more = seen < REPLAY_QUERIES;
            seen += usize::from(matches!(op, Op::Query(_)));
            more
        })
        .collect();

    let (traced, layers) = replay::traced(seed, layout, &ops, &queries, &batches).map_err(e)?;
    let untraced = match workload {
        // The measured pass already was an untraced serial run of `ops`.
        Workload::Drift => {
            Replayed { outcomes: std::mem::take(&mut live.first_pass), wall_s: live.pass_s[0] }
        }
        _ => replay::untraced(seed, layout, &ops, &queries, &batches).map_err(e)?,
    };
    let query_ops = ops.iter().filter_map(|op| match op {
        Op::Query(i) => Some(*i),
        Op::Append(_) => None,
    });
    if traced.outcomes.len() != untraced.outcomes.len() {
        live.problems.push(format!(
            "traced replay answered {} queries, untraced {}",
            traced.outcomes.len(),
            untraced.outcomes.len()
        ));
    }
    for (k, ((t, u), i)) in
        traced.outcomes.iter().zip(&untraced.outcomes).zip(query_ops).enumerate()
    {
        if t.fp != u.fp || !same_accounting(&t.stats, &u.stats) {
            live.problems.push(format!(
                "traced replay diverged from the untraced run at query {k} (template instance \
                 {i}): rows {:?} vs {:?}",
                t.fp, u.fp
            ));
            break;
        }
        if let Some(want) = live.reference.get(i) {
            if t.fp != *want {
                live.problems.push(format!("replayed query {k} differs from the reference"));
            }
        }
    }
    let (scan_ms, scan_rows) = replay::scan_ms_per_block(seed, layout).map_err(e)?;
    if scan_rows.iter().any(|&n| n != setup::lineitem_rows()) {
        live.problems.push(format!(
            "a predicate-free lineitem scan returned {scan_rows:?} rows, expected {}",
            setup::lineitem_rows()
        ));
    }
    let shares: Vec<String> =
        layers.self_us.keys().map(|k| format!("{k}={:.4}", layers.sim_share(k))).collect();
    println!("replay: simulated self-time share by span: {}", shares.join(" "));
    println!(
        "replay: queries={} appends={} traced_s={:.3} untraced_s={:.3}",
        layers.queries,
        ops.len() - layers.queries,
        traced.wall_s,
        untraced.wall_s
    );
    layer_metrics(live, &layers, &traced, &untraced, scan_ms)
}

fn layer_metrics(
    live: &Live,
    l: &Layers,
    traced: &Replayed,
    untraced: &Replayed,
    scan_ms_per_block: f64,
) -> Result<Vec<Metric>, String> {
    let (passes, deferrals, maint_writes, ingest) = match &live.report {
        Some(r) => (
            r.maintenance_passes as f64,
            r.maintenance_deferrals as f64,
            r.maintenance_io.writes as f64,
            r.ingest,
        ),
        None => (0.0, 0.0, 0.0, IngestStats::default()),
    };
    let io = &l.query_io;
    let rep = &l.repartition_io;
    let mb = (1u64 << 20) as f64;
    Ok(vec![
        m("server.queue_wait_p50_ms", percentile_or_zero(&live.queue_wait, 0.50)?, "ms"),
        m("server.queue_wait_p95_ms", percentile_or_zero(&live.queue_wait, 0.95)?, "ms"),
        m("server.estimate_ms", l.per_query(l.estimate_s) * 1e3, "ms"),
        m("server.maint_passes", passes, "count"),
        m("server.maint_deferrals", deferrals, "count"),
        m("server.maint_block_writes", maint_writes, "blocks"),
        m("core.adapt_ms", l.per_query(l.adapt_s) * 1e3, "ms"),
        m("core.adapt_share", ratio(l.adapt_s, l.query_wall_s), "fraction"),
        m("core.adapt_block_reads", l.per_query(rep.reads() as f64), "blocks/query"),
        m("core.adapt_block_writes", l.per_query(rep.writes as f64), "blocks/query"),
        m("core.adapt_allocs", l.per_query(l.adapt_allocs.calls as f64), "allocs/query"),
        m("core.plan_ms", l.per_query(l.plan_s) * 1e3, "ms"),
        m("core.execute_ms", l.per_query(l.execute_s) * 1e3, "ms"),
        m("core.execute_allocs", l.per_query(l.execute_allocs.calls as f64), "allocs/query"),
        m("core.execute_alloc_mb", l.per_query(l.execute_allocs.bytes as f64) / mb, "MB/query"),
        m("core.hyper_share", ratio(l.hyper_joins as f64, l.joins as f64), "fraction"),
        m("core.ingest_folds", ingest.folds as f64, "count"),
        m("core.ingest_blocks_folded", ingest.blocks_folded as f64, "blocks"),
        m("core.ingest_tail_rewrites", ingest.tail_rewrites as f64, "count"),
        m("core.ingest_max_delta_blocks", live.max_delta_blocks as f64, "blocks"),
        m("ingest.append_p50_ms", percentile_or_zero(&live.appends, 0.50)?, "ms"),
        m("ingest.append_p95_ms", percentile_or_zero(&live.appends, 0.95)?, "ms"),
        m("exec.scan_sim_share", l.sim_share("scan"), "fraction"),
        m("exec.map_spill_sim_share", l.sim_share("map-spill"), "fraction"),
        m("exec.reduce_sim_share", l.sim_share("reduce"), "fraction"),
        m("exec.fetch_sim_share", l.sim_share("fetch"), "fraction"),
        m("exec.probe_sim_share", l.sim_share("probe"), "fraction"),
        m("exec.hyper_join_sim_share", l.sim_share("hyper-join"), "fraction"),
        m("exec.hyper_step_sim_share", l.sim_share("hyper-step"), "fraction"),
        m("exec.adapt_sim_share", l.sim_share("adapt"), "fraction"),
        m("exec.blocks_spilled", l.per_query(l.shuffle.blocks_spilled as f64), "blocks/query"),
        m(
            "exec.build_blocks_spilled",
            l.per_query(l.shuffle.build_blocks_spilled as f64),
            "blocks/query",
        ),
        m(
            "exec.remote_fetch_frac",
            ratio(l.shuffle.remote_fetches as f64, l.shuffle.fetches() as f64),
            "fraction",
        ),
        m(
            "exec.rows_out_per_scanned",
            ratio(io.rows_out as f64, io.rows_scanned as f64),
            "fraction",
        ),
        m("storage.block_reads", l.per_query((io.reads() + rep.reads()) as f64), "blocks/query"),
        m(
            "storage.remote_read_frac",
            ratio((io.remote_reads + rep.remote_reads) as f64, (io.reads() + rep.reads()) as f64),
            "fraction",
        ),
        m(
            "storage.zone_skip_frac",
            ratio(io.zone_skipped as f64, (io.zone_skipped + io.reads()) as f64),
            "fraction",
        ),
        m(
            "storage.overlap_hidden_frac",
            ratio(l.overlap.hidden() as f64, l.overlap.fetches as f64),
            "fraction",
        ),
        m("storage.cache_hit_rate", l.cache.hit_rate(), "fraction"),
        m("storage.scan_ms_per_block", scan_ms_per_block, "ms"),
        m("bench.trace_overhead", ratio(traced.wall_s, untraced.wall_s), "ratio"),
        m("bench.boundary_coverage", l.boundary_coverage(), "fraction"),
        m("bench.writer_late_ms_max", live.writer_late_ms_max, "ms"),
    ])
}

fn print_metrics(kind: &str, metrics: &[Metric]) {
    for x in metrics {
        println!("{kind}: {} = {} {}", x.name, x.value, x.unit);
    }
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, x) in metrics.iter().enumerate() {
        if !x.value.is_finite() {
            return Err(format!("metric {} is not a finite number: {}", x.name, x.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(body, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, x.value, x.unit)
            .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload ingest --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Ingest);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(args("--seed 7").is_err(), "workload is required");
        assert!(args("--workload drift --seconds 0").is_err());
        assert!(args("--workload drift --trace 2").is_err());
        assert!(args("--workload drift --bogus 1").is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line =
            result_json(true, 3, 1, &[m("qps", 2.5, "1/s"), m("setup_s", 0.125, "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"qps\": \
             {\"value\": 2.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
        assert!(result_json(true, 1, 0, &[m("x", f64::NAN, "s")]).is_err());
    }
}
