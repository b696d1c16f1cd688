#!/usr/bin/env python3
"""CI gate for the figure benchmarks' `BENCH_<bench>.json` files.

Usage: check_bench.py <fresh BENCH_<bench>.json> <committed baseline>

The fresh document's `bench` field picks its spec from `SPECS`; a
baseline of another bench fails. Each spec is one table:

* **schema** (fresh and baseline) — required top-level keys (dotted
  paths reach into nested objects); per sweep, the keys every cell
  carries, the fields that key a cell (no duplicates), and its shape:
  non-empty, or an exact count and order of one field's values; some
  sweeps must also ascend strictly in one field or cover fixed keys.
* **baseline diff** — per sweep, fields compared against the baseline
  cell with the same key (a lost baseline cell fails): `exact` fields
  are bit-identical and the fresh run holds exactly the baseline's
  cells; `rise` fields may not rise more than TOLERANCE (a cheaper run
  passes); `drift` fields may not move more than TOLERANCE relative to
  the baseline either way (0 -> 0 is no drift).
* **contract** — one function of within-run checks on the fresh run.

Every simulated count is deterministic (simulated I/O, fixed seed), so
drift inside the tolerance still means an accounting change: the
tolerance only absorbs intentional retunes. Wall-clock fields are never
diffed against a baseline; only within-run ratios of them are gated.
"""

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

TOLERANCE = 0.20
# shuffle: a fetch window >= 4 must cut the fetch leg's simulated
# wall-clock by at least this factor vs serial (block counts equal).
MIN_OVERLAP_FACTOR = 1.5
# skew: skewed (s=1.2) p99 task time may exceed uniform (s=0.0) by at
# most this factor when splitting + budgeting are on.
P99_FACTOR = 3.0
# columnar: scan and probe speedup floor, clustered zone-skip floor.
SPEEDUP_FLOOR = 4.0
SKIP_RATE_FLOOR = 0.5
# cache: the featured budget must cut remote-fetch simulated seconds by
# at least this factor against the uncached cell.
MIN_REMOTE_REDUCTION = 3.0
# throughput: lanes holds interactive p95 at least 2x lower than FIFO at
# equal offered load, and its throughput within 10% of FIFO (the
# acceptance bar); `fair` gets a looser bound, its DRR bookkeeping makes
# its short-run makespan noisier.
LANES_P95_FACTOR = 2.0
QPS_TOLERANCE = 0.10
FAIR_QPS_TOLERANCE = 0.20
MIN_STORM_BATCH_SHARE = 0.5
POLICIES = ("fifo", "lanes", "fair")
LANES = ("interactive", "batch")


class Fail(Exception):
    pass


def need(ok, msg: str) -> None:
    if not ok:
        raise Fail(msg)


@dataclass(frozen=True)
class Sweep:
    path: str
    cell: Sequence[str]
    key: Sequence[str] = ()
    order: Optional[Tuple[str, tuple]] = None
    ascending: Optional[str] = None
    cover: Sequence[tuple] = ()
    exact: Sequence[str] = ()
    rise: Sequence[str] = ()
    drift: Sequence[str] = ()


@dataclass(frozen=True)
class Spec:
    top: Tuple[str, ...]
    sweeps: Sequence[Sweep]
    contract: Callable[[dict], None]
    exact_top: Sequence[str] = ()


def get(doc, path: str):
    for part in path.split("."):
        doc = doc[part]
    return doc


def has(doc, path: str) -> bool:
    try:
        get(doc, path)
        return True
    except (KeyError, TypeError):
        return False


def cells_by_key(sw: Sweep, doc: dict) -> dict:
    return {tuple(c[k] for k in sw.key): c for c in get(doc, sw.path)}


def validate(doc: dict, spec: Spec, where: str) -> None:
    for key in spec.top + tuple(sw.path for sw in spec.sweeps):
        need(has(doc, key), f"{where}: missing key {key!r}")
    for sw in spec.sweeps:
        cells = get(doc, sw.path)
        if sw.order:
            field, values = sw.order
            need(len(cells) == len(values), f"{where}: {sw.path} must hold {len(values)} cells")
        need(cells, f"{where}: {sw.path} is empty")
        for cell in cells:
            for key in sw.cell:
                need(key in cell, f"{where}: {sw.path} cell missing key {key!r}")
        if sw.order:
            need(
                tuple(c[field] for c in cells) == values,
                f"{where}: {sw.path} cells must be ordered {field} = {list(values)}",
            )
        if sw.ascending:
            got = [c[sw.ascending] for c in cells]
            need(
                all(lo < hi for lo, hi in zip(got, got[1:])),
                f"{where}: {sw.path} must be sorted by strictly ascending {sw.ascending}: {got}",
            )
        if sw.key:
            keys = list(cells_by_key(sw, doc))
            need(len(keys) == len(cells), f"{where}: {sw.path} repeats a cell key")
            for k in sw.cover:
                need(k in keys, f"{where}: {sw.path} missing {k} cell")


def diff(fresh: dict, base: dict, spec: Spec) -> None:
    for key in spec.exact_top:
        need(
            fresh[key] == base[key],
            f"{key} {fresh[key]} vs baseline {base[key]} "
            f"(quick run against a full baseline? regenerate with matching flags)",
        )
    regressions = []
    for sw in spec.sweeps:
        if not (sw.exact or sw.rise or sw.drift):
            continue
        fresh_cells, base_cells = cells_by_key(sw, fresh), cells_by_key(sw, base)
        if sw.exact:
            need(
                fresh_cells.keys() == base_cells.keys(),
                f"{sw.path} cells {list(fresh_cells)} vs baseline {list(base_cells)}",
            )
        for key, b in base_cells.items():
            f = fresh_cells.get(key)
            need(f is not None, f"fresh run lost {sw.path} cell {key} present in the baseline")
            for m in sw.exact:
                need(f[m] == b[m], f"{sw.path} cell {key}: {m} {f[m]} vs baseline {b[m]}")
            for m in sw.rise:
                if f[m] > b[m] * (1.0 + TOLERANCE):
                    regressions.append(f"{sw.path} {key}: {m} {f[m]:.3f} vs baseline {b[m]:.3f}")
            for m in sw.drift:
                bv, fv = float(b[m]), float(f[m])
                if bv == 0.0 and fv == 0.0:
                    continue
                drift = abs(fv - bv) / max(abs(bv), 1e-9)
                need(
                    not drift > TOLERANCE,
                    f"{sw.path} cell {key} field {m!r} drifted {drift:.1%} ({bv} -> {fv})",
                )
    need(not regressions, f"cost regressed >{TOLERANCE:.0%}:\n  " + "\n  ".join(regressions))


def shuffle_contract(doc: dict) -> None:
    """Pipelining is count-invariant and genuinely overlaps; single-node
    shuffles are fully local."""
    window = doc["window_sweep"]
    serial = next((c for c in window if c["fetch_window"] == 1), None)
    need(serial is not None, "window_sweep has no serial (fetch_window=1) cell")
    need(serial["hidden_fetches"] == 0, "serial fetching must hide nothing")

    def counts(c):
        return (c["spill_blocks"], c["local_fetches"], c["remote_fetches"])

    for c in window:
        w = c["fetch_window"]
        need(
            counts(c) == counts(serial),
            f"window {w} changed block counts {counts(serial)} -> {counts(c)}; "
            f"pipelining must be count-invariant",
        )
        need(
            c["fetch_secs_pipelined"] <= c["fetch_secs_serial"] + 1e-9,
            f"window {w} pipelined slower than serial",
        )
        if w >= 4:
            factor = c["fetch_secs_serial"] / max(c["fetch_secs_pipelined"], 1e-9)
            need(
                factor >= MIN_OVERLAP_FACTOR,
                f"window {w} overlap factor {factor:.2f} below the {MIN_OVERLAP_FACTOR}x minimum",
            )
    for sweep in ("node_sweep", "locality_sweep", "window_sweep"):
        for c in doc[sweep]:
            need(c["nodes"] != 1 or c["locality"] == 1.0, "single-node shuffle must be fully local")


def skew_contract(doc: dict) -> None:
    """Bounded tail, bounded memory, fetch accounting, row invariance."""
    for sweep in ("skew_sweep", "budget_sweep", "parity"):
        for c in doc[sweep]:
            key = (sweep, c["s"], c["budget"], c["split"])
            fetches = c["local_fetches"] + c["remote_fetches"]
            need(
                fetches == c["spill_blocks"],
                f"{key}: fetches {fetches} != spill blocks {c['spill_blocks']}; "
                f"broadcasts/build-spill leaked into run fetches",
            )
            if c["budget"] is None:
                need(c["build_spill_blocks"] == 0, f"{key}: unbudgeted build spilled")
            else:
                need(
                    c["peak_mem_blocks"] <= c["budget"],
                    f"{key}: peak {c['peak_mem_blocks']} blocks exceeds budget {c['budget']}",
                )
            need(c["split"] or c["split_partitions"] == 0, f"{key}: split off but partitions split")

    sweep = sorted(doc["skew_sweep"], key=lambda c: c["s"])
    uniform, skewed = sweep[0], sweep[-1]
    need(uniform["s"] == 0.0 and skewed["s"] >= 1.2, "skew_sweep must span s=0.0 .. s>=1.2")
    need(
        skewed["p99_task_secs"] <= P99_FACTOR * max(uniform["p99_task_secs"], 1e-9),
        f"p99 at s={skewed['s']} is {skewed['p99_task_secs']:.3f}s, > {P99_FACTOR}x "
        f"the uniform run's {uniform['p99_task_secs']:.3f}s",
    )
    need(skewed["split_partitions"] != 0, f"s={skewed['s']} did not trip the split threshold")
    rows = {c["rows_out"] for c in doc["budget_sweep"] + doc["parity"]}
    need(len(rows) == 1, f"rows_out varies across the budget sweep: {sorted(rows)}")


def columnar_contract(doc: dict) -> None:
    """Format-blind counts, the speedup floors, zone-map placement."""
    for sweep in ("scan", "clustered", "probe", "parity"):
        row, col = doc[sweep]
        for m in COLUMNAR_PARITY if sweep == "parity" else COLUMNAR_PAIR:
            need(
                row[m] == col[m],
                f"{sweep}: {m} diverged across formats ({row[m]} vs {col[m]}); "
                f"the simulated currency must be format-blind",
            )
    for name in ("scan", "probe"):
        ratio = doc[f"{name}_speedup"]
        need(
            ratio >= SPEEDUP_FLOOR,
            f"columnar {name} speedup {ratio:.2f}x below the {SPEEDUP_FLOOR}x floor",
        )
        # The reported ratio must be the one the wall clocks imply.
        row, col = doc[name]
        implied = row["wall_ms"] / max(col["wall_ms"], 1e-9)
        need(
            abs(implied - ratio) <= max(0.05 * implied, 0.01),
            f"{name}_speedup {ratio} inconsistent with wall_ms ({implied:.2f})",
        )
    need(doc["scan"][0]["zone_skipped"] == 0, "unclustered scan skipped zones")
    clustered = doc["clustered"][0]
    rate = clustered["zone_skipped"] / max(clustered["blocks"], 1)
    need(
        rate >= SKIP_RATE_FLOOR,
        f"clustered skip rate {rate:.2f} below the {SKIP_RATE_FLOOR} floor "
        f"({clustered['zone_skipped']}/{clustered['blocks']})",
    )


def cache_contract(doc: dict) -> None:
    """Read/hit exchange, monotone sweep, remote cut, hot-build reuse."""
    sweep = doc["budget_sweep"]
    off = next((c for c in sweep if c["cache_blocks"] == 0), None)
    need(off is not None, "budget_sweep has no cache_blocks=0 cell")
    need(
        (off["hits"], off["misses"], off["evictions"]) == (0, 0, 0),
        f"the cache-off cell must not cache anything: {off}",
    )
    off_reads = off["local_reads"] + off["remote_reads"]
    for c in sweep:
        reads = c["local_reads"] + c["remote_reads"]
        need(
            reads + c["hits"] == c["accesses"],
            f"budget {c['cache_blocks']} breaks the exchange invariant: "
            f"{reads} reads + {c['hits']} hits != {c['accesses']} accesses",
        )
        need(
            reads == off_reads - c["hits"],
            f"budget {c['cache_blocks']} reads don't trade against hits",
        )
    for lo, hi in zip(sweep, sweep[1:]):
        need(hi["hits"] >= lo["hits"], "hits must be monotone in the budget")
        need(hi["remote_reads"] <= lo["remote_reads"], "remote reads must shrink with the budget")
    featured = next((c for c in sweep if c["cache_blocks"] == doc["default_budget"]), None)
    need(featured is not None, "budget_sweep is missing the default budget cell")
    reduction = off["remote_fetch_secs"] / max(featured["remote_fetch_secs"], 1e-9)
    need(
        reduction >= MIN_REMOTE_REDUCTION,
        f"default budget cuts remote-fetch cost only {reduction:.2f}x (< {MIN_REMOTE_REDUCTION}x)",
    )
    cold, *warm = doc["build_sweep"]
    need(
        cold["pass"] == 1 and cold["spill_blocks"] != 0,
        f"build_sweep must start with a spilling cold pass: {cold}",
    )
    for w in warm:
        need(
            w["spill_blocks"] < cold["spill_blocks"],
            f"warm pass {w['pass']} does not reuse the hot build: "
            f"{w['spill_blocks']} vs cold {cold['spill_blocks']} spills",
        )
        need(w["sim_secs"] < cold["sim_secs"], f"warm pass {w['pass']} is not cheaper than cold")


def ingest_contract(doc: dict) -> None:
    """Accounting, row conservation, bounded fold lag, liveness."""
    for c in doc["cells"]:
        rate, rounds = c["rate"], c["rounds"]
        need(c["appends"] == rounds, f"rate {rate}: appends {c['appends']} != rounds {rounds}")
        need(
            c["rows_appended"] == rate * rounds,
            f"rate {rate}: rows_appended {c['rows_appended']} != rate * rounds {rate * rounds}",
        )
        need(
            c["rows_total"] == doc["base_rows"] + c["rows_appended"],
            f"rate {rate}: conservation broken — rows_total {c['rows_total']} != base "
            f"{doc['base_rows']} + appended {c['rows_appended']} (rows lost or duplicated)",
        )
        need(c["folds"] > 0, f"rate {rate}: load-paced maintenance never folded")
        bound = doc["fold_blocks"] + math.ceil(rate / doc["rows_per_block"]) + 1
        need(
            c["max_backlog"] <= bound,
            f"rate {rate}: fold backlog {c['max_backlog']} exceeds bound {bound} "
            f"(threshold {doc['fold_blocks']} + one append)",
        )
    written = [c["delta_blocks_written"] for c in doc["cells"]]
    need(
        written == sorted(written),
        f"delta blocks written must grow with the ingest rate, got {written}",
    )


def throughput_contract(doc: dict) -> None:
    """The cost-aware scheduler's acceptance properties on the mixed
    point-query + scan-storm + adaptation-on scenario, comparing
    policies within the fresh run (same machine, same load)."""
    p95 = {(c["policy"], c["lane"]): c["p95_ms"] for c in doc["mixed"]["lanes"]}
    policies = {c["policy"]: c for c in doc["mixed"]["policies"]}
    fifo_p95 = p95["fifo", "interactive"]
    lanes_p95, fair_p95 = p95["lanes", "interactive"], p95["fair", "interactive"]
    need(
        lanes_p95 * LANES_P95_FACTOR <= fifo_p95,
        f"lanes interactive p95 {lanes_p95:.2f} ms is not {LANES_P95_FACTOR}x lower "
        f"than fifo {fifo_p95:.2f} ms",
    )
    need(
        fair_p95 <= fifo_p95,
        f"fair interactive p95 {fair_p95:.2f} ms exceeds fifo {fifo_p95:.2f} ms",
    )
    fifo = policies["fifo"]
    for policy, tolerance in (("lanes", QPS_TOLERANCE), ("fair", FAIR_QPS_TOLERANCE)):
        cell = policies[policy]
        need(cell["queries"] == fifo["queries"], f"{policy} ran a different offered load than fifo")
        need(
            cell["qps"] >= fifo["qps"] * (1.0 - tolerance),
            f"{policy} throughput {cell['qps']:.1f} q/s regresses more than "
            f"{tolerance:.0%} vs fifo {fifo['qps']:.1f} q/s",
        )
    for policy in POLICIES:
        cell = policies[policy]
        need(
            cell["maintenance_deferrals"] >= 1,
            f"{policy} run never deferred maintenance under load — pacing is not engaging",
        )
        need(
            cell["storm_batch_share"] >= MIN_STORM_BATCH_SHARE,
            f"{policy} classified only {cell['storm_batch_share']:.0%} of storm joins "
            f"into the batch lane",
        )
        need(
            0.0 < cell["fairness_index"] <= 1.0 + 1e-9,
            f"{policy} fairness index {cell['fairness_index']} out of range",
        )


SHUFFLE_CELL = (
    "nodes", "replication", "fetch_window", "input_blocks", "spill_blocks", "local_fetches",
    "remote_fetches", "hidden_fetches", "locality", "cost_per_block", "sim_secs",
    "sim_secs_pipelined", "fetch_secs_serial", "fetch_secs_pipelined",
)
# Counters the budget-∞/split-off parity cell keeps bit-identical to the
# baseline: with the feature off, the engine is the pre-skew engine.
SKEW_PARITY_EXACT = (
    "input_blocks", "spill_blocks", "build_spill_blocks", "broadcast_fetches", "local_fetches",
    "remote_fetches", "split_partitions", "peak_mem_blocks", "max_recursion_depth", "rows_out",
    "cost_per_block", "sim_secs",
)
SKEW_CELL = ("s", "budget", "split", "p99_task_secs", "max_task_secs", "mean_task_secs")
SKEW_CELL += SKEW_PARITY_EXACT
# Counters identical within each row/columnar pair and to the baseline.
COLUMNAR_PAIR = ("blocks", "reads", "zone_skipped", "rows_scanned", "rows_out")
COLUMNAR_PARITY = (
    "queries", "rows_out", "reads", "writes", "zone_skipped", "spill_blocks", "local_fetches",
    "remote_fetches", "bytes_spilled",
)
CACHE_CELL = (
    "cache_blocks", "accesses", "hits", "misses", "hit_rate", "local_reads", "remote_reads",
    "evictions", "remote_fetch_secs", "sim_secs",
)
# Every ingest counter but the wall-clock `p95_ms` is simulated; the
# simulated read p95 is deterministic.
INGEST_EXACT = (
    "rounds", "appends", "rows_appended", "delta_blocks_written", "tail_rewrites", "folds",
    "blocks_folded", "max_backlog", "rows_total", "query_rows_out", "reads_p95",
)
THROUGHPUT_CELL = (
    "clients", "adaptive", "queries", "secs", "qps", "mean_latency_ms", "maintenance_writes",
    "sim_secs_serial", "sim_secs_pipelined",
)
THROUGHPUT_LANE = ("policy", "lane", "queries", "mean_ms", "p50_ms", "p95_ms", "p99_ms")
THROUGHPUT_POLICY = (
    "policy", "queries", "secs", "qps", "maintenance_writes", "maintenance_deferrals",
    "fairness_index", "storm_batch_share",
)
TOP = ("bench", "scale", "seed")
PAIR = ("columnar", (False, True))

SPECS = {
    "shuffle": Spec(
        TOP + ("rows_per_block",),
        [
            Sweep(s, SHUFFLE_CELL, ("nodes", "replication", "fetch_window"),
                  rise=("cost_per_block", "sim_secs_pipelined"))
            for s in ("node_sweep", "locality_sweep", "window_sweep")
        ],
        shuffle_contract,
    ),
    "skew": Spec(
        TOP + ("rows_per_block", "split_threshold"),
        [
            Sweep(s, SKEW_CELL, ("s", "budget", "split"), rise=("cost_per_block", "sim_secs"),
                  order=("budget", (None,)) if s == "parity" else None,
                  exact=SKEW_PARITY_EXACT if s == "parity" else ())
            for s in ("skew_sweep", "budget_sweep", "parity")
        ],
        skew_contract,
    ),
    "columnar": Spec(
        TOP + ("rows_per_block", "speedup_floor", "skip_rate_floor", "scan_speedup",
               "probe_speedup"),
        [
            Sweep(s, ("name", "columnar", "wall_ms") + COLUMNAR_PAIR, ("columnar",), PAIR,
                  exact=COLUMNAR_PAIR)
            for s in ("scan", "clustered", "probe")
        ]
        + [Sweep("parity", ("columnar",) + COLUMNAR_PARITY, ("columnar",), PAIR,
                 exact=COLUMNAR_PARITY)],
        columnar_contract,
    ),
    "cache": Spec(
        TOP + ("rows_per_block", "blocks", "nodes", "zipf_s", "default_budget"),
        [
            Sweep("budget_sweep", CACHE_CELL, ("cache_blocks",), ascending="cache_blocks",
                  drift=("hit_rate", "remote_fetch_secs", "sim_secs")),
            Sweep("build_sweep", ("pass", "spill_blocks", "cache_hits", "sim_secs"), ("pass",),
                  drift=("spill_blocks", "sim_secs")),
        ],
        cache_contract,
    ),
    "ingest": Spec(
        TOP + ("rows_per_block", "fold_blocks", "rounds", "base_rows"),
        [Sweep("cells", ("rate", "p95_ms") + INGEST_EXACT, ("rate",), ascending="rate",
               exact=INGEST_EXACT)],
        ingest_contract,
        exact_top=("rounds", "base_rows"),
    ),
    # Schema only against the baseline: wall-clock latency is
    # machine-dependent, so there is no numeric regression gate.
    "throughput": Spec(
        TOP + ("mixed.storm_sessions", "mixed.interactive_sessions", "mixed.workers"),
        [
            Sweep("cells", THROUGHPUT_CELL),
            Sweep("mixed.lanes", THROUGHPUT_LANE, ("policy", "lane"),
                  cover=[(p, lane) for p in POLICIES for lane in LANES]),
            Sweep("mixed.policies", THROUGHPUT_POLICY, ("policy",), cover=[(p,) for p in POLICIES]),
        ],
        throughput_contract,
    ),
}


def load(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise Fail(f"cannot read {path}: {e}")


def check(fresh_path: str, base_path: str) -> str:
    """Run every gate; return the bench name, or raise Fail."""
    fresh, base = load(fresh_path), load(base_path)
    bench = fresh.get("bench") if isinstance(fresh, dict) else None
    need(bench in SPECS, f"{fresh_path}: bench is {bench!r}, expected one of {sorted(SPECS)}")
    base_bench = base.get("bench") if isinstance(base, dict) else None
    need(base_bench == bench, f"{base_path}: bench is {base_bench!r}, expected {bench!r}")
    spec = SPECS[bench]
    validate(fresh, spec, fresh_path)
    validate(base, spec, base_path)
    try:
        spec.contract(fresh)
    except Fail as e:
        raise Fail(f"{fresh_path}: {e}") from None
    diff(fresh, base, spec)
    return bench


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: check_bench.py <fresh.json> <baseline.json>", file=sys.stderr)
        return 1
    try:
        bench = check(sys.argv[1], sys.argv[2])
    except Fail as e:
        print(f"check_bench: FAIL: {e}", file=sys.stderr)
        return 1
    print(f"check_bench: {bench} OK (schema, contracts and baseline diff hold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
