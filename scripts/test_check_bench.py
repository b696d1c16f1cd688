#!/usr/bin/env python3
"""Self-test for scripts/check_bench.py.

Usage: python3 scripts/test_check_bench.py

Runs the checker as CI does (a subprocess on two JSON files) against the
committed BENCH_<bench>.json files and against copies mutated just past
each numeric bound and contract: every committed file must pass, every
mutation must exit 1 with a message naming the broken rule, and the
baseline tolerances must keep their sidedness (shuffle and skew costs
may fall freely, cache fields may drift 20% either way and no further).
"""

import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHECKER = HERE / "check_bench.py"
BENCHES = ("shuffle", "skew", "columnar", "cache", "ingest", "throughput")


def committed(bench: str) -> dict:
    return json.loads((ROOT / f"BENCH_{bench}.json").read_text())


def run(fresh: dict, base: dict):
    with tempfile.TemporaryDirectory() as d:
        f, b = Path(d, "fresh.json"), Path(d, "base.json")
        f.write_text(json.dumps(fresh))
        b.write_text(json.dumps(base))
        p = subprocess.run(
            [sys.executable, str(CHECKER), str(f), str(b)], capture_output=True, text=True
        )
    return p.returncode, p.stdout + p.stderr


def cell(cells: list, **match) -> dict:
    return next(c for c in cells if all(c[k] == v for k, v in match.items()))


def over(x: float, factor: float) -> float:
    """Just above `x * factor`."""
    return x * factor * (1 + 1e-3)


def under(x: float, factor: float) -> float:
    """Just below `x * factor`."""
    return x * factor * (1 - 1e-3)


# --- shuffle -------------------------------------------------------------


def shuffle_serial_hides(f, b):
    cell(f["window_sweep"], fetch_window=1)["hidden_fetches"] = 1


def shuffle_no_serial(f, b):
    cell(f["window_sweep"], fetch_window=1)["fetch_window"] = 3


def shuffle_counts(f, b):
    cell(f["window_sweep"], fetch_window=2)["remote_fetches"] += 1


def shuffle_slower(f, b):
    c = cell(f["window_sweep"], fetch_window=2)
    c["fetch_secs_pipelined"] = c["fetch_secs_serial"] + 1e-6


def shuffle_overlap(f, b):
    c = cell(f["window_sweep"], fetch_window=4)
    c["fetch_secs_pipelined"] = over(c["fetch_secs_serial"], 1 / 1.5)


def shuffle_locality(f, b):
    cell(f["node_sweep"], nodes=1)["locality"] = 0.999


def shuffle_cost(factor):
    def mutate(f, b):
        f["node_sweep"][1]["cost_per_block"] *= factor

    return mutate


def shuffle_pipelined(factor):
    def mutate(f, b):
        f["window_sweep"][2]["sim_secs_pipelined"] *= factor

    return mutate


# --- skew ----------------------------------------------------------------


def skewed(doc):
    return max(doc["skew_sweep"], key=lambda c: c["s"])


def skew_p99(f, b):
    uniform = cell(f["skew_sweep"], s=0.0)
    skewed(f)["p99_task_secs"] = over(uniform["p99_task_secs"], 3.0)


def skew_memory(f, b):
    c = next(c for c in f["budget_sweep"] if c["budget"] is not None)
    c["peak_mem_blocks"] = c["budget"] + 1


def skew_unbudgeted_spill(f, b):
    cell(f["budget_sweep"], budget=None)["build_spill_blocks"] = 1


def skew_fetches(f, b):
    f["skew_sweep"][0]["local_fetches"] += 1


def skew_rows(f, b):
    f["budget_sweep"][1]["rows_out"] += 1


def skew_split_off(f, b):
    f["parity"][0]["split_partitions"] = 1


def skew_no_split(f, b):
    skewed(f)["split_partitions"] = 0


def skew_span_uniform(f, b):
    cell(f["skew_sweep"], s=0.0)["s"] = 0.1


def skew_span_skewed(f, b):
    skewed(f)["s"] = 1.19


def skew_parity(field, by):
    def mutate(f, b):
        f["parity"][0][field] += by

    return mutate


def skew_cost(field, factor):
    def mutate(f, b):
        f["skew_sweep"][1][field] *= factor

    return mutate


# --- columnar ------------------------------------------------------------


def columnar_speedup(name):
    def mutate(f, b):
        ratio = under(4.0, 1.0)
        f[f"{name}_speedup"] = ratio
        f[name][1]["wall_ms"] = f[name][0]["wall_ms"] / ratio

    return mutate


def columnar_inconsistent(f, b):
    f["scan_speedup"] = over(f["scan"][0]["wall_ms"] / f["scan"][1]["wall_ms"], 1.05)


def columnar_pair(f, b):
    f["probe"][1]["reads"] += 1


def columnar_unclustered(f, b):
    for c in f["scan"]:
        c["zone_skipped"] = 1


def columnar_skip_rate(f, b):
    for c in f["clustered"]:
        c["zone_skipped"] = math.ceil(0.5 * c["blocks"]) - 1


def columnar_parity_pair(f, b):
    f["parity"][1]["writes"] += 1


def columnar_baseline(sweep, field):
    def mutate(f, b):
        for c in f[sweep]:
            c[field] += 1

    return mutate


# --- cache ---------------------------------------------------------------


def cache_off_caches(f, b):
    cell(f["budget_sweep"], cache_blocks=0)["evictions"] = 1


def cache_exchange(f, b):
    f["budget_sweep"][2]["hits"] += 1


def cache_trade(f, b):
    c = f["budget_sweep"][2]
    c["accesses"] += 1
    c["local_reads"] += 1


def cache_monotone_hits(f, b):
    lo, hi = f["budget_sweep"][2:4]
    drop = hi["hits"] - (lo["hits"] - 1)
    hi["hits"] -= drop
    hi["local_reads"] += drop


def cache_remote_shrink(f, b):
    lo, hi = f["budget_sweep"][2:4]
    rise = lo["remote_reads"] + 1 - hi["remote_reads"]
    hi["remote_reads"] += rise
    hi["local_reads"] -= rise


def cache_remote_cut(f, b):
    off = cell(f["budget_sweep"], cache_blocks=0)
    featured = cell(f["budget_sweep"], cache_blocks=f["default_budget"])
    featured["remote_fetch_secs"] = over(off["remote_fetch_secs"], 1 / 3.0)


def cache_cold(f, b):
    f["build_sweep"][0]["spill_blocks"] = 0


def cache_warm_reuse(f, b):
    f["build_sweep"][1]["spill_blocks"] = f["build_sweep"][0]["spill_blocks"]


def cache_warm_cheaper(f, b):
    f["build_sweep"][2]["sim_secs"] = f["build_sweep"][0]["sim_secs"]


def cache_sorted(f, b):
    s = f["budget_sweep"]
    s[2], s[3] = s[3], s[2]


def budget_drift(budget, field, factor):
    def mutate(f, b):
        cell(f["budget_sweep"], cache_blocks=budget)[field] *= factor

    return mutate


def build_drift(pass_no, field, factor):
    def mutate(f, b):
        cell(f["build_sweep"], **{"pass": pass_no})[field] *= factor

    return mutate


# --- ingest --------------------------------------------------------------


def ingest_bump(i, field, by=1):
    def mutate(f, b):
        f["cells"][i][field] += by

    return mutate


def ingest_no_fold(f, b):
    f["cells"][0]["folds"] = 0


def ingest_backlog(f, b):
    c = f["cells"][2]
    c["max_backlog"] = f["fold_blocks"] + math.ceil(c["rate"] / f["rows_per_block"]) + 2


def ingest_growth(f, b):
    f["cells"][2]["delta_blocks_written"] = f["cells"][1]["delta_blocks_written"] - 1


def ingest_rounds(f, b):
    f["rounds"] += 1


def ingest_base_rows(f, b):
    b["base_rows"] += 1


def ingest_lost_cell(f, b):
    f["cells"].pop()


# --- throughput ----------------------------------------------------------


def lane(doc, policy, name="interactive"):
    return cell(doc["mixed"]["lanes"], policy=policy, lane=name)


def policy(doc, name):
    return cell(doc["mixed"]["policies"], policy=name)


def tp_lanes_p95(f, b):
    lane(f, "lanes")["p95_ms"] = over(lane(f, "fifo")["p95_ms"], 1 / 2.0)


def tp_fair_p95(f, b):
    lane(f, "fair")["p95_ms"] = over(lane(f, "fifo")["p95_ms"], 1.0)


def tp_qps(name, tolerance):
    def mutate(f, b):
        policy(f, name)["qps"] = under(policy(f, "fifo")["qps"], 1 - tolerance)

    return mutate


def tp_load(f, b):
    policy(f, "lanes")["queries"] += 1


def tp_pacing(f, b):
    policy(f, "fair")["maintenance_deferrals"] = 0


def tp_storm(f, b):
    policy(f, "lanes")["storm_batch_share"] = under(0.5, 1.0)


def tp_fairness(value):
    def mutate(f, b):
        policy(f, "fifo")["fairness_index"] = value

    return mutate


def tp_lane_cover(f, b):
    f["mixed"]["lanes"].remove(lane(f, "fair", "batch"))


def tp_baseline_schema(f, b):
    del b["mixed"]["workers"]


def mismatch(f, b):
    b["bench"] = "skew"


# (bench, mutation of (fresh, baseline) copies, substrings the failure
# message must carry). Each entry breaks one bound or contract just past
# its limit.
FAILS = [
    ("shuffle", shuffle_cost(over(1.0, 1.2)), ["regressed >20%", "cost_per_block"]),
    ("shuffle", shuffle_pipelined(over(1.0, 1.2)), ["regressed >20%", "sim_secs_pipelined"]),
    ("shuffle", shuffle_serial_hides, ["hide nothing"]),
    ("shuffle", shuffle_no_serial, ["no serial"]),
    ("shuffle", shuffle_counts, ["count-invariant"]),
    ("shuffle", shuffle_slower, ["slower than serial"]),
    ("shuffle", shuffle_overlap, ["1.5x minimum"]),
    ("shuffle", shuffle_locality, ["fully local"]),
    ("shuffle", mismatch, ["expected 'shuffle'"]),
    ("skew", skew_cost("cost_per_block", over(1.0, 1.2)), ["regressed >20%", "cost_per_block"]),
    ("skew", skew_cost("sim_secs", over(1.0, 1.2)), ["regressed >20%", "sim_secs"]),
    ("skew", skew_parity("max_recursion_depth", 1), ["max_recursion_depth", "vs baseline"]),
    ("skew", skew_parity("cost_per_block", 1e-6), ["cost_per_block", "vs baseline"]),
    ("skew", skew_p99, ["3.0x"]),
    ("skew", skew_memory, ["exceeds budget"]),
    ("skew", skew_unbudgeted_spill, ["unbudgeted build spilled"]),
    ("skew", skew_fetches, ["leaked into run fetches"]),
    ("skew", skew_rows, ["rows_out varies"]),
    ("skew", skew_split_off, ["split off"]),
    ("skew", skew_no_split, ["did not trip"]),
    ("skew", skew_span_uniform, ["must span"]),
    ("skew", skew_span_skewed, ["must span"]),
    ("columnar", columnar_pair, ["format-blind"]),
    ("columnar", columnar_speedup("scan"), ["scan speedup", "4.0x floor"]),
    ("columnar", columnar_speedup("probe"), ["probe speedup", "4.0x floor"]),
    ("columnar", columnar_inconsistent, ["inconsistent with wall_ms"]),
    ("columnar", columnar_unclustered, ["unclustered"]),
    ("columnar", columnar_skip_rate, ["0.5 floor"]),
    ("columnar", columnar_parity_pair, ["parity", "writes", "diverged"]),
    ("columnar", columnar_baseline("probe", "rows_scanned"), ["rows_scanned", "vs baseline"]),
    ("columnar", columnar_baseline("parity", "bytes_spilled"), ["bytes_spilled", "vs baseline"]),
    ("cache", cache_off_caches, ["must not cache"]),
    ("cache", cache_exchange, ["exchange invariant"]),
    ("cache", cache_trade, ["trade against hits"]),
    ("cache", cache_monotone_hits, ["monotone"]),
    ("cache", cache_remote_shrink, ["remote reads must shrink"]),
    ("cache", cache_remote_cut, ["3.0x"]),
    ("cache", cache_cold, ["spilling cold pass"]),
    ("cache", cache_warm_reuse, ["does not reuse the hot build"]),
    ("cache", cache_warm_cheaper, ["not cheaper than cold"]),
    ("cache", cache_sorted, ["sorted"]),
    ("cache", budget_drift(16, "hit_rate", 0.79), ["hit_rate", "drifted"]),
    ("cache", budget_drift(8, "remote_fetch_secs", 1.21), ["remote_fetch_secs", "drifted"]),
    ("cache", budget_drift(32, "sim_secs", 0.79), ["sim_secs", "drifted"]),
    ("cache", build_drift(2, "spill_blocks", 0.79), ["spill_blocks", "drifted"]),
    ("cache", build_drift(3, "sim_secs", 0.79), ["sim_secs", "drifted"]),
    ("ingest", ingest_bump(0, "appends"), ["appends"]),
    ("ingest", ingest_bump(1, "rows_appended"), ["rate * rounds"]),
    ("ingest", ingest_bump(2, "rows_total"), ["conservation"]),
    ("ingest", ingest_no_fold, ["never folded"]),
    ("ingest", ingest_backlog, ["exceeds bound"]),
    ("ingest", ingest_growth, ["grow with the ingest rate"]),
    ("ingest", ingest_bump(1, "tail_rewrites"), ["tail_rewrites", "vs baseline"]),
    ("ingest", ingest_bump(0, "reads_p95"), ["reads_p95", "vs baseline"]),
    ("ingest", ingest_rounds, ["rounds", "quick run"]),
    ("ingest", ingest_base_rows, ["base_rows", "vs baseline"]),
    ("ingest", ingest_lost_cell, ["vs baseline"]),
    ("throughput", tp_lanes_p95, ["2.0x lower"]),
    ("throughput", tp_fair_p95, ["exceeds fifo"]),
    ("throughput", tp_qps("lanes", 0.10), ["lanes throughput", "10%"]),
    ("throughput", tp_qps("fair", 0.20), ["fair throughput", "20%"]),
    ("throughput", tp_load, ["different offered load"]),
    ("throughput", tp_pacing, ["pacing is not engaging"]),
    ("throughput", tp_storm, ["batch lane"]),
    ("throughput", tp_fairness(1.0 + 1e-6), ["fairness index"]),
    ("throughput", tp_fairness(0.0), ["fairness index"]),
    ("throughput", tp_lane_cover, ["missing", "fair", "batch"]),
    ("throughput", tp_baseline_schema, ["missing", "workers"]),
]

# Mutations that stay inside a bound and must pass: costs are gated
# one-sided (a cheaper run is fine), cache fields two-sided at 20%.
PASSES = [
    ("shuffle", shuffle_cost(0.5)),
    ("shuffle", shuffle_pipelined(0.5)),
    ("shuffle", shuffle_cost(under(1.0, 1.2))),
    ("skew", skew_cost("cost_per_block", 0.5)),
    ("skew", skew_cost("sim_secs", 0.5)),
    ("skew", skew_cost("sim_secs", under(1.0, 1.2))),
    ("cache", budget_drift(16, "hit_rate", 0.81)),
    ("cache", budget_drift(8, "remote_fetch_secs", 1.19)),
]


class CheckBenchTest(unittest.TestCase):
    def check(self, bench, mutate):
        fresh, base = committed(bench), committed(bench)
        mutate(fresh, base)
        return run(fresh, base)

    def test_committed_files_pass(self):
        for bench in BENCHES:
            with self.subTest(bench=bench):
                code, out = run(committed(bench), committed(bench))
                self.assertEqual(code, 0, out)

    def test_mutation_past_each_bound_fails(self):
        for bench, mutate, expect in FAILS:
            with self.subTest(bench=bench, mutation=mutate.__qualname__, expect=expect):
                code, out = self.check(bench, mutate)
                self.assertEqual(code, 1, out)
                for text in expect:
                    self.assertIn(text, out)

    def test_mutation_inside_each_tolerance_passes(self):
        for bench, mutate in PASSES:
            with self.subTest(bench=bench, mutation=mutate.__qualname__):
                code, out = self.check(bench, mutate)
                self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
