#!/usr/bin/env python3
"""Tiny-size smoke test of kondo_bench.

Run from the repository root:

    python3 kondo_bench/smoke_test.py

For every workload, at tiny input sizes, it checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and a traced run every per-layer metric, with the result
    line's keys exactly {correct, attempted, failed, metrics}, correct
    true and no failed operation;
  * the per-layer metrics of the layers the workload exercises are
    non-zero;
  * the same seed twice gives identical input hashes (campaign seeds, KDF
    contents, request stream, fleet reference) while the held-out seed
    gives different ones.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build entry point)

# Seeds 1-10 are the benchmark's tuning seeds; HELD_OUT_SEED is reserved
# for checking later performance claims and is used here only to show
# that inputs change with the seed.
SEED = 1
HELD_OUT_SEED = 4242

# Per-layer metrics that must be non-zero on each workload, even at tiny
# sizes: the layers the workload is there to exercise.
MUST_BE_POSITIVE = {
    "campaign_3d": ["fuzz.evaluations", "exec.tests_run", "carve.carve_s",
                    "carve.rasterize_s", "carve.points_out",
                    "carve.final_hulls", "trace.overhead_ratio"],
    "debloat_2d": ["fuzz.evaluations", "exec.test_busy_s",
                   "audit.test_us_p50", "audit.events_per_test",
                   "provenance.persist_s", "provenance.lineage_bytes",
                   "provenance.bytes_per_event", "carve.points_out",
                   "array.kdf_read_s", "array.package_s", "pack.write_s",
                   "pack.kdp_bytes_ratio", "trace.overhead_ratio"],
    "serve_mixed": ["serve.fetch_p50_us", "serve.fetch_p99_us",
                    "serve.query_p50_us", "serve.rps",
                    "serve.fetch_server_us_mean", "pack.open_us",
                    "pack.read_range_us_p50", "pack.kdp_bytes_ratio",
                    "provenance.query_us_p50", "provenance.lineage_bytes",
                    "trace.overhead_ratio"],
    "sharded_fleet": ["fuzz.evaluations", "fleet.dispatches",
                      "fleet.shards_per_worker_max",
                      "fleet.worker_test_busy_s", "shard.artifact_bytes",
                      "shard.merged_lineage_bytes", "trace.overhead_ratio"],
}


def run_bench(binary, workload, seed, extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--tiny"] + extra
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def check_result(workload, trace, spec, binary, failures):
    code, out, err = run_bench(binary, workload, SEED, ["--trace", str(trace)])
    where = "%s --trace %d" % (workload, trace)
    if code != 0:
        failures.append("%s: exit %d\n%s" % (where, code, err))
        return
    result = json.loads(out.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        failures.append("%s: correct=%s attempted=%s failed=%s" % (
            where, result["correct"], result["attempted"], result["failed"]))
    metrics = result["metrics"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        failures.append("%s: metric names differ from BENCHMARK.json" % where)
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"]:
            failures.append("%s: %s unit %r, want %r" % (
                where, metric["name"], got.get("unit"), metric["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            failures.append("%s: %s has no numeric value" % (
                where, metric["name"]))
    if trace == 0:
        for metric in wanted:
            if metrics.get(metric["name"], {}).get("value", 0) <= 0:
                failures.append("%s: end-to-end %s is not positive" % (
                    where, metric["name"]))
    else:
        for name in MUST_BE_POSITIVE[workload]:
            if metrics.get(name, {}).get("value", 0) <= 0:
                failures.append("%s: %s is not positive" % (where, name))


def inputs_hash(binary, workload, seed, failures):
    code, out, err = run_bench(binary, workload, seed,
                               ["--trace", "0", "--inputs-only"])
    lines = [l for l in out.splitlines() if l.startswith("inputs ")]
    if code != 0 or len(lines) != 1:
        failures.append("%s --inputs-only seed %d: exit %d\n%s" % (
            workload, seed, code, err))
        return None
    return lines[0].split()[2]


def main():
    binary = run.build()
    if binary is None:
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(workload, trace, spec, binary, failures)
        first = inputs_hash(binary, workload, SEED, failures)
        again = inputs_hash(binary, workload, SEED, failures)
        other = inputs_hash(binary, workload, HELD_OUT_SEED, failures)
        if first is not None and first != again:
            failures.append("%s: seed %d gave inputs %s then %s" % (
                workload, SEED, first, again))
        if first is not None and first == other:
            failures.append("%s: seeds %d and %d gave the same inputs" % (
                workload, SEED, HELD_OUT_SEED))
        print("%-14s %s" % (workload, "ok" if not failures else "FAILED"))
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
