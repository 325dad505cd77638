#!/usr/bin/env python3
"""Repository benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload interactive|catalog_large \\
        --seed N --seconds S --trace 0|1

Builds perfbench_driver from source (into $CARGO_TARGET_DIR, default
.bench_build, under the repository root), runs the workload, checks the
output gates and prints a human-readable report followed, as the last
line of standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
perfbench/LAYERS.md maps each per-layer metric to the end-to-end metric
and workload it should move. Exits non-zero, without a result line, when
the build or the driver fails, and with exit code 1 after printing
"correct": false when an output gate fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEADLINE_S = 175  # a run must end within 180 s (plus the build, once)

WORKLOADS = ("interactive", "catalog_large")

# Open-loop plan of every --trace 1 run, in requests per second. The rates
# are absolute and fixed here; nothing is calibrated per run, so every
# commit is offered the same load. The nominal rate, which is also the
# lowest slo rung, gives the serving.* and loadgen.* layer metrics; the
# ladder then climbs until a rung's median latency exceeds the limit.
SERVING = {
    "open_qps": 30, "open_share": 0.2,
    "ladder": (50, 60, 70, 80, 90, 100, 112, 125, 140, 160, 180, 200, 225,
               250, 280, 315, 355, 400),
    "rung_share": 0.06,
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench_driver",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench_driver"


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# End-to-end metrics (--trace 0)
# ---------------------------------------------------------------------------

def end_to_end(result, report):
    closed = result["closed"]
    pool = result["header"]["pool"]
    # Each request's latency is the fastest of its passes over the pool
    # (the loop makes at least three), so a burst of load from elsewhere on
    # the host moves the figures less; throughput is the pool over the sum
    # of those latencies.
    fastest = stats.slot_minima(closed["latency_ns"], pool)
    lat = stats.timing(fastest, 1e-6)
    fail = stats.fail_ratio(closed["sent"], errors=closed["failed"])
    report.append("closed loop, 1 client: %d requests (%d complete passes "
                  "over %d) in %.2f s busy" % (
                      closed["sent"], closed["sent"] // pool, pool,
                      closed["busy_s"]))
    report.append("latency, fastest pass per request: p50 %.3f ms, %s %.3f "
                  "ms (n=%d); all requests: p50 %.3f ms" % (
                      lat["p50"], stats.quantile_label(lat["tail_q"]),
                      lat["tail"], lat["n"],
                      stats.timing(closed["latency_ns"], 1e-6)["p50"]))
    report.append("exec_acc over %d pool requests; fail_ratio %.4f" % (
        closed["exec_total"], fail))
    metrics = {
        "latency_p50_ms": metric(lat["p50"], "ms"),
        "throughput_qps": metric(pool / (sum(fastest) / 1e9), "1/s"),
        "success_ratio": metric(1.0 - fail, "ratio"),
        "exec_acc": metric(closed["exec_correct"] / closed["exec_total"],
                           "ratio"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(result["setup_s"]), "s"),
    }
    return metrics, closed["sent"], closed["failed"]


def report_ladder(ladder, report):
    report.append("slo ladder (limit: tail latency <= %.0f ms, fail_ratio "
                  "<= %.0f%%, no growing backlog):" % (
                      stats.SLO_LATENCY_MS, 100 * stats.SLO_MAX_FAIL_RATIO))
    report.append("  offered  achieved    p50_ms   tail_ms  qwait_p50_ms  "
                  "verdict")
    for rung in sorted(ladder, key=lambda r: r["offered_qps"]):
        lat = stats.timing(rung["latency_ns"], 1e-6)
        qwait = stats.timing(rung["queue_wait_ns"], 1e-6)
        failures = stats.rung_failures(rung)
        report.append("  %7.0f  %8.1f  %8.3f  %8.3f  %12.3f  %s" % (
            rung["offered_qps"], stats.achieved_qps(rung), lat["p50"],
            lat["tail"], qwait["p50"],
            "FAIL: " + "; ".join(failures.values()) if failures else "pass"))


# ---------------------------------------------------------------------------
# Per-layer metrics (--trace 1)
# ---------------------------------------------------------------------------

def read_spans(path):
    spans = []
    with open(path) as f:
        next(f)
        for line in f:
            request, sid, parent, name, start, end = line.split("\t")
            spans.append((int(request), int(sid), int(parent), name,
                          int(start), int(end)))
    return spans


def per_layer(result, spans, report):
    traced = result["traced"]
    durations = {}
    roots = {}
    covered = {}
    for request, sid, parent, name, start, end in spans:
        durations.setdefault(name, []).append((request, end - start))
        if name == "query":
            roots[sid] = end - start
        elif parent in roots:
            covered[parent] = covered.get(parent, 0) + (end - start)

    def us(name, kinds=None):
        samples = [d for r, d in durations.get(name, [])
                   if kinds is None or traced["kinds"][r] in kinds]
        return stats.timing(samples, 1e-3)

    root_total = sum(roots.values())
    unattributed = sum(d - covered.get(s, 0) for s, d in roots.items())
    traced_p50 = us("query")["p50"]
    untraced_p50 = stats.timing(traced["untraced_ns"], 1e-3)["p50"]
    counters = traced["counters"]
    n = traced["requests"]
    decode = us("core.decode")
    decode_total_us = sum(d for _, d in durations.get("core.decode", [])) / 1e3

    serving = result["open"][0]
    sc = serving["counters"]
    qwait = stats.timing(serving["queue_wait_ns"], 1e-6)
    service = stats.timing(serving["service_ns"], 1e-6)
    lag = stats.timing(serving["lag_ns"], 1e-6)

    layers = {}

    def put(name, summary_or_value, unit, which="p50"):
        if isinstance(summary_or_value, dict):
            layers[name] = metric(summary_or_value[which], unit)
        else:
            layers[name] = metric(summary_or_value, unit)

    put("schema.resolve_p50_us", us("schema.resolve"), "us")
    put("schema.resolve_p99_us", us("schema.resolve"), "us", "tail")
    put("schema.entry_for_p50_us", us("probe.schema.entry_for"), "us")
    put("schema.stats_computed", counters["stats_computed"] / n, "1/query")
    put("schema.stats_hits", counters["stats_hits"] / n, "1/query")
    put("schema.route_recall1",
        traced["route_hits"] / max(1, traced["route_total"]), "ratio")
    put("schema.register_s", statistics.median(result["register_s"]), "s")
    put("core.annotate_p50_us", us("core.annotate"), "us")
    put("core.annotate_p99_us", us("core.annotate"), "us", "tail")
    put("core.exact_values_p50_us", us("probe.core.exact_values"), "us")
    put("core.value_detect_p50_us", us("probe.core.value_detect"), "us")
    put("core.column_mentions_p50_us", us("probe.core.column_mentions"), "us")
    put("core.build_qa_p50_us", us("core.build_qa"), "us")
    put("core.decode_p50_us", decode, "us")
    put("core.decode_p99_us", decode, "us", "tail")
    put("core.decode_steps_per_query", counters["decode_steps"] / n,
        "1/query")
    put("core.decode_us_per_step",
        decode_total_us / max(1, counters["decode_steps"]), "us")
    put("core.recover_p50_us", us("core.recover"), "us")
    put("core.recover_fail_ratio",
        traced["recover_failures"] / max(1, traced["recover_calls"]), "ratio")
    put("sql.execute_p50_us", us("sql.execute"), "us")
    put("sql.execute_p99_us", us("sql.execute"), "us", "tail")
    put("sql.rows_scanned_per_query", counters["rows_scanned"] / n, "1/query")
    put("tensor.gemm_calls_per_query", counters["gemm_calls"] / n, "1/query")
    put("serving.queue_wait_p50_ms", qwait, "ms")
    put("serving.queue_wait_p99_ms", qwait, "ms", "tail")
    put("serving.service_p50_ms", service, "ms")
    put("serving.shed_ratio", sc["shed"] / serving["sent"], "ratio")
    put("serving.rejected_ratio", sc["rejected"] / serving["sent"], "ratio")
    put("serving.batch_rows_per_tick",
        sc["batch_rows"] / max(1, sc["batch_ticks"]), "rows")
    put("serving.slo_max_qps", stats.slo_max_qps(result["open"])[0], "1/s")
    put("loadgen.lag_p99_ms", lag, "ms", "tail")
    put("trace.unattributed_ratio", unattributed / max(1, root_total),
        "ratio")
    put("trace.overhead_ratio", (traced_p50 - untraced_p50) / untraced_p50,
        "ratio")

    report.append("traced %d requests (%d spans); untraced Query() p50 "
                  "%.1f us, traced p50 %.1f us" % (
                      n, len(spans), untraced_p50, traced_p50))
    report.append("  %-28s %10s %10s %8s" % ("span", "p50_us", "tail_us",
                                              "n"))
    for name in sorted(durations):
        t = us(name)
        report.append("  %-28s %10.1f %10.1f %8d  (%s)" % (
            name, t["p50"], t["tail"], t["n"],
            stats.quantile_label(t["tail_q"])))
    report.append("serving at %.0f qps nominal: queue wait p50 %.3f ms, "
                  "service p50 %.3f ms, lag %s %.3f ms (n=%d)" % (
                      serving["offered_qps"], qwait["p50"], service["p50"],
                      stats.quantile_label(lag["tail_q"]), lag["tail"],
                      lag["n"]))
    report_ladder(result["open"], report)
    acceptance(result, us, report)
    attempted = (n + result["closed"]["sent"] +
                 sum(r["sent"] for r in result["open"]))
    failed = result["closed"]["failed"] + sum(
        r["errors"] + r["counters"]["shed"] + r["counters"]["rejected"]
        for r in result["open"])
    return layers, attempted, failed


def acceptance(result, us, report):
    """Prints whether each workload's intended dominant layer dominates."""
    workload = result["header"]["workload"]
    children = ["schema.resolve", "core.annotate", "core.build_qa",
                "core.decode", "core.recover", "sql.execute"]
    if workload == "interactive":
        largest = max(children, key=lambda c: us(c)["p50"])
        report.append("check: largest layer by p50 is %s (want core.decode)"
                      % largest)
    elif workload == "catalog_large":
        large = {"named_large"}
        scan = (us("probe.core.exact_values", large)["p50"] +
                us("schema.resolve", large)["p50"] +
                us("probe.schema.entry_for", large)["p50"])
        dec = us("core.decode", large)["p50"]
        report.append("check: on 2000-row requests exact_values + schema "
                      "p50 %.1f us vs decode p50 %.1f us (want larger)" % (
                          scan, dec))
    ladder = sorted(result["open"], key=lambda r: r["offered_qps"])
    waits = [stats.timing(r["queue_wait_ns"], 1e-6)["p50"] for r in ladder]
    report.append("check: queue wait p50 across the ladder %s ms "
                  "(want growing)" % " ".join("%.3f" % w for w in waits))


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    driver = build()
    start = time.monotonic()  # the first run may spend far longer building
    out = build_dir() / "runs" / ("%s-%d-%d" % (args.workload, args.seed,
                                                args.trace))
    out.mkdir(parents=True, exist_ok=True)
    for stale in ("result.json", "spans.tsv"):
        (out / stale).unlink(missing_ok=True)
    command = [
        str(driver), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out)]
    if args.trace:
        command += [
            "--open-qps", str(SERVING["open_qps"]),
            "--open-seconds", str(SERVING["open_share"] * args.seconds),
            "--ladder", ",".join(str(q) for q in SERVING["ladder"]),
            "--rung-seconds", str(SERVING["rung_share"] * args.seconds),
            "--slo-ms", str(stats.SLO_LATENCY_MS)]
    budget = DEADLINE_S - (time.monotonic() - start)
    proc = subprocess.run(
        command,
        stdout=sys.stderr, stderr=sys.stderr, timeout=max(budget, 1))
    if proc.returncode not in (0, 1):
        log("perfbench_driver failed with exit code %d" % proc.returncode)
        return 2
    with open(out / "result.json") as f:
        result = json.load(f)

    header = result["header"]
    report = [
        "perfbench %s seed=%d seconds=%g trace=%d" % (
            args.workload, args.seed, args.seconds, args.trace),
        "machine: nproc=%d build=%s gemm=%s decode=%s compute_threads=%d; "
        "%d registered tables, pool of %d requests" % (
            header["nproc"], header["build_type"], header["gemm_tier"],
            header["decode_mode"], header["compute_threads"],
            header["registered_tables"], header["pool"]),
        "setup_s runs: %s (training %s)" % (
            " ".join("%.3f" % s for s in result["setup_s"]),
            " ".join("%.3f" % s for s in result["train_s"])),
    ]
    if args.trace:
        metrics, attempted, failed = per_layer(
            result, read_spans(out / "spans.tsv"), report)
    else:
        metrics, attempted, failed = end_to_end(result, report)
    gates = result["gates"]
    report.append("gates: %s (%d answers compared)%s" % (
        "pass" if gates["ok"] else "FAIL", gates["checked"],
        "".join("\n  " + m for m in gates["messages"])))
    for name, m in metrics.items():
        report.append("  %-30s %14.6f %s" % (name, m["value"], m["unit"]))
    print("\n".join(report))
    print(json.dumps({"correct": bool(gates["ok"]), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if gates["ok"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
