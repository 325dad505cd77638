"""Statistics helpers for the repository benchmark.

Every figure is computed here from raw per-request samples written by
perfbench_driver; nothing reads the pipeline's power-of-two histograms.
Unit tests: python3 perfbench/test_stats.py
"""

import math

# Candidate tail percentiles, highest first. A timing reports p50 plus the
# highest of these that still has at least TAIL_MIN_BEYOND samples above it.
TAIL_QUANTILES = (0.999, 0.99, 0.95, 0.9, 0.75)
TAIL_MIN_BEYOND = 10

# slo_max_qps conditions.
SLO_LATENCY_MS = 50.0
SLO_MAX_FAIL_RATIO = 0.01
# A rung has a growing backlog when the requests due in its second half
# wait clearly longer than those due in its first half, or when answers
# finish well after the schedule's end.
BACKLOG_GROWTH_FACTOR = 2.0
BACKLOG_GROWTH_SLACK_MS = 5.0
BACKLOG_MIN_COMPLETION = 0.9


def rank(n, q):
    """1-based nearest rank of the q-quantile (0 < q <= 1) of n samples.
    The epsilon keeps q * n from rounding up past a whole rank."""
    return min(n, max(1, math.ceil(q * n - 1e-9)))


def percentile(samples, q):
    """Nearest-rank q-quantile of a non-empty sequence."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[rank(len(samples), q) - 1]


def beyond(n, q):
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - rank(n, q)


def tail_quantile(n):
    """Highest of TAIL_QUANTILES with TAIL_MIN_BEYOND samples beyond it, or
    None when there are too few samples for any of them."""
    for q in TAIL_QUANTILES:
        if beyond(n, q) >= TAIL_MIN_BEYOND:
            return q
    return None


def quantile_label(q):
    """0.99 -> 'p99', 0.999 -> 'p99.9'."""
    return "p" + ("%.1f" % (q * 100)).rstrip("0").rstrip(".")


def timing(samples, scale=1.0):
    """p50 and the highest tail percentile of `samples` (each multiplied by
    `scale`), with the sample count. The tail falls back to the maximum
    when there are fewer than TAIL_MIN_BEYOND samples beyond every
    candidate; `tail_q` then reads 1.0."""
    n = len(samples)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail_q": None, "tail": 0.0}
    q = tail_quantile(n)
    tail = percentile(samples, q) if q is not None else max(samples)
    return {
        "n": n,
        "p50": percentile(samples, 0.5) * scale,
        "tail_q": q if q is not None else 1.0,
        "tail": tail * scale,
    }


def slot_minima(samples, pool):
    """Fastest sample of each pool slot over the complete passes of a
    closed loop that sends slots 0..pool-1 in order, cycling. Interference
    from other work on a shared host only ever adds time to a request, so
    the fastest of a slot's passes is its least disturbed figure; samples
    of an unfinished last pass are left out, so every slot has the same
    number of tries."""
    passes = len(samples) // pool
    if pool <= 0 or passes == 0:
        raise ValueError("slot_minima needs at least one complete pass")
    return [min(samples[p * pool + s] for p in range(passes))
            for s in range(pool)]


def fail_ratio(sent, errors=0, shed=0, rejected=0):
    """Share of sent requests that errored, were shed or were rejected.
    Every failure counts against the number sent, never against the number
    answered."""
    if sent <= 0:
        raise ValueError("fail_ratio needs at least one sent request")
    failed = errors + shed + rejected
    if failed > sent or min(errors, shed, rejected) < 0:
        raise ValueError("failure counts exceed requests sent")
    return failed / sent


def backlog_growing(due_ns, latency_ns, done_ns, scheduled_s):
    """True when a rung's queue grew: requests due in the second half of
    the schedule saw a median latency more than BACKLOG_GROWTH_FACTOR times
    (plus slack) that of the first half, or answers completed so late that
    the achieved rate fell under BACKLOG_MIN_COMPLETION of the offered.

    `due_ns`, `latency_ns` are per answered request; `done_ns` is every
    request's completion offset from the schedule start."""
    if not due_ns:
        return True
    half = scheduled_s * 1e9 / 2
    early = [lat for due, lat in zip(due_ns, latency_ns) if due < half]
    late = [lat for due, lat in zip(due_ns, latency_ns) if due >= half]
    if early and late:
        early_ms = percentile(early, 0.5) / 1e6
        late_ms = percentile(late, 0.5) / 1e6
        if late_ms > BACKLOG_GROWTH_FACTOR * early_ms + BACKLOG_GROWTH_SLACK_MS:
            return True
    span_s = max(done_ns) / 1e9 if done_ns else 0.0
    return span_s > 0 and scheduled_s / span_s < BACKLOG_MIN_COMPLETION


def achieved_qps(rung):
    """Answered requests per second, from schedule start to last answer."""
    span_s = max(rung["done_ns"]) / 1e9 if rung["done_ns"] else 0.0
    return rung["answered"] / span_s if span_s > 0 else 0.0


def rung_failures(rung):
    """The SLO conditions one ladder rung misses, as {condition: reason};
    empty when the rung passes. Conditions: "latency", "fail", "backlog"."""
    failures = {}
    lat = timing(rung["latency_ns"], 1e-6)
    if lat["n"] == 0 or lat["tail"] > SLO_LATENCY_MS:
        failures["latency"] = "%s %.1f ms > %.0f ms" % (
            quantile_label(lat["tail_q"] or 1.0), lat["tail"], SLO_LATENCY_MS)
    counters = rung["counters"]
    ratio = fail_ratio(rung["sent"], rung["errors"], counters["shed"],
                       counters["rejected"])
    if ratio > SLO_MAX_FAIL_RATIO:
        failures["fail"] = "fail_ratio %.3f > %.2f" % (
            ratio, SLO_MAX_FAIL_RATIO)
    if backlog_growing(rung["answered_due_ns"], rung["latency_ns"],
                       rung["done_ns"], rung["scheduled_s"]):
        failures["backlog"] = "backlog grows"
    return failures


def slo_max_qps(rungs):
    """Highest rate that meets the SLO, walking the ladder up from the
    lowest offered rate and stopping at the first rung that fails.

    The result is the achieved rate of the last passing rung, moved toward
    the first failing rung by linear interpolation of the tail latency
    between the two when only the latency limit separates them, so the
    figure does not jump by a whole rung when the knee sits between two
    rungs. Returns (qps, index of the last passing rung or None)."""
    ordered = sorted(rungs, key=lambda r: r["offered_qps"])
    best, best_index = 0.0, None
    for index, rung in enumerate(ordered):
        failures = rung_failures(rung)
        if not failures:
            best, best_index = achieved_qps(rung), index
            continue
        if best_index is not None and set(failures) == {"latency"}:
            below = timing(ordered[best_index]["latency_ns"], 1e-6)["tail"]
            above = timing(rung["latency_ns"], 1e-6)["tail"]
            share = (SLO_LATENCY_MS - below) / (above - below)
            best += share * (achieved_qps(rung) - best)
        break
    return best, best_index
