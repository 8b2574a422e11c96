"""``repro top`` — a live terminal dashboard over ``/stats`` + ``/metrics``.

Polls a running ``repro serve`` daemon and renders a refreshing
single-screen view: queue depth and worker liveness, in-flight jobs with
progress bars and ETAs, dedupe/cache effectiveness, request throughput,
and p50/p95 request latency estimated from the Prometheus histogram
buckets.  ``--once`` renders a single frame (``--json`` emits the
underlying sample dict instead) so scripts and CI can scrape the same
view the operator sees.

Rates (req/s, jobs/s) are computed between consecutive polls when a
previous sample exists; the first frame (and ``--once``) falls back to
lifetime averages over the daemon's uptime.
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Any, Dict, List, Optional, TextIO, Tuple

from .promtext import parse_prometheus

#: ANSI "clear screen, cursor home" — how the live view refreshes.
CLEAR_SCREEN = "\x1b[2J\x1b[H"


def quantile_from_buckets(
    buckets: List[Tuple[float, float]], quantile: float
) -> Optional[float]:
    """Estimate a quantile from cumulative ``(le, count)`` buckets.

    Returns the upper bound of the first bucket whose cumulative count
    reaches ``quantile * total`` (the standard Prometheus
    ``histogram_quantile`` bound-estimate, without interpolation), or
    ``None`` when the histogram is empty.  An answer in the final
    (``+Inf``) bucket reports the largest finite bound.
    """
    if not buckets:
        return None
    ordered = sorted(buckets)
    total = ordered[-1][1]
    if total <= 0:
        return None
    target = quantile * total
    finite = [bound for bound, _ in ordered if not math.isinf(bound)]
    for bound, cumulative in ordered:
        if cumulative >= target:
            if math.isinf(bound):
                return finite[-1] if finite else None
            return bound
    return finite[-1] if finite else None


def _histogram_buckets(
    samples: Dict[str, float], family: str
) -> List[Tuple[float, float]]:
    """Merge every labelset's cumulative buckets for one histogram family."""
    merged: Dict[float, float] = {}
    prefix = f"{family}_bucket{{"
    for key, value in samples.items():
        if not key.startswith(prefix):
            continue
        marker = 'le="'
        position = key.rfind(marker)
        if position < 0:
            continue
        le_text = key[position + len(marker):].split('"', 1)[0]
        le = math.inf if le_text == "+Inf" else float(le_text)
        merged[le] = merged.get(le, 0.0) + value
    return sorted(merged.items())


def _sum_family(samples: Dict[str, float], name: str) -> float:
    """Sum a family's samples across all labelsets."""
    total = 0.0
    for key, value in samples.items():
        if key == name or key.startswith(f"{name}{{"):
            total += value
    return total


def collect_top_sample(
    stats: Dict[str, Any], metrics_text: str, now: Optional[float] = None
) -> Dict[str, Any]:
    """Fuse one ``/stats`` payload and one ``/metrics`` page into a sample.

    Pure (given its inputs), so tests can feed canned payloads.  The
    returned dict is what ``repro top --once --json`` prints.
    """
    samples = parse_prometheus(metrics_text)
    requests_total = _sum_family(samples, "service_http_requests_total")
    latency = _histogram_buckets(samples, "service_http_request_seconds")
    queue_wait = _histogram_buckets(samples, "service_queue_wait_seconds")
    jobs = stats.get("jobs") or {}
    submissions = stats.get("submissions") or {}
    cache = stats.get("cache") or {}
    per_job = stats.get("per_job") or {}
    in_flight = []
    for job_id, job in sorted(per_job.items()):
        if job.get("status") != "running":
            continue
        progress = job.get("progress") or {}
        in_flight.append(
            {
                "job": job_id,
                "done": progress.get("done", 0),
                "total": progress.get("total", 0),
                "failed": progress.get("failed", 0),
                "eta_s": progress.get("eta_s"),
                "throughput_jobs_per_s": progress.get(
                    "throughput_jobs_per_s", 0.0
                ),
            }
        )
    uptime = float(stats.get("uptime_s") or 0.0)
    return {
        "time": time.time() if now is None else now,
        "uptime_s": uptime,
        "queue_depth": stats.get("queue_depth", 0),
        "workers": stats.get("workers") or {},
        "jobs": jobs,
        "in_flight": in_flight,
        "submissions": submissions,
        "coalesced": submissions.get("coalesced", 0),
        "cache_hit_rate": cache.get("hit_rate"),
        "store_skipped_lines": stats.get("store_skipped_lines", 0),
        "requests_total": requests_total,
        "requests_per_s": (requests_total / uptime) if uptime > 0 else 0.0,
        "latency_p50_s": quantile_from_buckets(latency, 0.50),
        "latency_p95_s": quantile_from_buckets(latency, 0.95),
        "queue_wait_p95_s": quantile_from_buckets(queue_wait, 0.95),
    }


def _rate(
    current: Dict[str, Any], previous: Optional[Dict[str, Any]]
) -> float:
    """Requests/s between two samples; lifetime average without a previous."""
    if previous is not None:
        dt = current["time"] - previous["time"]
        if dt > 0:
            delta = current["requests_total"] - previous["requests_total"]
            return max(0.0, delta / dt)
    return current["requests_per_s"]


def _bar(done: int, total: int, width: int = 24) -> str:
    if total <= 0:
        return "-" * width
    filled = int(round(width * min(1.0, done / total)))
    return "#" * filled + "-" * (width - filled)


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "?"
    if value < 1.0:
        return f"{value * 1000:.0f}ms"
    return f"{value:.1f}s"


def render_top(
    sample: Dict[str, Any],
    previous: Optional[Dict[str, Any]] = None,
    url: str = "",
) -> str:
    """Render one sample as the dashboard screen (plain text, no ANSI)."""
    workers = sample["workers"]
    jobs = sample["jobs"]
    lines = [
        f"repro top — {url}  (uptime {sample['uptime_s']:.0f}s)",
        "",
        (
            f"queue depth {sample['queue_depth']}   "
            f"workers {workers.get('alive', '?')}/{workers.get('configured', '?')}   "
            f"jobs total={jobs.get('total', 0)} running={jobs.get('running', 0)} "
            f"queued={jobs.get('queued', 0)} done={jobs.get('done', 0)} "
            f"failed={jobs.get('failed', 0)}"
        ),
        (
            f"req/s {_rate(sample, previous):.2f}   "
            f"latency p50 {_fmt_seconds(sample['latency_p50_s'])} "
            f"p95 {_fmt_seconds(sample['latency_p95_s'])}   "
            f"queue wait p95 {_fmt_seconds(sample['queue_wait_p95_s'])}"
        ),
        (
            f"submissions {sample['submissions'].get('total', 0)} "
            f"(coalesced {sample['coalesced']})   "
            + (
                f"cache hit rate {sample['cache_hit_rate']:.1%}   "
                if sample["cache_hit_rate"] is not None
                else "cache off   "
            )
            + f"store skipped lines {sample['store_skipped_lines']}"
        ),
        "",
    ]
    if sample["in_flight"]:
        lines.append("in-flight jobs:")
        for job in sample["in_flight"]:
            eta = job["eta_s"]
            lines.append(
                f"  {job['job'][:12]}  [{_bar(job['done'], job['total'])}] "
                f"{job['done']}/{job['total']}"
                + (f"  failed={job['failed']}" if job["failed"] else "")
                + f"  {job['throughput_jobs_per_s']:.1f} cell/s"
                + f"  eta {_fmt_seconds(eta)}"
            )
    else:
        lines.append("in-flight jobs: none")
    return "\n".join(lines)


def run_top(
    url: str,
    interval_s: float = 2.0,
    once: bool = False,
    json_output: bool = False,
    iterations: Optional[int] = None,
    stream: Optional[TextIO] = None,
) -> int:
    """Drive the dashboard loop against a live daemon; returns exit code.

    ``once`` renders a single frame; with ``json_output`` it prints the
    sample dict instead (the scripting interface CI uses).
    ``iterations`` bounds the live loop (``None`` = until interrupted).
    """
    from repro.service.client import ServiceClient, ServiceError

    out = stream if stream is not None else sys.stdout
    previous: Optional[Dict[str, Any]] = None
    frame = 0
    with ServiceClient(url) as client:
        while True:
            try:
                sample = collect_top_sample(
                    client.stats(), client.metrics_text()
                )
            except ServiceError as error:
                print(f"repro top: {error}", file=sys.stderr)
                return 2
            if json_output:
                print(json.dumps(sample, sort_keys=True), file=out)
            else:
                screen = render_top(sample, previous, url=url)
                if once:
                    print(screen, file=out)
                else:
                    print(f"{CLEAR_SCREEN}{screen}", file=out, flush=True)
            previous = sample
            frame += 1
            if once or (iterations is not None and frame >= iterations):
                return 0
            try:
                time.sleep(interval_s)
            except KeyboardInterrupt:
                return 0
