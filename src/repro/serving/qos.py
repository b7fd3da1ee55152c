"""QoS accounting: the QoS Calculator of Fig. 14(b).

Aggregates per-request TTFT / TBT / end-to-end latency into the summary
statistics the paper reports (means and tail percentiles), plus the
token and request throughput a vendor cares about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.request import Request


@dataclass(frozen=True)
class QoSReport:
    """Summary QoS of a set of finished requests."""

    request_count: int
    ttft_mean_s: float
    ttft_p50_s: float
    ttft_p95_s: float
    ttft_p99_s: float
    tbt_mean_s: float
    tbt_p50_s: float
    tbt_p95_s: float
    tbt_p99_s: float
    e2e_mean_s: float
    e2e_p95_s: float
    tokens_per_s: float
    requests_per_s: float
    failed_requests: int = 0    # terminal failures (fault injection)

    def meets_tbt_slo(self, slo_s: float, percentile: str = "p95") -> bool:
        """Does the chosen TBT percentile meet the SLO?"""
        value = {"mean": self.tbt_mean_s, "p50": self.tbt_p50_s,
                 "p95": self.tbt_p95_s, "p99": self.tbt_p99_s}[percentile]
        return value <= slo_s

    def meets_ttft_slo(self, slo_s: float, percentile: str = "p95") -> bool:
        value = {"mean": self.ttft_mean_s, "p50": self.ttft_p50_s,
                 "p95": self.ttft_p95_s, "p99": self.ttft_p99_s}[percentile]
        return value <= slo_s


def goodput_per_s(finished: list[Request], wall_time_s: float,
                  slo_ttft_s: float) -> float:
    """SLO-met completions per second: the throughput that *counts*.

    Raw ``requests_per_s`` treats a request that crawled out after three
    crash retries the same as one served instantly; goodput counts only
    completions whose TTFT met the SLO, which is what a degraded fleet
    is actually delivering to users.
    """
    if wall_time_s <= 0:
        raise ValueError("wall time must be positive")
    if slo_ttft_s <= 0:
        raise ValueError("slo_ttft_s must be positive")
    met = sum(1 for r in finished if r.ttft <= slo_ttft_s)
    return met / wall_time_s


def compute_qos(finished: list[Request], wall_time_s: float,
                failed_requests: int = 0) -> QoSReport:
    """Aggregate per-request metrics over ``wall_time_s`` of simulation."""
    if not finished:
        raise ValueError("no finished requests to report on")
    if wall_time_s <= 0:
        raise ValueError("wall time must be positive")
    ttft = np.array([r.ttft for r in finished])
    tbt = np.array([r.tbt for r in finished if r.generated_tokens >= 2])
    if tbt.size == 0:
        # no request emitted >= 2 tokens: TBT is unmeasured, not zero —
        # nan keeps meets_tbt_slo() False instead of reporting a perfect
        # inter-token latency nobody observed
        tbt = np.array([float("nan")])
    e2e = np.array([r.e2e_latency for r in finished])
    tokens = sum(r.generated_tokens for r in finished)
    return QoSReport(
        request_count=len(finished),
        ttft_mean_s=float(ttft.mean()),
        ttft_p50_s=float(np.percentile(ttft, 50)),
        ttft_p95_s=float(np.percentile(ttft, 95)),
        ttft_p99_s=float(np.percentile(ttft, 99)),
        tbt_mean_s=float(tbt.mean()),
        tbt_p50_s=float(np.percentile(tbt, 50)),
        tbt_p95_s=float(np.percentile(tbt, 95)),
        tbt_p99_s=float(np.percentile(tbt, 99)),
        e2e_mean_s=float(e2e.mean()),
        e2e_p95_s=float(np.percentile(e2e, 95)),
        tokens_per_s=tokens / wall_time_s,
        requests_per_s=len(finished) / wall_time_s,
        failed_requests=failed_requests,
    )
