#!/usr/bin/env python
"""Deterministic trace replay: save a workload, rerun it anywhere.

Generates a multi-turn chat workload (sessions with accumulated
context), saves it as JSON, replays it twice through the serving engine
and shows the runs are bit-identical — then exports the per-request
timeline for offline analysis.

Run:  python examples/trace_replay.py
"""

import pathlib
import tempfile

from repro.api import device_model_for, get_chip, get_model
from repro.serving import SchedulerLimits, ServingEngine, compute_qos
from repro.serving.sessions import SessionConfig, iter_session_requests
from repro.serving.trace_io import (
    export_timeline,
    load_requests,
    save_requests,
)


def main() -> None:
    model = get_model("llama3-8b")
    device = device_model_for(get_chip("ador"))
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="ador-trace-"))
    trace_path = workdir / "sessions.json"

    stream = list(iter_session_requests(SessionConfig(), sessions=40,
                                        session_rate_per_s=2.0, seed=11))
    save_requests(stream, trace_path)
    print(f"saved {len(stream)} requests "
          f"({len(stream) / 40:.1f} turns/session) to {trace_path}")

    def replay():
        engine = ServingEngine(device, model, SchedulerLimits(max_batch=128))
        requests = load_requests(trace_path)
        for request in requests:
            # opt into full per-token timelines (slim tracking is the
            # default); the timeline comparison below needs them
            request.record_token_times = True
        return engine.run(requests)

    first, second = replay(), replay()
    identical = all(a.token_times == b.token_times
                    for a, b in zip(first.finished, second.finished))
    print(f"replayed twice: identical timelines = {identical}")

    qos = compute_qos(first.finished, first.total_time_s)
    print(f"QoS: TTFT p95 {qos.ttft_p95_s * 1e3:.1f} ms, "
          f"TBT p95 {qos.tbt_p95_s * 1e3:.2f} ms, "
          f"{qos.tokens_per_s:,.0f} tokens/s")

    timeline_path = workdir / "timeline.json"
    export_timeline(first.finished, timeline_path)
    print(f"per-request timeline exported to {timeline_path}")


if __name__ == "__main__":
    main()
