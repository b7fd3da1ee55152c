"""Request-trace serialization: save/load simulation inputs and results.

Reproducibility plumbing for the serving simulator: request streams are
written as JSON so a QoS result can be replayed bit-for-bit later or on
another machine, and finished runs export their per-request timelines
for offline analysis.
"""

from __future__ import annotations

import json
import pathlib

from repro.serving.request import Request


def save_requests(requests, path) -> None:
    """Write a request stream (inputs only) as JSON.

    Accepts any iterable — a materialized list or a lazy stream such as
    ``WorkloadSpec.iter_requests()`` — and consumes it once; the JSON
    payload is the only thing materialized here.
    """
    payload = []
    for r in requests:
        entry = {
            "request_id": r.request_id,
            "arrival_time": r.arrival_time,
            "input_tokens": r.input_tokens,
            "output_tokens": r.output_tokens,
        }
        if r.session_id is not None:
            entry["session_id"] = r.session_id
        # multi-turn fields are written only when set, so single-turn
        # traces keep their old compact shape byte-for-byte
        if r.turn_index:
            entry["turn_index"] = r.turn_index
        if r.history_tokens:
            entry["history_tokens"] = r.history_tokens
        payload.append(entry)
    pathlib.Path(path).write_text(json.dumps(payload, indent=1))


def load_requests(path) -> list:
    """Read a request stream written by :func:`save_requests`."""
    payload = json.loads(pathlib.Path(path).read_text())
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a JSON list of requests")
    requests = []
    for entry in payload:
        try:
            session = entry.get("session_id")
            requests.append(Request(
                request_id=int(entry["request_id"]),
                arrival_time=float(entry["arrival_time"]),
                input_tokens=int(entry["input_tokens"]),
                output_tokens=int(entry["output_tokens"]),
                session_id=None if session is None else int(session),
                # absent in traces written before multi-turn metadata
                # existed: default to a first/only turn with no history
                turn_index=int(entry.get("turn_index", 0)),
                history_tokens=int(entry.get("history_tokens", 0)),
            ))
        except KeyError as missing:
            raise ValueError(f"{path}: request entry missing {missing}")
    return sorted(requests, key=lambda r: r.arrival_time)


def export_timeline(finished: list, path) -> None:
    """Write per-request QoS timelines of a finished simulation."""
    payload = [
        {
            "request_id": r.request_id,
            "arrival_time": r.arrival_time,
            "input_tokens": r.input_tokens,
            "output_tokens": r.output_tokens,
            "first_token_time": r.first_token_time,
            "finish_time": r.finish_time,
            "ttft": r.ttft,
            "tbt": r.tbt,
            "e2e": r.e2e_latency,
        }
        for r in finished
    ]
    pathlib.Path(path).write_text(json.dumps(payload, indent=1))
