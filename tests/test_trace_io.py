"""Unit tests for request-trace serialization and replay determinism."""

import json

import pytest

from repro.core.scheduling import AdorDeviceModel
from repro.hardware.presets import ador_table3
from repro.models.zoo import get_model
from repro.serving.dataset import ULTRACHAT_LIKE
from repro.serving.engine import ServingEngine
from repro.serving.generator import iter_poisson_requests
from repro.serving.scheduler import SchedulerLimits
from repro.serving.trace_io import (
    export_timeline,
    load_requests,
    save_requests,
)


@pytest.fixture
def stream():
    return list(iter_poisson_requests(ULTRACHAT_LIKE, 10.0, 9, 25))


class TestRoundTrip:
    def test_save_load_preserves_requests(self, stream, tmp_path):
        path = tmp_path / "trace.json"
        save_requests(stream, path)
        loaded = load_requests(path)
        assert len(loaded) == len(stream)
        for a, b in zip(sorted(stream, key=lambda r: r.arrival_time), loaded):
            assert a.request_id == b.request_id
            assert a.arrival_time == b.arrival_time
            assert (a.input_tokens, a.output_tokens) \
                == (b.input_tokens, b.output_tokens)

    def test_loaded_requests_are_fresh(self, stream, tmp_path):
        path = tmp_path / "trace.json"
        save_requests(stream, path)
        for request in load_requests(path):
            assert request.generated_tokens == 0
            assert request.token_times == []

    def test_replay_is_deterministic(self, stream, tmp_path):
        """Two engines fed the same saved trace produce identical QoS."""
        path = tmp_path / "trace.json"
        save_requests(stream, path)
        model = get_model("llama3-8b")

        def run():
            engine = ServingEngine(AdorDeviceModel(ador_table3()), model,
                                   SchedulerLimits(max_batch=32))
            requests = load_requests(path)
            for request in requests:
                request.record_token_times = True
            return engine.run(requests)

        first, second = run(), run()
        assert first.total_time_s == second.total_time_s
        for a, b in zip(first.finished, second.finished):
            assert a.token_times == b.token_times

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError, match="expected a JSON list"):
            load_requests(path)

    def test_rejects_nan_arrival(self, tmp_path):
        # Python's json reads NaN; a NaN arrival must not reach an engine
        path = tmp_path / "bad.json"
        path.write_text('[{"request_id": 1, "arrival_time": NaN, '
                        '"input_tokens": 8, "output_tokens": 8}]')
        with pytest.raises(ValueError, match="arrival time"):
            load_requests(path)

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"request_id": 1}]')
        with pytest.raises(ValueError, match="missing"):
            load_requests(path)

    def test_session_turn_fields_round_trip(self, tmp_path):
        from repro.serving.sessions import (
            SessionConfig,
            iter_session_requests,
        )

        stream = list(iter_session_requests(SessionConfig(), 30, 4.0, 5))
        path = tmp_path / "sessions.json"
        save_requests(stream, path)
        loaded = load_requests(path)
        by_id = {r.request_id: r for r in loaded}
        assert any(r.history_tokens > 0 for r in loaded)
        for a in stream:
            b = by_id[a.request_id]
            assert (a.session_id, a.turn_index, a.history_tokens) \
                == (b.session_id, b.turn_index, b.history_tokens)

    def test_old_traces_default_session_fields(self, stream, tmp_path):
        """Traces written before the prefix-reuse fields load cleanly."""
        path = tmp_path / "trace.json"
        save_requests(stream, path)
        assert "turn_index" not in path.read_text()
        for request in load_requests(path):
            assert request.turn_index == 0
            assert request.history_tokens == 0


class TestTimelineExport:
    def test_export_and_load(self, stream, tmp_path):
        model = get_model("llama3-8b")
        engine = ServingEngine(AdorDeviceModel(ador_table3()), model,
                               SchedulerLimits(max_batch=32))
        result = engine.run(stream)
        path = tmp_path / "timeline.json"
        export_timeline(result.finished, path)
        timeline = json.loads(path.read_text())
        assert len(timeline) == len(result.finished)
        for entry in timeline:
            assert entry["ttft"] > 0
            assert entry["finish_time"] >= entry["first_token_time"]
