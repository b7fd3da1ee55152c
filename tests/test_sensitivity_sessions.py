"""Unit tests for sensitivity analysis and multi-turn sessions."""

import numpy as np
import pytest

from repro.core.sensitivity import (
    most_sensitive_knob,
    sensitivity_table,
)
from repro.hardware.presets import ador_table3
from repro.models.zoo import get_model
from repro.serving.sessions import (
    MultiTurnSessionGenerator,
    SessionConfig,
    iter_session_requests,
)


@pytest.fixture(scope="module")
def llama3():
    return get_model("llama3-8b")


@pytest.fixture(scope="module")
def rows(llama3):
    return sensitivity_table(ador_table3(), llama3, batch=128, seq_len=1024)


class TestSensitivity:
    def test_all_knobs_covered(self, rows):
        knobs = {row.knob for row in rows}
        assert {"memory bandwidth", "cores", "systolic array",
                "MAC-tree lanes", "NoC bandwidth", "P2P bandwidth"} <= knobs

    def test_decode_most_sensitive_to_bandwidth(self, rows):
        """The paper's central claim: decode is a bandwidth story."""
        assert most_sensitive_knob(rows, "tbt") == "memory bandwidth"

    def test_halving_bandwidth_doubles_tbt(self, rows):
        row = next(r for r in rows
                   if r.knob == "memory bandwidth" and r.direction == "x0.5")
        assert 0.7 < row.tbt_change < 1.2  # ~2x step time

    def test_doubling_bandwidth_speeds_decode(self, rows):
        row = next(r for r in rows
                   if r.knob == "memory bandwidth" and r.direction == "x2")
        assert row.tbt_change < -0.3

    def test_noc_halving_barely_matters(self, rows):
        """The all-gather dataflow keeps NoC demand tiny (Fig. 6d)."""
        row = next(r for r in rows if r.knob == "NoC bandwidth")
        assert abs(row.tbt_change) < 0.05

    def test_p2p_irrelevant_single_device(self, rows):
        row = next(r for r in rows if r.knob == "P2P bandwidth")
        assert abs(row.tbt_change) < 1e-9
        assert row.area_change < 0  # smaller SerDes

    def test_more_cores_cost_area(self, rows):
        row = next(r for r in rows
                   if r.knob == "cores" and r.direction == "x2")
        assert row.area_change > 0.3

    def test_prefill_sensitive_to_systolic_size(self, rows):
        grown = next(r for r in rows
                     if r.knob == "systolic array"
                     and r.direction == "double side")
        assert grown.ttft_change < -0.2  # 4x MACs: much faster prefill

    def test_rejects_empty_rows(self):
        with pytest.raises(ValueError):
            most_sensitive_knob([])


class TestSessions:
    def _generator(self, seed=0, **overrides):
        config = SessionConfig(**overrides)
        return MultiTurnSessionGenerator(config, np.random.default_rng(seed))

    def test_context_grows_across_turns(self):
        generator = self._generator(seed=1)
        for sid in range(20):
            session = generator.generate_session(sid, 0.0)
            inputs = [turn.input_tokens for turn in session]
            assert inputs == sorted(inputs), f"session {sid}"

    def test_turn_count_mean_matches_config(self):
        generator = self._generator(seed=2, mean_turns=3.7)
        counts = [len(generator.generate_session(i, 0.0))
                  for i in range(4000)]
        assert np.mean(counts) == pytest.approx(3.7, rel=0.1)

    def test_context_capped(self):
        generator = self._generator(seed=3, max_context=512)
        for sid in range(50):
            for turn in generator.generate_session(sid, 0.0):
                assert turn.input_tokens <= 512

    def _stream(self, sessions, session_rate_per_s, seed, **overrides):
        return list(iter_session_requests(SessionConfig(**overrides),
                                          sessions, session_rate_per_s,
                                          seed))

    def test_stream_is_time_sorted(self):
        stream = self._stream(50, session_rate_per_s=2.0, seed=4)
        arrivals = [r.arrival_time for r in stream]
        assert arrivals == sorted(arrivals)

    def test_stream_request_count_scales_with_turns(self):
        stream = self._stream(500, session_rate_per_s=5.0, seed=5,
                              mean_turns=3.7)
        assert len(stream) == pytest.approx(500 * 3.7, rel=0.15)

    def test_multiturn_inputs_heavier_than_single_turn(self):
        """Accumulated history makes the mean effective input much larger
        than one fresh question — the ultrachat calibration story."""
        stream = self._stream(300, session_rate_per_s=5.0, seed=6)
        mean_input = np.mean([r.input_tokens for r in stream])
        assert mean_input > 3 * SessionConfig().question_median

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SessionConfig(mean_turns=0.5)
        with pytest.raises(ValueError):
            self._stream(10, 0.0, seed=0)

    @pytest.mark.parametrize("field, value, message", [
        # each used to fail mid-generation with a message naming no
        # field, or (answer_median=0.0) to yield one-token answers
        ("question_median", -5.0, "positive and finite"),
        ("question_median", float("nan"), "positive and finite"),
        ("answer_median", 0.0, "positive and finite"),
        ("answer_median", float("inf"), "positive and finite"),
        ("question_sigma", float("inf"), "non-negative and finite"),
        ("answer_sigma", -1.0, "non-negative and finite"),
        ("max_context", 0, ">= 1"),
        # a fractional context used to yield float input_tokens
        ("max_context", 100.5, "an integer"),
        ("mean_turns", float("inf"), "finite and >= 1"),
        ("mean_turns", 0.5, "finite and >= 1"),
        ("think_time_mean_s", -1.0, "non-negative"),
    ])
    def test_config_names_the_field_it_rejects(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} must be {message}"):
            SessionConfig(**{field: value})

    def test_zero_sigma_draws_the_median(self):
        generator = self._generator(seed=8, question_sigma=0.0,
                                    answer_sigma=0.0)
        first, *_ = generator.generate_session(0, 0.0)
        assert first.input_tokens == SessionConfig().question_median
        assert first.output_tokens == SessionConfig().answer_median

    def test_sessions_run_through_engine(self, llama3):
        from repro.core.scheduling import AdorDeviceModel
        from repro.serving.engine import ServingEngine
        from repro.serving.scheduler import SchedulerLimits
        stream = self._stream(20, session_rate_per_s=2.0, seed=7)
        engine = ServingEngine(AdorDeviceModel(ador_table3()), llama3,
                               SchedulerLimits(max_batch=64))
        result = engine.run(stream, max_sim_seconds=600.0)
        assert len(result.finished) == len(stream)
