"""Integration tests: the full pipeline from search to serving."""

import pytest

from repro.compiler.generator import InstructionGenerator
from repro.compiler.instructions import Opcode
from repro.core.requirements import (
    SearchRequest,
    ServiceLevelObjectives,
    VendorConstraints,
)
from repro.core.scheduling import device_model_for
from repro.core.search import AdorSearch
from repro.hardware.presets import a100, ador_table3, ader_reference_designs
from repro.models.layers import Phase
from repro.models.zoo import get_model
from repro.serving.dataset import ULTRACHAT_LIKE
from repro.serving.engine import ServingEngine
from repro.serving.generator import iter_poisson_requests
from repro.serving.qos import compute_qos
from repro.serving.scheduler import SchedulerLimits


@pytest.fixture(scope="module")
def llama3():
    return get_model("llama3-8b")


class TestSearchToServing:
    """The Fig. 9 promise: the searched design meets its SLOs when the
    serving simulator replays a realistic workload against it."""

    @pytest.fixture(scope="class")
    def searched_chip(self):
        request = SearchRequest(
            model_names=("llama3-8b",),
            slos=ServiceLevelObjectives(ttft_slo_s=0.06, tbt_slo_s=0.030,
                                        batch_size=128, seq_len=1024),
            vendor=VendorConstraints(area_budget_mm2=550.0),
        )
        result = AdorSearch(request).run()
        assert result.requirements_met
        return result.best.chip

    def test_searched_design_serves_under_slo(self, searched_chip, llama3):
        device = device_model_for(searched_chip)
        requests = list(iter_poisson_requests(ULTRACHAT_LIKE, 10.0, 11, 120))
        engine = ServingEngine(device, llama3, SchedulerLimits(max_batch=128))
        result = engine.run(requests)
        assert len(result.finished) == 120
        qos = compute_qos(result.finished, result.total_time_s)
        assert qos.tbt_p95_s <= 0.030

    def test_searched_design_matches_table3_preset(self, searched_chip):
        preset = ador_table3()
        assert searched_chip.systolic_array.rows == preset.systolic_array.rows
        assert searched_chip.cores == preset.cores
        assert searched_chip.mac_tree.tree_size == preset.mac_tree.tree_size


class TestCompilerSchedulerConsistency:
    def test_compiled_bytes_match_scheduler_streams(self, llama3):
        """The instruction stream's DRAM bytes equal what the scheduler
        charges for a decode step (weights + KV)."""
        chip = ador_table3()
        program = InstructionGenerator(chip).compile(
            llama3, Phase.DECODE, 32, 1, 1024)
        streamed = sum(
            inst.bytes_moved for inst in program.instructions
            if inst.opcode in (Opcode.GEMV, Opcode.ATTN))
        from repro.models.kv_cache import kv_cache_bytes
        expected = llama3.active_param_bytes_per_token \
            + kv_cache_bytes(llama3, 32, 1024)
        assert streamed == pytest.approx(expected, rel=0.02)


class TestCrossDesignConsistency:
    """Fig. 15's orderings hold end-to-end through the serving layer."""

    def test_ador_outperforms_a100_at_load(self, llama3):
        import copy
        requests = list(iter_poisson_requests(ULTRACHAT_LIKE, 12.0, 3, 60))
        outcomes = {}
        for name, chip in (("ADOR", ador_table3()), ("A100", a100())):
            engine = ServingEngine(device_model_for(chip), llama3,
                                   SchedulerLimits(max_batch=128))
            result = engine.run(copy.deepcopy(requests))
            outcomes[name] = compute_qos(result.finished, result.total_time_s)
        assert outcomes["ADOR"].tbt_mean_s < outcomes["A100"].tbt_mean_s

    def test_every_table3_design_can_serve(self, llama3):
        requests = list(iter_poisson_requests(ULTRACHAT_LIKE, 4.0, 5, 20))
        import copy
        for name, chip in ader_reference_designs().items():
            engine = ServingEngine(device_model_for(chip), llama3,
                                   SchedulerLimits(max_batch=64))
            result = engine.run(copy.deepcopy(requests))
            assert len(result.finished) == 20, name
