"""Unit + cross-validation tests for the instruction-level simulator."""

import pytest

from repro.compiler.generator import InstructionGenerator
from repro.compiler.instructions import TargetUnit
from repro.core.scheduling import AdorDeviceModel
from repro.hardware.presets import a100, ador_table3
from repro.models.layers import Phase
from repro.models.zoo import get_model
from repro.simulator.machine import (
    InstructionLevelSimulator,
    UnitTimeline,
)


@pytest.fixture(scope="module")
def llama3():
    return get_model("llama3-8b")


@pytest.fixture(scope="module")
def chip():
    return ador_table3()


@pytest.fixture(scope="module")
def sim(chip):
    return InstructionLevelSimulator(chip)


def compile_stage(chip, model, phase, batch, q, ctx):
    return InstructionGenerator(chip).compile(model, phase, batch, q, ctx)


class TestUnitTimeline:
    def test_serializes_reservations(self):
        timeline = UnitTimeline()
        first = timeline.reserve(0.0, 1.0)
        second = timeline.reserve(0.0, 1.0)
        assert first == 1.0
        assert second == 2.0
        assert timeline.busy == 2.0

    def test_waits_for_earliest_start(self):
        timeline = UnitTimeline()
        done = timeline.reserve(5.0, 1.0)
        assert done == 6.0

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            UnitTimeline().reserve(0.0, -1.0)


class TestExecution:
    def test_rejects_non_hda(self):
        with pytest.raises(ValueError):
            InstructionLevelSimulator(a100())

    def test_decode_mac_tree_dominates(self, sim, chip, llama3):
        program = compile_stage(chip, llama3, Phase.DECODE, 64, 1, 1024)
        report = sim.run(program)
        assert report.seconds > 0
        assert report.utilization(TargetUnit.MAC_TREE) > 0.8
        assert report.unit_busy["mt"] > report.unit_busy["vu"]

    def test_prefill_systolic_dominates(self, sim, chip, llama3):
        program = compile_stage(chip, llama3, Phase.PREFILL, 1, 1024, 1024)
        report = sim.run(program)
        assert report.unit_busy["sa"] > report.unit_busy["vu"]
        assert report.utilization(TargetUnit.SYSTOLIC_ARRAY) > 0.5

    def test_decode_grows_with_batch(self, sim, chip, llama3):
        small = sim.run(compile_stage(chip, llama3, Phase.DECODE, 8, 1, 1024))
        large = sim.run(compile_stage(chip, llama3, Phase.DECODE, 128, 1, 1024))
        assert large.seconds > small.seconds


class TestCrossValidation:
    """The instruction-level path and the closed-form scheduler must tell
    the same story — they share calibration, so only scheduling slack may
    separate them."""

    @pytest.mark.parametrize("batch,ctx", [(16, 512), (64, 1024), (150, 1024)])
    def test_decode_agrees_with_analytical(self, sim, chip, llama3, batch, ctx):
        program = compile_stage(chip, llama3, Phase.DECODE, batch, 1, ctx)
        simulated = sim.run(program).seconds
        analytical = AdorDeviceModel(chip).decode_step_time(
            llama3, batch, ctx).seconds
        assert simulated == pytest.approx(analytical, rel=0.25)

    def test_prefill_agrees_with_analytical(self, sim, chip, llama3):
        program = compile_stage(chip, llama3, Phase.PREFILL, 1, 1024, 1024)
        simulated = sim.run(program).seconds
        analytical = AdorDeviceModel(chip).prefill_time(llama3, 1, 1024).seconds
        assert simulated == pytest.approx(analytical, rel=0.35)

    def test_decode_ordering_preserved_across_batches(self, sim, chip, llama3):
        device = AdorDeviceModel(chip)
        sim_times = []
        model_times = []
        for batch in (8, 32, 128):
            program = compile_stage(chip, llama3, Phase.DECODE, batch, 1, 1024)
            sim_times.append(sim.run(program).seconds)
            model_times.append(
                device.decode_step_time(llama3, batch, 1024).seconds)
        assert sim_times == sorted(sim_times)
        assert model_times == sorted(model_times)
