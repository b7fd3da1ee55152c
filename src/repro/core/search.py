"""ADOR architecture search — the three-step loop of Fig. 9.

Step 1 sizes compute units: the MAC tree first (from the bandwidth rule
of Section V-A), then lane count by sweeping self-attention latency
(Fig. 11b), then the systolic array geometry in multiples of 32
(Fig. 11a).  Step 2 sizes local/global memory from the activation
footprint simulator (Fig. 12).  Step 3 sets NoC and P2P bandwidths from
the dataflow and overlap models (Fig. 13).  Candidates are then
evaluated with the HDA scheduler and checked against TTFT, TBT,
utilization, area and power; no request rate is checked, since no
candidate is simulated serving a stream.  If no candidate meets both
requirement sets the loop relaxes the binding budget and reports what
extra hardware would be needed — the paper's feedback path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.design_point import DesignEvaluation, DesignPoint, evaluate_area
from repro.core.requirements import SearchRequest
from repro.core.scheduling import AdorDeviceModel
from repro.core.template import AdorTemplate, TemplateKnobs
from repro.core.dataflow import DataflowKind, MultiCoreDataflow
from repro.hardware.components import MacTree
from repro.hardware.power import PowerModel
from repro.models.footprint import peak_local_memory
from repro.models.zoo import get_model
from repro.parallel.overlap import OverlapModel, WorkloadPhase, minimum_p2p_bandwidth
from repro.perf.mac_tree import MacTreeTimingModel

_LANE_CANDIDATES = (1, 2, 4, 8, 16)
_CORE_CANDIDATES = (8, 16, 32, 64, 128)
_SA_SIZES = (32, 64, 96, 128)
#: sizing batch for the local-memory footprint (the paper's Fig. 12 case)
_FOOTPRINT_BATCH = 32
#: reference attention mechanisms for lane sizing — the paper determines
#: lane count "by measuring the performance of various self-attention
#: mechanisms" (Fig. 11b: MHA, GQA and MQA exemplars)
_LANE_REFERENCE_MODELS = ("llama2-7b", "llama3-8b", "falcon-7b")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one DSE run."""

    best: DesignPoint
    requirements_met: bool
    candidates: tuple
    log: tuple
    notes: str = ""


class AdorSearch:
    """Deterministic grid search over the ADOR template.

    ``memoize`` (default) caches the two pure sub-searches that the
    candidate loop would otherwise recompute for every ``sa_size`` and
    every budget-relaxation iteration: :meth:`choose_mt_lanes` depends
    only on ``(tree_size, cores)`` and :meth:`local_memory_requirement`
    on nothing but the request, so caching them changes no result —
    ``bench_table3_dse.py`` measures the speedup and asserts identity.
    """

    def __init__(self, request: SearchRequest,
                 memoize: bool = True) -> None:
        self.request = request
        self.template = AdorTemplate(request.vendor)
        self.models = [get_model(name) for name in request.model_names]
        self.memoize = memoize
        self._lane_cache: dict[tuple[int, int], int] = {}
        self._local_memory_cache: float | None = None

    # ------------------------------------------------------------------ #
    # Step 1a: MAC-tree lanes                                             #
    # ------------------------------------------------------------------ #

    def choose_mt_lanes(self, tree_size: int, cores: int) -> int:
        """Smallest lane count within 2 % of the best attention latency.

        Mirrors Fig. 11(b): sweep lanes, time decode self-attention for
        the MHA / GQA / MQA reference mechanisms, stop adding lanes once
        returns vanish (within a 2 % tolerance).
        """
        if self.memoize and (tree_size, cores) in self._lane_cache:
            return self._lane_cache[(tree_size, cores)]
        vendor = self.request.vendor
        slos = self.request.slos
        references = [get_model(name) for name in _LANE_REFERENCE_MODELS]

        def attention_seconds(lanes: int) -> float:
            mt = MacTreeTimingModel(
                tree=MacTree(tree_size, lanes),
                cores=cores,
                frequency_hz=vendor.frequency_hz,
                dram_bandwidth=vendor.dram_bandwidth,
            )
            total = 0.0
            for model in references:
                est = mt.decode_attention(
                    batch=slos.batch_size,
                    num_heads=model.num_heads,
                    num_kv_heads=model.num_kv_heads,
                    head_dim=model.head_dim,
                    context_len=slos.seq_len,
                )
                total += est.seconds * model.num_layers
            return total

        timings = {lanes: attention_seconds(lanes) for lanes in _LANE_CANDIDATES}
        best = min(timings.values())
        chosen = _LANE_CANDIDATES[-1]
        for lanes in _LANE_CANDIDATES:
            if timings[lanes] <= best * 1.02:
                chosen = lanes
                break
        self._lane_cache[(tree_size, cores)] = chosen
        return chosen

    # ------------------------------------------------------------------ #
    # Step 2: memory sizing                                               #
    # ------------------------------------------------------------------ #

    def local_memory_requirement(self) -> float:
        """Per-core local memory: worst-case single-layer activations.

        The latency dataflow keeps the full activation set on every core
        (same input, different weights), so the per-core need is the peak
        itself; the LM head is excluded because it is tiled over the
        vocabulary (Section V-B), and 25 % headroom covers double
        buffering.
        """
        if self.memoize and self._local_memory_cache is not None:
            return self._local_memory_cache
        worst = 0.0
        for model in self.models:
            report = peak_local_memory(model, _FOOTPRINT_BATCH)
            worst = max(worst, report.peak_excluding_lm_head)
        self._local_memory_cache = worst * 1.25
        return self._local_memory_cache

    # ------------------------------------------------------------------ #
    # Step 3: interconnect sizing                                         #
    # ------------------------------------------------------------------ #

    def choose_p2p_bandwidth(self, peak_flops: float) -> float:
        """Smallest vendor-available P2P bandwidth that overlaps decode."""
        vendor = self.request.vendor
        if self.request.num_devices <= 1:
            return min(vendor.available_p2p_bandwidths)
        overlap = OverlapModel(
            model=self.models[0],
            memory_bandwidth=vendor.dram_bandwidth,
            peak_flops=peak_flops,
            phase=WorkloadPhase.DECODE,
            batch=self.request.slos.batch_size,
            seq_len=self.request.slos.seq_len,
        )
        needed = minimum_p2p_bandwidth(
            overlap, self.request.num_devices,
            candidates_gbps=tuple(b / 1e9 for b in vendor.available_p2p_bandwidths),
        )
        return needed

    # ------------------------------------------------------------------ #
    # Candidate enumeration + evaluation                                  #
    # ------------------------------------------------------------------ #

    def _build_candidate(self, sa_size: int, cores: int) -> TemplateKnobs | None:
        vendor = self.request.vendor
        tree_size = self.template.mac_tree_size_for_bandwidth(cores)
        lanes = self.choose_mt_lanes(tree_size, cores)
        local, global_mem = self.template.memory_split(
            self.local_memory_requirement(), cores)
        if global_mem <= 0:
            return None
        peak = 2.0 * (sa_size * sa_size + tree_size * lanes) * cores \
            * vendor.frequency_hz
        # NoC: the larger of the two dataflows' demands
        draft = TemplateKnobs(
            sa_rows=sa_size, sa_cols=sa_size, cores=cores,
            mt_tree_size=tree_size, mt_lanes=lanes,
            local_memory_bytes=local, global_memory_bytes=global_mem,
            noc_bandwidth=1e12, p2p_bandwidth=64e9,
        )
        chip = self.template.build(draft)
        noc = max(
            MultiCoreDataflow(chip, DataflowKind.LATENCY).required_noc_bandwidth(),
            MultiCoreDataflow(chip, DataflowKind.THROUGHPUT).required_noc_bandwidth(),
        )
        p2p = self.choose_p2p_bandwidth(peak)
        return TemplateKnobs(
            sa_rows=sa_size, sa_cols=sa_size, cores=cores,
            mt_tree_size=tree_size, mt_lanes=lanes,
            local_memory_bytes=local, global_memory_bytes=global_mem,
            noc_bandwidth=noc, p2p_bandwidth=p2p,
        )

    def _evaluate(self, knobs: TemplateKnobs) -> DesignPoint:
        chip = self.template.build(knobs, name=(
            f"ADOR {knobs.sa_rows}x{knobs.sa_cols}x{knobs.cores}c "
            f"MT{knobs.mt_tree_size}x{knobs.mt_lanes}"
        ))
        device = AdorDeviceModel(chip)
        slos = self.request.slos
        devices = self.request.num_devices
        evaluations = []
        for model in self.models:
            prefill = device.prefill_time(model, 1, slos.seq_len, devices)
            decode = device.decode_step_time(
                model, slos.batch_size, slos.seq_len, devices)
            util = device.decode_bandwidth_utilization(
                model, slos.batch_size, slos.seq_len, devices)
            evaluations.append(DesignEvaluation(
                ttft_s=prefill.seconds,
                tbt_s=decode.seconds,
                decode_bandwidth_utilization=util,
            ))
        return DesignPoint(
            chip=chip,
            area_mm2=evaluate_area(chip),
            evaluations=tuple(evaluations),
        )

    # ------------------------------------------------------------------ #
    # The search loop with the Fig. 9 feedback path                       #
    # ------------------------------------------------------------------ #

    def run(self, max_iterations: int = 3) -> SearchResult:
        """Run the search, relaxing the area budget if requirements fail."""
        vendor = self.request.vendor
        slos = self.request.slos
        log: list[str] = []
        all_points: list[DesignPoint] = []
        budget = vendor.area_budget_mm2
        power = PowerModel()

        for iteration in range(max_iterations):
            log.append(f"iteration {iteration}: area budget {budget:.0f} mm2")
            points = []
            for sa_size in _SA_SIZES:
                for cores in _CORE_CANDIDATES:
                    knobs = self._build_candidate(sa_size, cores)
                    if knobs is None:
                        continue
                    point = self._evaluate(knobs)
                    points.append(point)
                    log.append(
                        f"  {point.chip.name}: area {point.area_mm2:.0f} mm2, "
                        f"TTFT {point.worst_ttft_s * 1e3:.1f} ms, "
                        f"TBT {point.worst_tbt_s * 1e3:.2f} ms, "
                        f"util {point.min_utilization:.2f}"
                    )
            all_points.extend(points)
            within_budget = [
                p for p in points
                if p.area_mm2 <= budget
                and power.tdp_w(p.chip) <= vendor.power_budget_w
            ]
            feasible = [
                p for p in within_budget
                if p.worst_ttft_s <= slos.ttft_slo_s
                and p.worst_tbt_s <= slos.tbt_slo_s
                and p.min_utilization >= vendor.min_hardware_utilization
            ]
            if feasible:
                best = max(feasible, key=DesignPoint.throughput_per_area)
                log.append(f"selected {best.chip.name}")
                met = budget <= vendor.area_budget_mm2
                notes = "" if met else (
                    f"requirements needed an area budget of {budget:.0f} mm2 "
                    f"(vendor offered {vendor.area_budget_mm2:.0f} mm2)"
                )
                return SearchResult(
                    best=best,
                    requirements_met=met,
                    candidates=tuple(all_points),
                    log=tuple(log),
                    notes=notes,
                )
            # Feedback path: vendor needs more silicon for these SLOs.
            budget *= 1.25
            log.append("no feasible candidate; relaxing area budget by 25%")

        # Requirements unmet even after relaxation: propose the best
        # effort along with what it would take (paper Section V-D).
        best = max(all_points, key=DesignPoint.throughput_per_area)
        return SearchResult(
            best=best,
            requirements_met=False,
            candidates=tuple(all_points),
            log=tuple(log),
            notes=(
                "requirements unmet after budget relaxation; proposing the "
                "highest-merit design with additional hardware needs noted"
            ),
        )
