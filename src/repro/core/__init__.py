"""ADOR core: the architecture template, HDA scheduling and DSE search.

This package is the paper's primary contribution.  The template
(:mod:`repro.core.template`) spans the design space of Section IV; the
device model :class:`~repro.core.scheduling.AdorDeviceModel` implements
the dynamic prefill/decode orchestration of Fig. 8 and provides the
stage-latency estimates every experiment consumes; the search
(:mod:`repro.core.search`) runs the three-step exploration loop of
Fig. 9 and emits the Table III design.
"""

from repro.core.requirements import ServiceLevelObjectives, VendorConstraints
from repro.core.template import AdorTemplate, TemplateKnobs
from repro.core.dataflow import DataflowKind, MultiCoreDataflow
from repro.core.scheduling import AdorDeviceModel, device_model_for
from repro.core.design_point import DesignEvaluation, DesignPoint
from repro.core.search import AdorSearch, SearchResult

__all__ = [
    "ServiceLevelObjectives",
    "VendorConstraints",
    "AdorTemplate",
    "TemplateKnobs",
    "DataflowKind",
    "MultiCoreDataflow",
    "AdorDeviceModel",
    "device_model_for",
    "DesignEvaluation",
    "DesignPoint",
    "AdorSearch",
    "SearchResult",
]
