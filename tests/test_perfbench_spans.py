"""The span tracer's patch points exist on this tree and are restored.

``perfbench/spans.py`` traces the simulator from outside the program: it
replaces each layer's entry points by module and attribute name for the
duration of ``traced_layers()``.  A renamed or deleted entry point makes
entering the block fail, and an attribute left patched would leak
tracing into every later run.  This enters the block once, runs no
workload, and checks both.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_patches_and_restores_every_entry_point(
        spans, monkeypatch):
    patched = []

    class RecordingPatcher(spans._Patcher):
        def set(self, owner, attr, value):
            patched.append((owner, attr, vars(owner)[attr]))
            super().set(owner, attr, value)

    monkeypatch.setattr(spans, "_Patcher", RecordingPatcher)
    with spans.traced_layers():
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, (owner, attr)
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)

    # hot-path entry points whose spans the per-layer ledger reports
    names = {(getattr(owner, "__name__", None), attr)
             for owner, attr, _ in patched}
    for entry in (("ReplicaSim", "snapshot"),
                  ("ReplicaSim", "advance_to"),
                  ("repro.serving.engine", "run_decode_burst"),
                  ("PagedKvAllocator", "extend"),
                  ("PagedKvAllocator", "growth_blocks")):
        assert entry in names, entry
