"""perfbench times each layer by replacing the module attributes listed in
perfbench/tracer.py's HOOKS.  A hook whose attribute a refactor moved or
renamed is skipped with a note, and the per-layer metrics it feeds silently
vanish; this test makes such a refactor fail instead."""

from __future__ import annotations

import importlib.util
import sys

import conf_ensemble.cli  # noqa: F401  (imports every module a hook patches)

from conftest import ROOT, SWEEP_SCRIPT, load_script

TRACER = ROOT / "perfbench" / "tracer.py"

# The builder scores through member_prediction_arrays and no longer looks
# these two up; the tracer notes them as absent on every run.
KNOWN_STALE = {
    "conf_ensemble.builder:predict_logits_batch",
    "conf_ensemble.builder:softmax_batch",
}


def test_every_hook_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # Its dataclasses look their defining module up in sys.modules.
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    spec.loader.exec_module(tracer)

    modules = {name: module for name, module in sys.modules.items()
               if name.startswith("conf_ensemble")}
    modules[tracer.SWEEP_MODULE] = load_script(SWEEP_SCRIPT)
    resolver = tracer.Tracer(modules, tracer.HOOKS)
    missing = {hook.target for hook in tracer.HOOKS
               if resolver._resolve(hook.target)[0] is None}
    assert missing == KNOWN_STALE
