"""perfbench times each layer by replacing the module attributes listed in
perfbench/tracer.py's HOOKS.  A hook whose attribute a refactor moved or
renamed is skipped with a note, and the per-layer metrics it feeds silently
vanish; these tests make such a refactor fail instead, whether the name is
gone or is still there but no longer called."""

from __future__ import annotations

import importlib.util
import json
import sys

import conf_ensemble.cli  # noqa: F401  (imports every module a hook patches)
from conf_ensemble import cli, generate_blobs, save_csv

from conftest import ROOT, SWEEP_SCRIPT, load_script

TRACER = ROOT / "perfbench" / "tracer.py"
EXAMPLE_CONFIG = ROOT / "configs" / "example_blobs.json"

# The builder scores through member_prediction_arrays and no longer looks
# these two up; the tracer notes them as absent on every run.
KNOWN_STALE = {
    "conf_ensemble.builder:predict_logits_batch",
    "conf_ensemble.builder:softmax_batch",
}


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # Its dataclasses look their defining module up in sys.modules.
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    spec.loader.exec_module(tracer)
    return tracer


def hooked_modules(tracer, sweep) -> dict:
    """The modules the hooks patch, by the names HOOKS gives them."""
    modules = {name: module for name, module in sys.modules.items()
               if name.startswith("conf_ensemble")}
    modules[tracer.SWEEP_MODULE] = sweep
    return modules


def test_every_hook_target_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    resolver = tracer.Tracer(hooked_modules(tracer, load_script(SWEEP_SCRIPT)), tracer.HOOKS)
    missing = {hook.target for hook in tracer.HOOKS
               if resolver._resolve(hook.target)[0] is None}
    assert missing == KNOWN_STALE


def test_every_hooked_span_is_called(monkeypatch, tmp_path):
    """The three benchmark workloads in miniature, traced as perfbench
    traces them: every installed span records a call, and every per-layer
    metric of BENCHMARK.json is measured."""
    doc = json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
    doc["dataset"]["per_class"] = 40
    doc["build"]["training"]["epochs"] = 2
    doc["build"]["training_thresholds"] = [0, 0]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    data = tmp_path / "data.csv"
    save_csv(generate_blobs(num_classes=3, per_class=20, dim=4, spread=1.0, overlap=0.55,
                            seed=5), data)
    built = tmp_path / "built"
    sweep = load_script(SWEEP_SCRIPT)
    ops = [
        ("cli.main", lambda: cli.main(["build", "--config", str(config), "--out", str(built)])),
        ("cli.main", lambda: cli.main(["evaluate", "--ensemble", str(built), "--data", str(data),
                                       "--out", str(tmp_path / "evaluated")])),
        ("sweep.main", lambda: sweep.main(["--config", str(config),
                                           "--out", str(tmp_path / "swept")])),
    ]

    tracer_module = load_tracer(monkeypatch)
    tracer = tracer_module.Tracer(hooked_modules(tracer_module, sweep), tracer_module.HOOKS)
    tracer.install()
    try:
        codes = [tracer.run_op(op, root, run) for op, (root, run) in enumerate(ops)]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, None]

    called = {span.name for span in tracer.spans}
    assert tracer.installed_spans - called == set()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in benchmark["per_layer"]} - {"trace.overhead_s"}
    assert set(tracer.layer_metrics(sorted(names), ops=len(ops))) == names
    assert sorted(tracer.notes) == sorted(
        f"hook {target} not found; the metrics it feeds are absent" for target in KNOWN_STALE)
