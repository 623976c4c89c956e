#!/usr/bin/env python3
"""Benchmark of conf-ensemble's user-facing workloads.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 42 --seconds 30 --trace 0

Each workload is a closed loop with one client: one op at a time, each
starting after the previous one finished.  The library is driven
in-process, the way a user would call it: ``conf_ensemble.cli.main`` for
``build`` and ``evaluate``, ``scripts/run_threshold_sweep.py:main`` for
``sweep``.  The workload seed replaces the dataset seed of
``configs/example_blobs.json``; seed 42 reproduces that config exactly.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced ops and prints the per-layer
metrics (per op) plus the tracing overhead; its spans are written to
``.perfbench/``.  Every op
has its outputs checked outside the timed window.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import HOOKS, SWEEP_MODULE, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SWEEP_SCRIPT = ROOT / "scripts" / "run_threshold_sweep.py"
EXAMPLE_CONFIG = ROOT / "configs" / "example_blobs.json"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
MIN_OPS = 3  # per run; of each kind, untraced and traced, in a traced run
ORACLE_ROWS = 1000
SWEEP_RESULT_ROWS = 32
FLOAT_TOLERANCE = 1e-12


class CheckFailed(Exception):
    """An op's outputs are not what the program must produce."""


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class Workload:
    """Inputs, op, output check and quality figures of one workload.

    ``setup`` prepares everything the ops read: the seeded config, the
    ensemble the CLI stores from it, and a CSV dataset.  ``check`` runs
    after every op, outside its timing: the first op's outputs are checked
    in full, every later op must reproduce their digest.
    """

    root_span = "cli.main"
    csv_per_class = 1000  # rows per class of the CSV written in setup

    def __init__(self, seed: int, lib):
        self.seed = seed
        self.lib = lib
        doc = json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
        doc["dataset"]["seed"] = seed
        doc.pop("output_dir", None)
        self.config_doc = doc
        blobs = doc["dataset"]
        self.train_rows = blobs["num_classes"] * blobs["per_class"]
        self.reference_digest: str | None = None
        self.quality: dict | None = None

    def csv_seed(self) -> int:
        return self.seed + 1  # held out from the training data

    def setup(self, work: Path) -> None:
        work.mkdir(parents=True)
        self.config = work / "config.json"
        self.config.write_text(json.dumps(self.config_doc, indent=2), encoding="utf-8")
        self.stored = work / "stored"
        self.cli(["build", "--config", str(self.config), "--out", str(self.stored)])
        blobs = self.config_doc["dataset"]
        self.data = self.lib.generate_blobs(
            num_classes=blobs["num_classes"],
            per_class=self.csv_per_class,
            dim=blobs["dim"],
            spread=blobs["spread"],
            overlap=blobs["overlap"],
            seed=self.csv_seed(),
        )
        self.data_csv = work / "data.csv"
        self.lib.save_csv(self.data, self.data_csv)
        self.stored_digest = self.build_digest(self.stored)

    def input_rows(self) -> int:
        return self.train_rows

    def cli(self, argv) -> None:
        code = self.lib.cli.main(argv)
        if code != 0:
            raise CheckFailed(f"conf-ensemble {argv[0]} exited with {code}")

    def op(self, out: Path) -> int:
        raise NotImplementedError

    def check(self, out: Path) -> None:
        digest = self.output_digest(out)
        if self.reference_digest is None:
            self.quality = self.check_in_full(out)
            self.reference_digest = digest
        elif digest != self.reference_digest:
            raise CheckFailed(f"output digest {digest} != first op's {self.reference_digest}")

    def output_digest(self, out: Path) -> str:
        raise NotImplementedError

    def check_in_full(self, out: Path) -> dict:
        raise NotImplementedError

    def build_digest(self, directory: Path) -> str:
        """Digest of a stored ensemble: manifest, weights and pool indices.
        build_report.json is left out: it records wall times."""
        files = [directory / "manifest.json", directory / "weights.bin"]
        files += sorted((directory / "subsets").glob("level_*.idx"))
        return _sha256_files(files)

    def evaluation_quality(self, out: Path) -> dict:
        """Accuracy, ECE and members consulted per sample of an evaluate
        output directory; the reported accuracy is recomputed per sample."""
        evaluation = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
        samples = evaluation["samples"]
        hits = sum(s["chosen_class"] == s["true_class"] for s in samples)
        if abs(hits / len(samples) - evaluation["accuracy"]) > FLOAT_TOLERANCE:
            raise CheckFailed(
                f"evaluation.json reports accuracy {evaluation['accuracy']}, "
                f"its samples give {hits / len(samples)}"
            )
        usage = json.loads((out / "utilization.json").read_text(encoding="utf-8"))
        levels = usage["level_counts"]
        consulted = sum((k + 1) * c for k, c in enumerate(levels))
        consulted += len(levels) * usage["consensus_count"]
        calibration = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
        return {
            "accuracy": evaluation["accuracy"],
            "ece": calibration["ece"],
            "members_per_sample": consulted / usage["num_samples"],
        }


class Build(Workload):
    """``conf-ensemble build`` on the example config into a fresh directory."""

    def op(self, out: Path) -> int:
        return self.lib.cli.main(["build", "--config", str(self.config), "--out", str(out)])

    def check(self, out: Path) -> None:
        digest = self.build_digest(out)
        if digest != self.stored_digest:
            raise CheckFailed(f"build digest {digest} != set-up build's {self.stored_digest}")
        manifest = self.lib.load_manifest(out)
        expected = self.config_doc["build"]["num_members"]
        if manifest.num_members != expected:
            raise CheckFailed(f"reloaded {manifest.num_members} members, expected {expected}")
        if self.quality is None:
            self.quality = self.check_in_full(out)
        self.reference_digest = digest

    def check_in_full(self, out: Path) -> dict:
        scored = out.parent / f"{out.name}-heldout"
        self.cli(["evaluate", "--ensemble", str(out), "--data", str(self.data_csv),
                  "--out", str(scored)])
        try:
            return self.evaluation_quality(scored)
        finally:
            shutil.rmtree(scored)


class Evaluate(Workload):
    """``conf-ensemble evaluate`` of the stored ensemble on ~100k held-out
    rows at the manifest's default runtime, writing all four artifacts."""

    csv_per_class = 33_334
    ARTIFACTS = ("evaluation.json", "evaluation.csv", "calibration.json", "utilization.json")

    def input_rows(self) -> int:
        return len(self.data)

    def op(self, out: Path) -> int:
        return self.lib.cli.main(["evaluate", "--ensemble", str(self.stored),
                                  "--data", str(self.data_csv), "--out", str(out)])

    def output_digest(self, out: Path) -> str:
        return _sha256_files(out / name for name in self.ARTIFACTS)

    def check_in_full(self, out: Path) -> dict:
        """Replay a seeded subsample through the per-sample oracle
        ``cascade_predict`` and compare with evaluation.csv."""
        np, lib = self.lib.np, self.lib
        manifest = lib.load_manifest(self.stored)
        rcfg = manifest.default_runtime
        with open(out / "evaluation.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        n = len(self.data)
        if len(rows) != n:
            raise CheckFailed(f"evaluation.csv has {len(rows)} rows for {n} samples")
        picks = np.random.default_rng(self.seed).choice(n, size=min(ORACLE_ROWS, n),
                                                         replace=False)
        for i in sorted(int(p) for p in picks):
            pred, trace = lib.cascade_predict(manifest, rcfg, self.data.features[i])
            level = "consensus" if trace.accepted_level is None else str(trace.accepted_level)
            expected = [str(i), str(pred.class_index), str(int(self.data.labels[i])), level]
            if rows[i][:4] != expected:
                raise CheckFailed(f"evaluation.csv row {i} is {rows[i][:4]}, oracle {expected}")
        return self.evaluation_quality(out)


class Sweep(Workload):
    """``scripts/run_threshold_sweep.py --seed <seed> --out <fresh dir>``."""

    root_span = "sweep.main"

    def csv_seed(self) -> int:
        return self.seed  # the sweep's own dataset, for the cross-check

    def __init__(self, seed: int, lib):
        super().__init__(seed, lib)
        self.module = lib.sweep_module()

    def op(self, out: Path) -> int:
        argv = sys.argv
        sys.argv = [str(SWEEP_SCRIPT), "--seed", str(self.seed), "--out", str(out)]
        try:
            self.module.main()
        finally:
            sys.argv = argv
        return 0

    def output_digest(self, out: Path) -> str:
        return _sha256_files([out / "sweep.json", out / "sweep.csv"])

    def check_in_full(self, out: Path) -> dict:
        """The sweep's 3-member rebased row at (0.2, most_confident) must
        match ``conf-ensemble evaluate`` of the same ensemble on the same
        data; that ensemble is the example config's, stored in setup."""
        results = json.loads((out / "sweep.json").read_text(encoding="utf-8"))["results"]
        if len(results) != SWEEP_RESULT_ROWS:
            raise CheckFailed(f"sweep.json has {len(results)} rows, expected {SWEEP_RESULT_ROWS}")
        runtime = self.config_doc["runtime"][0]
        row = next(r for r in results if r["ensemble"] == "3member-rebased"
                   and r["runtime_threshold"] == runtime["threshold"]
                   and r["consensus"] == runtime["consensus"])
        scored = out.parent / f"{out.name}-cli"
        self.cli(["evaluate", "--ensemble", str(self.stored), "--data", str(self.data_csv),
                  "--runtime-thresholds", str(runtime["threshold"]),
                  "--consensus", runtime["consensus"], "--out", str(scored)])
        try:
            quality = self.evaluation_quality(scored)
        finally:
            shutil.rmtree(scored)
        for key in ("accuracy", "ece"):
            if abs(row[key] - quality[key]) > FLOAT_TOLERANCE:
                raise CheckFailed(f"sweep {key} {row[key]} != evaluate {quality[key]}")
        return quality


WORKLOADS = {"build": Build, "evaluate": Evaluate, "sweep": Sweep}


class Library:
    """The program under test, imported from this checkout's sources."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import numpy

        import conf_ensemble
        import conf_ensemble.cli

        if not Path(conf_ensemble.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"conf_ensemble imported from {conf_ensemble.__file__}, not {SRC}")
        self.np = numpy
        self.cli = conf_ensemble.cli
        self.generate_blobs = conf_ensemble.generate_blobs
        self.save_csv = conf_ensemble.save_csv
        self.load_manifest = conf_ensemble.load_manifest
        self.cascade_predict = conf_ensemble.cascade_predict
        self._sweep = None

    def sweep_module(self):
        if self._sweep is None:
            spec = importlib.util.spec_from_file_location(SWEEP_SCRIPT.stem, SWEEP_SCRIPT)
            module = importlib.util.module_from_spec(spec)
            sys.modules[SWEEP_SCRIPT.stem] = module
            spec.loader.exec_module(module)
            self._sweep = module
        return self._sweep

    def modules(self) -> dict:
        """Modules the tracer's hooks may patch, by import name."""
        found = {name: module for name, module in sys.modules.items()
                 if name.startswith("conf_ensemble")}
        if self._sweep is not None:
            found[SWEEP_SCRIPT.stem] = self._sweep
        return found


# -- environment ---------------------------------------------------------------


def cap_blas_threads() -> int:
    """Keep BLAS thread pools within this process's CPUs; returns nproc.
    Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def _blas(numpy) -> dict:
    info = {"threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except Exception as exc:  # older numpy: no dict mode
        info["error"] = repr(exc)
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        if paths:
            lib = ctypes.CDLL(paths[0])
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    info["threads"] = int(getattr(lib, symbol)())
                    break
    except OSError as exc:
        info["threads_error"] = repr(exc)
    return info


def _commit() -> str:
    """HEAD's commit when the checkout is a git work tree with a loose ref."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref = (git / ref[5:]).read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    return ref


def environment(lib, nproc: int, workload: str, seed: int) -> dict:
    sources = sorted(SRC.rglob("*.py")) + [SWEEP_SCRIPT, EXAMPLE_CONFIG]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": lib.np.__version__,
        "blas": _blas(lib.np),
        "commit": _commit(),
        "source_digest": _sha256_files(sources),
        "load": "closed loop, 1 client, 1 process",
    }


# -- measurement ---------------------------------------------------------------


def _tail_percentile(values):
    """(p, value) for the highest whole percentile (nearest rank) with at
    least ten samples above it, or None when there are too few samples."""
    n = len(values)
    p = 100 * (n - 10) // n
    if p <= 50:
        return None
    return p, sorted(values)[-(-p * n // 100) - 1]


def _describe(times) -> str:
    text = f"median of {len(times)} ops"
    tail = _tail_percentile(times)
    if tail:
        text += f", p{tail[0]} {tail[1]:.6f} s"
    return text


def measure(workload: Workload, seconds: float, work: Path, tracer=None):
    """Run ops for ``seconds``, at least MIN_OPS of each kind.  With a
    tracer, untraced and traced ops alternate, so that drift in the
    machine's speed affects both alike.  Returns ({traced: op times}, failed)."""
    times: dict[bool, list[float]] = {False: [], True: []}
    kinds = (False, True) if tracer is not None else (False,)
    failed, op = 0, 0
    started = time.perf_counter()
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        while (min(len(times[k]) for k in kinds) < MIN_OPS
               or time.perf_counter() - started < seconds):
            traced = kinds[op % len(kinds)]
            out = work / f"op{op}"
            if traced:
                tracer.install()
            gc.collect()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(devnull):
                    if traced:
                        code = tracer.run_op(op, workload.root_span, lambda: workload.op(out))
                    else:
                        code = workload.op(out)
            except Exception:
                code = "an exception"
                traceback.print_exc()
            times[traced].append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
            try:
                if code != 0:
                    raise CheckFailed(f"op exited with {code}")
                with contextlib.redirect_stdout(devnull):
                    workload.check(out)
            except Exception:
                failed += 1
                traceback.print_exc()
            shutil.rmtree(out, ignore_errors=True)
            op += 1
    return times, failed


def set_up(workload: Workload, work: Path, repeats: int) -> list[float]:
    """Prepare the workload ``repeats`` times into fresh directories; every
    repetition must store the same ensemble.  Returns the set-up times."""
    times, digests = [], set()
    for r in range(repeats):
        directory = work / f"setup{r}"
        gc.collect()
        t0 = time.perf_counter()
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            with contextlib.redirect_stdout(devnull):
                workload.setup(directory)
        times.append(time.perf_counter() - t0)
        digests.add(workload.stored_digest)
        if r + 1 < repeats:
            shutil.rmtree(directory)
    if len(digests) != 1:
        raise CheckFailed(f"set-up stored {len(digests)} different ensembles")
    return times


def _metric_lines(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}{notes.get(name, '')}")


def run(args, spec: dict, lib, nproc: int) -> int:
    workload = WORKLOADS[args.workload](args.seed, lib)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = environment(lib, nproc, args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        setup_times = set_up(workload, work, 1 if args.trace else SETUP_REPEATS)
        if args.trace:
            result = traced(args, spec, lib, workload, work, env)
        else:
            result = untraced(args, spec, workload, work, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def untraced(args, spec, workload: Workload, work: Path, setup_times) -> dict:
    times, failed = measure(workload, args.seconds, work)
    times = times[False]
    wall = statistics.median(times)
    quality = workload.quality or {}
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **quality,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: values[name] for name in units if name in values}
    notes = {
        "setup_s": f" (median of {len(setup_times)} set-ups)",
        "wall_s": f" ({_describe(times)})",
        "members_per_sample": " (exact)",
        "accuracy": " (exact)",
    }
    print(f"workload {args.workload} seed {args.seed}: {len(times)} ops, "
          f"closed loop, 1 client")
    _metric_lines(metrics, units, notes)
    # Printed, not BENCHMARK.json metrics: samples_per_s is wall_s inverted,
    # with a wider spread; ece is exact per seed but moves 15-60% between
    # seeds, more than any bound there may be, and the digests guard it.
    print(f"samples_per_s {workload.input_rows() / wall:.6g} samples/s "
          f"({workload.input_rows()} input rows per op)")
    if "ece" in quality:
        print(f"ece {quality['ece']:.6g} fraction (exact, 15 bins)")
    print(f"error_rate {failed / len(times):.6g} fraction ({failed} failed of "
          f"{len(times)} attempted)")
    print(f"output_check {'pass' if not failed else 'FAIL'}; "
          f"output_digest {workload.reference_digest}")
    return {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def traced(args, spec, lib, workload: Workload, work: Path, env: dict) -> dict:
    hooks = [h for h in HOOKS
             if args.workload == "sweep" or not h.target.startswith(SWEEP_MODULE + ":")]
    tracer = Tracer(lib.modules(), hooks)
    times, failed = measure(workload, args.seconds, work, tracer)
    plain, traced_times = statistics.median(times[False]), statistics.median(times[True])
    attempted = len(times[False]) + len(times[True])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = tracer.layer_metrics([n for n in units if n != "trace.overhead_s"],
                                   ops=len(times[True]))
    metrics["trace.overhead_s"] = traced_times - plain

    print(f"workload {args.workload} seed {args.seed}: {len(times[False])} untraced and "
          f"{len(times[True])} traced ops, alternating; per-layer values are per op")
    _metric_lines(metrics, units, {})
    op_time, self_sum = tracer.op_time_and_self_sum()
    print(f"tracing overhead {traced_times - plain:.6f} s per op "
          f"({100 * (traced_times - plain) / plain:.1f}% of untraced wall_s {plain:.6f} s)")
    print(f"self-time check: the self times of all spans sum to {self_sum:.6f} s per op, "
          f"the traced op lasted {op_time:.6f} s, untraced wall_s {plain:.6f} s")
    for note in tracer.notes:
        print(f"note: {note}")
    print(f"error_rate {failed / attempted:.6g} fraction ({failed} failed of "
          f"{attempted} attempted)")
    print(f"output_check {'pass' if not failed else 'FAIL'}; "
          f"output_digest {workload.reference_digest}")

    trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "env": env,
        "notes": tracer.notes,
        "spans": [[s.name, s.start, s.end, s.parent, s.op, s.counts] for s in tracer.spans],
    }), encoding="utf-8")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    required = [ROOT / "BENCHMARK.json", SRC / "conf_ensemble" / "__init__.py",
                SWEEP_SCRIPT, EXAMPLE_CONFIG]
    missing = [str(p.relative_to(ROOT)) for p in required if not p.is_file()]
    if missing:
        print(f"error: not a conf-ensemble checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nproc = cap_blas_threads()
    try:
        lib = Library()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    return run(args, spec, lib, nproc)


if __name__ == "__main__":
    sys.exit(main())
