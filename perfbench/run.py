"""End-to-end and per-layer benchmark of qreservoir.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --seconds <s>     # every workload in turn

Runs `qreservoir.cli.run_experiment` in this process on one workload (see
workloads.py) for about `--seconds` seconds of measured calls, checks every
call's output outside the timed region, and prints each metric with its unit.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (layers.END_TO_END) from untraced
calls. --trace 1 alternates untraced and traced calls and reports the
per-layer metrics (layers.LAYERS), the tracing overhead, a layer-coverage
check and the workload-design checks; it writes all spans to
perfbench/results/ when the run ends.

Every call writes its artifacts to a temporary directory under
perfbench/results/, never to the configs' `out/` directories. The exit code
is 1 when any output check fails and 2 when the benchmark cannot run here
(for instance without the repository's `src/` and `configs/`).

--write-reference stores the default seed's outputs in reference.json; run it
only when the program's outputs are meant to change.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")

# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


class CannotRun(Exception):
    """The benchmark cannot run in this directory."""


def _import_program():
    """Import qreservoir from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import qreservoir
        import workloads
    except ImportError as exc:
        raise CannotRun(f"cannot import qreservoir from {src}: {exc}") from exc
    found = os.path.realpath(qreservoir.__file__)
    if not found.startswith(os.path.realpath(src) + os.sep):
        raise CannotRun(f"qreservoir was imported from {found}, not from {src}")
    for name in ("narma2_sampled.ini", "classify_exact.ini",
                 "esn_sweep_narma2.ini"):
        if not os.path.isfile(os.path.join(ROOT, "configs", name)):
            raise CannotRun(f"missing configs/{name}")
    return workloads


def _load_declaration(layers):
    """BENCHMARK.json, which must declare exactly the metrics layers.py
    defines."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CannotRun(f"cannot read {path}: {exc}") from exc
    declared_e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    declared_layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if declared_e2e != list(layers.END_TO_END):
        raise CannotRun("BENCHMARK.json end_to_end differs from layers.END_TO_END")
    if declared_layers != [(k, v[0], v[1]) for k, v in layers.LAYERS.items()]:
        raise CannotRun("BENCHMARK.json per_layer differs from layers.LAYERS")
    if [w["name"] for w in bench["workloads"]] != list(layers.ALL):
        raise CannotRun("BENCHMARK.json workloads differ from layers.ALL")
    return bench


def _blas():
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def _git_commit():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def manifest(args):
    import numpy as np
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas(), "commit": _git_commit(),
        "src_lines": _src_lines(),  # information only, not a gated metric
    }


def setup_seconds(workload, seed):
    """Wall time of SETUP_REPEATS fresh set-up processes."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, probe, workload, str(seed)], check=True,
                       cwd=ROOT, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    failures: list
    outputs: dict = None


def one_call(wl, workload, config, seed, reference, tracer=None, keep=False):
    """One timed `run_experiment` into a fresh temporary directory, then the
    output checks, untimed."""
    from qreservoir import cli
    from spans import instrument

    out = tempfile.mkdtemp(prefix="out-", dir=RESULTS)
    try:
        cfg = replace(config, output_dir=out)
        start, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                cli.run_experiment(cfg)
            else:
                with instrument(tracer):
                    cli.run_experiment(cfg)
        except Exception:  # any raise is a failed call, reported, not fatal
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
            return Call(wall, cpu, ["run_experiment raised:\n"
                                    + traceback.format_exc()])
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        try:
            outputs = wl.load_outputs(out)
            failures = wl.check(workload, config, seed, outputs, reference)
        except (KeyError, IndexError, TypeError, ValueError):
            outputs, failures = None, ["malformed output:\n" + traceback.format_exc()]
        return Call(wall, cpu, failures, outputs if keep else None)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _describe(values, what="calls"):
    return (f"median of {len(values)} {what}; min {min(values):.4g}, "
            f"max {max(values):.4g}")


def warm_up(workload, config):
    """Fill lazy imports and the noise-plan cache before any timed call."""
    from qreservoir import cli

    out = tempfile.mkdtemp(prefix="warm-", dir=RESULTS)
    try:
        cli.run_experiment(replace(workload.warmup(config), output_dir=out))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_untraced(args, wl, layers, workload, config, reference):
    # set-up first, while no BLAS thread of this process competes for a core
    setup = setup_seconds(args.workload, args.seed)
    warm_up(workload, config)
    calls = []
    measured = 0.0
    while measured < args.seconds or not calls:
        call = one_call(wl, workload, config, args.seed, reference)
        calls.append(call)
        measured += call.wall_s
    good = [c for c in calls if not c.failures]
    raw = {"run_s": [c.wall_s for c in calls], "cpu_s": [c.cpu_s for c in calls],
           "setup_s": setup}
    if not good:
        return calls, {}, {}, raw, {}
    walls = [c.wall_s for c in good]
    cpus = [c.cpu_s for c in good]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = workload.units(config)
    values = {
        "run_s": (statistics.median(walls), _describe(walls)),
        "units_per_s": (units / statistics.median(walls),
                        f"{units} units per call over the median run_s"),
        "cpu_s": (statistics.median(cpus), _describe(cpus)),
        "peak_rss_mb": (peak_mb, "process peak resident set"),
        "setup_s": (statistics.median(setup), _describe(setup, "processes")),
    }
    metrics = {name: {"value": values[name][0], "unit": unit}
               for name, unit, _ in layers.END_TO_END}
    notes = {name: values[name][1] for name in values}
    return calls, metrics, notes, raw, {}


def _coverage_failures(layers, workload_name, metrics, tracer):
    failures = [f"hook target missing: {m}" for m in tracer.missing]
    for name in layers.expected_nonzero(workload_name):
        if not metrics[name] > 0:
            failures.append(f"coverage: {name} is {metrics[name]}, expected > 0")
    for name in layers.expected_zero(workload_name):
        if metrics[name] != 0:
            failures.append(f"coverage: {name} is {metrics[name]}, expected 0")
    return failures


def _design_checks(layers, workload_name, metrics, untraced_run_s, tracers):
    """The shares the workload was chosen for; reported, not failures, since a
    faster layer is meant to change them."""
    from spans import largest_child

    if workload_name == layers.NARMA:
        share = (metrics["noise.apply_device_noise.busy_s"]
                 / metrics["cli.run_experiment.busy_s"])
        ratio = metrics["engine.unique_trajectory_ratio"]
        return {"noise.apply_device_noise share of run_experiment >= 0.70":
                (share >= 0.70, share),
                "engine.unique_trajectory_ratio == 0.1": (ratio == 0.1, ratio)}
    if workload_name == layers.CLASSIFY:
        largest = [largest_child(t, "engine.run_reservoir") for t in tracers]
        ok = all(name == "engine.sample_bitstrings" for name in largest)
        return {"engine.sample_bitstrings is the largest child of "
                "engine.run_reservoir": (ok, largest[0] if largest else None)}
    share = metrics["benchmarks.esn_sweep.busy_s"] / untraced_run_s
    return {"benchmarks.esn_sweep share of untraced run_s >= 0.90":
            (share >= 0.90, share)}


def _span_rows(call, tracer):
    """The spans of one traced call, times relative to its first span."""
    spans = sorted(tracer.spans, key=lambda s: s.start)
    t0 = spans[0].start
    return [{"call": call, "id": s.id, "name": s.name, "parent": s.parent,
             "start": s.start - t0, "end": s.end - t0} for s in spans]


def run_traced(args, wl, layers, workload, config, reference):
    from spans import Tracer, layer_metrics

    warm_up(workload, config)
    calls, untraced, traced, per_call, tracers = [], [], [], [], []
    measured = 0.0
    while measured < args.seconds or not calls:
        # alternate which of the pair runs first
        order = (False, True) if len(calls) % 4 == 0 else (True, False)
        pair = {}
        for with_trace in order:
            tracer = Tracer() if with_trace else None
            call = one_call(wl, workload, config, args.seed, reference,
                            tracer=tracer, keep=True)
            measured += call.wall_s
            pair[with_trace] = call
            if tracer is not None and not call.failures:
                metrics = layer_metrics(tracer, config.num_qubits)
                call.failures += _coverage_failures(layers, args.workload,
                                                    metrics, tracer)
                per_call.append(metrics)
                tracers.append(tracer)
                traced.append(call.wall_s)
        base, traced_call = pair[False], pair[True]
        if not base.failures and not traced_call.failures:
            diffs = wl.compare(base.outputs, traced_call.outputs, "traced-vs-untraced")
            traced_call.failures += diffs
        for call in (base, traced_call):
            call.outputs = None
        calls += [base, traced_call]
        untraced += [base.wall_s] if not base.failures else []
    if not per_call or not untraced:
        return calls, {}, {}, {}, {}
    metrics = {name: statistics.median(m[name] for m in per_call)
               for name in per_call[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    design = _design_checks(layers, args.workload, metrics, statistics.median(untraced),
                            tracers)
    out = {name: {"value": metrics[name], "unit": layers.LAYERS[name][0]}
           for name in layers.LAYERS}
    notes = {name: f"median of {len(per_call)} traced calls" for name in out}
    notes["trace.overhead_s"] = (f"traced {_describe(traced)}; untraced "
                                 f"{_describe(untraced)}")
    raw = {"untraced_run_s": untraced, "traced_run_s": traced,
           "per_call": per_call,
           "spans": [_span_rows(i, t) for i, t in enumerate(tracers)]}
    return calls, out, notes, raw, design


def write_reference(wl, layers):
    from qreservoir import cli

    os.makedirs(RESULTS, exist_ok=True)
    stored = {}
    for name in layers.ALL:
        workload = wl.WORKLOADS[name]
        config = workload.config(ROOT, wl.DEFAULT_SEED)
        out = tempfile.mkdtemp(prefix="ref-", dir=RESULTS)
        try:
            cli.run_experiment(replace(config, output_dir=out))
            outputs = wl.load_outputs(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failures = workload.physics(config, outputs)
        if failures:
            raise SystemExit(f"{name}: physics check failed: {failures}")
        stored[name] = wl.to_jsonable(workload.reference_view(outputs))
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def run_all(args, layers):
    """Every workload, each in a fresh process as the single-workload form
    runs it; the exit code is the worst of theirs."""
    codes = []
    for name in layers.ALL:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
        print(flush=True)
    return max(codes)


def main(argv=None):
    import layers

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=layers.ALL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        bench = _load_declaration(layers)
        wl = _import_program()
    except CannotRun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.write_reference:
        return write_reference(wl, layers)
    if args.workload is None:
        return run_all(args, layers)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)

    workload = wl.WORKLOADS[args.workload]
    config = workload.config(ROOT, args.seed)
    os.makedirs(RESULTS, exist_ok=True)
    info = manifest(args)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("manifest " + json.dumps(info, sort_keys=True))

    runner = run_traced if args.trace else run_untraced
    calls, metrics, notes, raw, design = runner(args, wl, layers, workload,
                                                config, reference)
    failed = sum(1 for c in calls if c.failures)
    for c in calls:
        for msg in c.failures:
            print(f"FAILED CHECK: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}  ({notes[name]})")
    print(f"{'failed_ratio':40s} {failed / len(calls):.6g} ratio  "
          f"({failed} of {len(calls)} calls failed an output check)")
    for text, (ok, value) in design.items():
        print(f"design {'PASS' if ok else 'MISS'}: {text} (measured {value})")

    record = {"manifest": info, "metrics": metrics, "attempted": len(calls),
              "failed": failed, "design": {k: list(v) for k, v in design.items()},
              "raw": raw}
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
