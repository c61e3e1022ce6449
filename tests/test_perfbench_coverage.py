"""The benchmark's span hooks still see the work of every workload.

perfbench/run.py's traced runs fail when a hooked function is missing or when
a layer that should do work on a workload records none. This test runs each
workload's small warm-up config once under the same hooks, so a change that
stops calling a hooked function fails here first. perfbench/ is only imported.
"""
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from qreservoir import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", layers.ALL)
def test_warmup_run_covers_every_expected_layer(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    config = workload.warmup(workload.config(str(PERFBENCH.parent), 0))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        cli.run_experiment(replace(config, output_dir=str(tmp_path)))
    assert tracer.missing == []
    metrics = spans.layer_metrics(tracer, config.num_qubits)
    idle = {m: metrics[m] for m in layers.expected_zero(name) if metrics[m] != 0}
    silent = [m for m in layers.expected_nonzero(name) if not metrics[m] > 0]
    assert silent == [] and idle == {}
