"""One fresh-process set-up: import qreservoir, parse the workload's config,
load its noise profile and generate its inputs. `run.py` times this whole
process from outside as `setup_s`.

    python3 perfbench/setup_probe.py <workload> <seed>
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the src path above)

if __name__ == "__main__":
    workload = workloads.WORKLOADS[sys.argv[1]]
    workload.inputs(workload.config(ROOT, int(sys.argv[2])))
