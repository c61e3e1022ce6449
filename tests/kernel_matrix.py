"""Run the tier-1 suite once per forced OpenBLAS kernel and list what fails.

    python3 tests/kernel_matrix.py [extra pytest arguments]

Each run is a fresh pytest subprocess with OPENBLAS_CORETYPE set to one of
KERNELS (the first leaves it unset, so OpenBLAS picks this CPU's kernel). The
script prints, per kernel, the ids of the tests that failed or errored, then a
summary table. It changes no test and no bound; pytest does not collect it.
Its exit status is 0 whatever fails, since kernel-dependent failures are what
it reports.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = (None, "Haswell", "SandyBridge", "Nehalem", "Prescott")
_OUTCOME = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run_suite(kernel, extra=()) -> tuple:
    """(ids of the failed or errored tests, pytest's last summary line) for
    one run of the suite under `kernel`."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-rfE", "-p", "no:cacheprovider", *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    return _OUTCOME.findall(proc.stdout), lines[-1] if lines else ""


def main(argv=None) -> int:
    extra = sys.argv[1:] if argv is None else argv
    rows = []
    for kernel in KERNELS:
        name = kernel or "unset"
        failed, summary = run_suite(kernel, extra)
        print(f"== OPENBLAS_CORETYPE={name}: {summary}", flush=True)
        for test_id in failed:
            print(f"   {test_id}", flush=True)
        rows.append((name, len(failed)))
    print("\n| kernel | failed |\n|---|---|")
    for name, count in rows:
        print(f"| {name} | {count} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
