"""The program still passes the benchmark's own output checks.

`perfbench/workloads.py` checks each workload's first op against
`perfbench/reference.json`: the training step's first loss and gradient
norm, and each inference mode's class map and its flat patch transient.
A change that fails those checks is refused by the benchmark run; this
runs the same set-up and checks for seeds 0-7, reading both files and
editing neither.
"""

import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, BENCH_DIR)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH_DIR)
    return workloads


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", ["train_step", "infer_patch", "infer_global"])
def test_setup_passes_reference_check(workloads, tmp_path, name, seed):
    reference = workloads.load_reference()[name][str(seed)]
    wl = workloads.Workload(workloads.WORKLOADS[name], seed, str(tmp_path),
                            reference)
    _, error, _ = wl.setup()
    assert error is None
