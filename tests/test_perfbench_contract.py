"""The benchmark's calls into the library, made as ``perfbench/run.py`` makes them.

``perfbench/workloads.py`` is read from its file and executed here; nothing
under ``perfbench/`` is written. For every workload this builds it on the
package, runs its one-off gate, then three op/check pairs. A library change
that breaks one of those calls (``ToyTrainConfig`` fields, ``ToyModel`` and
``gen_dataset`` positional arguments, ``training_loss``, a ``Parameter``
that aliases the array it is given, ...) would make ``run.py`` exit 1; it
fails here first.
"""

import types
from pathlib import Path

import pytest

import asymfuse

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads() -> dict:
    module = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), module.__dict__)
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_builds_gates_and_checks(name):
    workload = WORKLOADS[name](0)  # run.py's default seed, passed as run.py passes it
    workload.build(asymfuse)
    workload.gate()
    for i in range(3):
        arg = workload.arg(i)
        assert workload.check(arg, workload.op(arg)), f"{name}: op {i} failed its check"
