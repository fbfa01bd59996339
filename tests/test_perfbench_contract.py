"""The benchmark's calls into the library, made as ``perfbench/run.py`` makes them.

``perfbench/workloads.py`` and ``perfbench/spans.py`` are read from their
files and executed here; nothing under ``perfbench/`` is written. For every
workload this builds it on the package, runs its one-off gate, then three
op/check pairs, at seed 0 and, for ``train`` and ``evaluate``, at seeds 1-9
too. A library change that breaks one of those calls (``ToyTrainConfig``
fields, ``ToyModel`` and ``gen_dataset`` positional arguments,
``training_loss``, a ``Parameter`` that aliases the array it is given, ...)
would make ``run.py`` exit 1; it fails here first.

The same three ops, traced with ``spans.Tracer``, must give the exact
per-op counts that ``run.py --self-test`` expects (its ``EXPECTED``: conv
calls, tape nodes, computed GFLOP and im2col MB), so a change to them shows
in tier-1 and not only in the benchmark's own self-test. One traced op of the
toy workloads must also give the tracer a fixed count of spans by name: the
``nn``/``tensor`` calls of the toy model's forward and a taped step's leaves.
"""

import ast
import types
from collections import Counter
from pathlib import Path

import pytest

import asymfuse

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str) -> types.ModuleType:
    path = PERFBENCH / name
    module = types.ModuleType(f"perfbench_{path.stem}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def run_py_constant(name: str):
    """The literal value ``perfbench/run.py`` assigns to ``name``, read without running it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]]
    return ast.literal_eval(value)


WORKLOADS = load("workloads.py").WORKLOADS
SPANS = load("spans.py")
EXPECTED = run_py_constant("EXPECTED")
EXACT = run_py_constant("EXACT")


# run.py's default seed 0 for every workload, passed as run.py passes it, and
# seeds 1-9 for the toy workloads, whose set-up (the train gate's gradient
# probes, the evaluate references) depends on the seed's model and data.
BUILD_CASES = [pytest.param(name, 0, id=name) for name in WORKLOADS] + [
    pytest.param(name, seed, id=f"{name}-seed{seed}")
    for name in ("train", "evaluate") for seed in range(1, 10)]


@pytest.mark.parametrize("name, seed", BUILD_CASES)
def test_workload_builds_gates_and_checks(name, seed):
    workload = WORKLOADS[name](seed)
    workload.build(asymfuse)
    workload.gate()
    for i in range(3):
        arg = workload.arg(i)
        assert workload.check(arg, workload.op(arg)), f"{name}: op {i} failed its check"


def test_expected_counts_name_the_exact_metrics():
    assert EXACT[:2] == ("nn.conv2d_valid.calls", "autograd.tape_nodes")
    assert {name: EXPECTED[name][:2] for name in WORKLOADS} == {
        "track": (1.0, 0.0), "redetect": (2.0, 0.0), "train": (3.0, 29.0),
        "evaluate": (3.0, 0.0)}


def traced(name: str, ops: int):
    """The tracer after ``ops`` checked ops of a workload built at seed 1."""
    workload = WORKLOADS[name](1)  # run.py's self-test traces seeds 1 and 2
    workload.build(asymfuse)
    workload.gate()
    tracer = SPANS.Tracer(asymfuse)
    tracer.install()
    try:
        for i in range(ops):
            arg = workload.arg(i)
            assert workload.check(arg, tracer.call_op(i, workload.op, arg))
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_ops_give_the_expected_exact_counts(name):
    tracer = traced(name, 3)
    assert len(tracer.per_op_counts()) == 1, f"{name}: exact counts differ between ops"
    metrics = tracer.layer_metrics()
    assert tuple(metrics[k] for k in EXACT) == pytest.approx(EXPECTED[name], rel=1e-12)


# Spans per op by name: every nn/tensor call of the untaped toy forward (three
# convs, each on im2col; the index branch's three FC layers and the head; five
# ReLUs), and a taped step's one leaf per parameter and five patch matrices.
SPAN_COUNTS = {
    "evaluate": {"nn.conv2d_valid": 3, "nn.im2col": 3, "nn.fc_forward": 4, "tensor.relu": 5,
                 "tensor.broadcast_add": 1, "nn.mlp3_forward": 1, "nn.global_avg_pool": 1,
                 "toytask.fused_map": 1},
    "train": {"autograd.Tape.parameter": 11, "nn.im2col": 5},
}


@pytest.mark.parametrize("name", list(SPAN_COUNTS))
def test_traced_op_spans_by_name(name):
    counts = Counter(span[0] for span in traced(name, 1).spans)
    assert {k: counts[k] for k in SPAN_COUNTS[name]} == SPAN_COUNTS[name]
