"""The one integer rule: every index, label, position and count is an integer.

Each entry point that takes one is a row of ``SITES``: a call of the value,
the class the site raises, and an integer the site accepts. A non-integral
float, an integral float, a bool and NaN must each raise that class before
any data is drawn or any benchmark problem is gated, and a NumPy integer
must be accepted like the Python one.
"""

import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

from asymfuse import analysis, bench, cli
from asymfuse import autograd as ag
from asymfuse import tensor as T
from asymfuse import toytask as tt
from asymfuse.errors import LabelOutOfRangeError

MAP = np.arange(25, dtype=np.float32).reshape(1, 5, 5)
MODEL = tt.ToyModel()  # 4 classes, 7-pixel glyphs: 1 x 14 x 14 images
BENCH_CONFIG = bench.BenchConfig(2, 2, 2, 4, 4, 2)


def xent(label):
    tape = ag.Tape()
    return ag.softmax_xent(tape.constant(np.zeros(4, np.float32)), label)


def labelled(label):
    return tt.GridSample(image=np.zeros((1, 14, 14), np.float32), index=0, label=label)


def train_on_label(label):
    return tt.training_loss(ag.Tape(), MODEL, labelled(label))


def evaluate_on_label(label):
    return tt.toy_evaluate(MODEL, [labelled(label)])


def eqcheck(trials):
    return cli._cmd_eqcheck(argparse.Namespace(trials=trials, seed=0, tol=bench.TOL))


def toy_train(**counts):
    return tt.toy_train(tt.ToyTrainConfig(**{"n_train": 2, "n_test": 2, "epochs": 1,
                                             **counts}))


# site: (call of the value, class raised, an integer the site accepts)
SITES = {
    "glyph_bitmap id": (lambda v: tt.glyph_bitmap(v, 5), ValueError, 2),
    "glyph_bitmap size": (lambda v: tt.glyph_bitmap(0, v), ValueError, 5),
    "one_hot": (tt.one_hot, ValueError, 2),
    "class count": (lambda v: tt.gen_dataset(0, 2, num_classes=v), ValueError, 2),
    "gen_dataset n": (lambda v: tt.gen_dataset(0, v), ValueError, 2),
    "ToyTrainConfig n_train": (lambda v: toy_train(n_train=v), ValueError, 2),
    "ToyTrainConfig n_test": (lambda v: toy_train(n_test=v), ValueError, 2),
    "ToyTrainConfig epochs": (lambda v: toy_train(epochs=v), ValueError, 2),
    "ToyModel glyph_size": (lambda v: tt.ToyModel(glyph_size=v), ValueError, 5),
    "ToyModel conv width": (lambda v: tt.ToyModel(conv_channels=(2, v)), ValueError, 2),
    "ToyModel fused width": (lambda v: tt.ToyModel(fused_channels=v), ValueError, 2),
    "ToyModel index width": (lambda v: tt.ToyModel(index_hidden=v), ValueError, 2),
    "softmax_xent label": (xent, LabelOutOfRangeError, 2),
    "training_loss label": (train_on_label, LabelOutOfRangeError, 2),
    "toy_evaluate label": (evaluate_on_label, LabelOutOfRangeError, 2),
    "box r0": (lambda v: analysis.find_distractor(MAP, (v, 0, 3, 3)), ValueError, 2),
    "box c0": (lambda v: analysis.find_distractor(MAP, (0, v, 3, 3)), ValueError, 2),
    "box r1": (lambda v: analysis.find_distractor(MAP, (0, 0, v, 3)), ValueError, 2),
    "box c1": (lambda v: analysis.find_distractor(MAP, (0, 0, 3, v)), ValueError, 2),
    "target row": (lambda v: analysis.discriminability(MAP, (v, 2), (1, 1, 3, 3)),
                   ValueError, 2),
    "target column": (lambda v: analysis.discriminability(MAP, (2, v), (1, 1, 3, 3)),
                      ValueError, 2),
    "bench reps": (lambda v: bench.bench_compare([BENCH_CONFIG], reps=v), ValueError, 25),
    "eqcheck --trials": (eqcheck, ValueError, 2),
    # Each of BenchConfig's six dimensions, the others as in BENCH_CONFIG.
    **{f"BenchConfig {name}": (
        lambda v, name=name: dataclasses.replace(BENCH_CONFIG, **{name: v}), ValueError, value)
       for name, value in dataclasses.asdict(BENCH_CONFIG).items()},
}

# With the accepted integer n: n + 0.5, float(n), True and NaN (2.5, 2.0,
# True and NaN where n is 2).
BAD_VALUES = {
    "non-integral float": lambda n: n + 0.5,
    "integral float": float,
    "bool": lambda n: True,
    "nan": lambda n: math.nan,
}


@pytest.fixture
def no_data_drawn(monkeypatch):
    """Make drawing toy data or a model, or gating a bench problem, fail the test."""
    def drawn(*args, **kwargs):
        raise AssertionError("data was drawn before the integer check")

    monkeypatch.setattr(tt, "_seed_sequence", drawn)
    monkeypatch.setattr(bench, "_gated_problems", drawn)
    monkeypatch.setattr(bench, "_random_config", drawn)


@pytest.mark.parametrize("kind", BAD_VALUES)
@pytest.mark.parametrize("site", SITES)
def test_non_integer_raises_the_sites_class(site, kind, no_data_drawn):
    call, error, good = SITES[site]
    with pytest.raises(ValueError) as caught:
        call(BAD_VALUES[kind](good))
    assert caught.type is error
    assert "must be an integer" in str(caught.value)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("site", SITES)
def test_numpy_integer_is_accepted(site, kind):
    call, _, good = SITES[site]
    call(kind(good))


@pytest.mark.parametrize("label", [-1, 4, 9])
def test_out_of_range_label_is_refused_by_evaluation(label):
    samples = [labelled(label)] * 4  # 4 classes
    with pytest.raises(LabelOutOfRangeError, match=r"label must be an integer in \[0, 4\)"):
        tt.toy_evaluate(MODEL, samples)


@pytest.mark.parametrize("width", ["conv_channels", "fused_channels", "index_hidden"])
def test_zero_layer_width_is_refused(width):
    value = (2, 0) if width == "conv_channels" else 0
    with pytest.raises(ValueError, match="layer width must be an integer of at least 1"):
        tt.ToyModel(**{width: value})


def test_numpy_dimensions_are_stored_and_written_as_ints(tmp_path):
    config = bench.BenchConfig(*map(np.int64, (2, 2, 2, 4, 4, 2)))
    assert config == BENCH_CONFIG
    assert all(type(v) is int for v in dataclasses.astuple(config))
    (result,) = bench.bench_compare([config], reps=20)
    path = bench.write_json([result], tmp_path / "bench.json")
    assert json.loads(path.read_text())["results"][0]["config"]["channels"] == 2
    assert bench.read_configs(path) == [BENCH_CONFIG]


def test_numpy_reps_are_written_as_json(tmp_path):
    (result,) = bench.bench_compare([BENCH_CONFIG], reps=np.int64(20))
    assert type(result.reps) is int
    path = bench.write_json([result], tmp_path / "bench.json")
    assert json.loads(path.read_text())["results"][0]["reps"] == 20


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint16(3), np.int8(-1)], ids=repr)
def test_helper_returns_a_python_int(value):
    assert T._check_int(value, "x", -1, 4) == int(value)
    assert type(T._check_int(value, "x", -1, 4)) is int


@pytest.mark.parametrize("value", [3.0, np.float64(3.0), np.float32(3.0), True, np.True_,
                                   False, "3", None, math.nan, math.inf, 3 + 0j,
                                   np.array(3), [3]], ids=repr)
def test_helper_refuses_non_integers(value):
    with pytest.raises(ValueError, match="must be an integer"):
        T._check_int(value, "x", 0, 10)


@pytest.mark.parametrize("value, low, high, message", [
    (-1, 0, np.inf, "x must be an integer of at least 0, got -1"),
    (4, 0, 4, r"x must be an integer in \[0, 4\), got 4"),
    (1, 2, 5, r"x must be an integer in \[2, 5\), got 1"),
])
def test_helper_bounds(value, low, high, message):
    with pytest.raises(ValueError, match=message):
        T._check_int(value, "x", low, high)
    with pytest.raises(LabelOutOfRangeError):
        T._check_int(value, "x", low, high, LabelOutOfRangeError)
