"""The scalar rules: one for real-valued settings, one for seeds, one for flags.

Each entry point that takes a setting, a seed or a flag is a row of a table:
a call of the value that returns the site's outputs, the argument's name and
a value the site accepts. Every bad value must raise a ValueError naming the
argument before any data or model is drawn, and a NumPy value (or a
SeedSequence seed) must give the same bytes as the equal Python value.
"""

import argparse
import contextlib
import io
import math
from unittest import mock

import numpy as np
import pytest

from asymfuse import analysis, bench, cli, gradcheck, nn
from asymfuse import autograd as ag
from asymfuse import tensor as T
from asymfuse import toytask as tt

MAP = np.arange(25, dtype=np.float32).reshape(1, 5, 5)
BENCH_CONFIG = bench.BenchConfig(2, 2, 2, 4, 4, 2)


def toy_train(**fields):
    config = tt.ToyTrainConfig(**{"n_train": 2, "n_test": 2, "epochs": 1, **fields})
    result = tt.toy_train(config)
    return [result.train_curve, result.test_accuracy,
            *(p.value for p in result.model.parameters())]


def dataset(seed=0, noise_std=0.05):
    samples = tt.gen_dataset(seed, 3, noise_std=noise_std)
    return [array for s in samples for array in (s.image, s.index, s.label)]


def model(seed):
    return [p.value for p in tt.ToyModel(seed=seed).parameters()]


def sgd(lr):
    p = ag.Parameter(np.linspace(-1, 1, 6, dtype=np.float32), "p")
    p.grad[...] = np.linspace(2, 3, 6, dtype=np.float32)
    ag.sgd_step([p], lr)
    return [p.value]


def finite_diff(eps):
    p = ag.Parameter(np.linspace(-1, 1, 6, dtype=np.float32), "p")
    return [ag.finite_diff_grad(lambda: float((p.value.astype(np.float64) ** 3).sum()), p, eps)]


def batchnorm(eps):
    norm = nn.BatchNormParams(np.ones(2), np.zeros(2), np.zeros(2), np.full(2, 1e-4), eps=eps)
    return [norm.scale, norm.shift]


def gradient_check(**kwargs):
    return [r.rel_error for r in gradcheck.gradient_check_suite(**kwargs)]


def bench_problem(seed):
    """The problem ``bench_compare`` times, as its correctness gate saw it."""
    with mock.patch.object(bench, "_identity_gap", wraps=bench._identity_gap) as gate:
        bench.bench_compare([BENCH_CONFIG], reps=bench.MIN_REPS, seed=seed)
    template, search, _, box = gate.call_args.args
    return [template, search, box]


def eqcheck(seed=0, tol=bench.TOL):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli._cmd_eqcheck(argparse.Namespace(trials=2, seed=seed, tol=tol))
    return [code, out.getvalue()]


def same_bytes(outputs, expected):
    def as_bytes(values):
        return [(a.dtype.str, a.tobytes()) for a in map(np.asarray, values)]

    assert as_bytes(outputs) == as_bytes(expected)


@pytest.fixture
def nothing_drawn(monkeypatch):
    """Make drawing from any random generator fail the test."""
    def drawn(*args, **kwargs):
        raise AssertionError("a generator was made before the argument was checked")

    monkeypatch.setattr(np.random, "default_rng", drawn)


# site: (call of the value, the argument's name, a value the site accepts, is 0 accepted)
SETTINGS = {
    "ToyTrainConfig lr": (lambda v: toy_train(lr=v), "lr", 0.03, False),
    "sgd_step lr": (sgd, "lr", 0.1, False),
    "finite_diff_grad eps": (finite_diff, "eps", 1e-3, False),
    "BatchNormParams eps": (batchnorm, "eps", 1e-5, False),
    "gradient_check_suite eps": (lambda v: gradient_check(eps=v), "eps", gradcheck.EPS, False),
    "gradient_check_suite tol": (lambda v: gradient_check(tol=v), "tol", gradcheck.TOL, False),
    "ToyTrainConfig noise_std": (lambda v: toy_train(noise_std=v), "noise_std", 0.05, True),
    "gen_dataset noise_std": (lambda v: dataset(noise_std=v), "noise_std", 0.05, True),
    "eqcheck --tol": (lambda v: eqcheck(tol=v), "--tol", bench.TOL, True),
}

# 10**400 and -10**400 are beyond the float range: float() of them overflows.
BAD_SETTINGS = [True, np.True_, None, "0.1", 1 + 0j, math.nan, math.inf, -1, 10**400, -10**400]
SHORT_IDS = {10**400: "10**400", -10**400: "-10**400"}


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{SHORT_IDS.get(value, repr(value))}")
    for site, (*_, zero_ok) in SETTINGS.items()
    for value in BAD_SETTINGS + ([] if zero_ok else [0])])
def test_bad_setting_is_refused(site, value, nothing_drawn):
    call, name, _, _ = SETTINGS[site]
    with pytest.raises(ValueError) as caught:
        call(value)
    assert caught.type is ValueError
    assert str(caught.value).startswith(f"{name} must be ")
    assert "and finite, got" in str(caught.value)


@pytest.mark.parametrize("kind", [np.float32, np.float64])
@pytest.mark.parametrize("site", SETTINGS)
def test_numpy_setting_gives_the_same_bytes(site, kind):
    call, _, good, _ = SETTINGS[site]
    same_bytes(call(kind(good)), call(float(kind(good))))


# site: (call of the seed, the argument's name, whether a SeedSequence is taken)
SEEDS = {
    "gen_dataset": (dataset, "seed", True),
    "ToyModel": (model, "seed", True),
    "ToyTrainConfig": (lambda s: toy_train(seed=s), "seed", False),
    "bench_compare": (bench_problem, "seed", True),
    "gradient_check_suite": (lambda s: gradient_check(seed=s), "seed", True),
    "eqcheck --seed": (eqcheck, "--seed", True),
}

BAD_SEEDS = [None, True, np.True_, 1.5, -1, "3", [1, 2]]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
@pytest.mark.parametrize("site", SEEDS)
def test_bad_seed_is_refused(site, seed, nothing_drawn):
    call, name, _ = SEEDS[site]
    with pytest.raises(ValueError) as caught:
        call(seed)
    assert caught.type is ValueError
    assert str(caught.value).startswith(f"{name} must be an integer of at least 0, got ")


@pytest.mark.parametrize("kind", [np.int64, np.uint8, np.random.SeedSequence],
                         ids=["int64", "uint8", "SeedSequence"])
@pytest.mark.parametrize("site", SEEDS)
def test_accepted_seed_gives_the_same_bytes(site, kind):
    call, _, takes_sequence = SEEDS[site]
    if kind is np.random.SeedSequence and not takes_sequence:
        with pytest.raises(ValueError, match="seed must be an integer"):
            call(kind(3))
        return
    same_bytes(call(kind(3)), call(3))


FLAGS = {
    "per_channel_norm": lambda v: analysis.discriminability(MAP, (2, 2), (1, 1, 3, 3),
                                                            per_channel_norm=v),
    "inject_error": lambda v: gradcheck.gradient_check_suite(inject_error=v),
}


@pytest.mark.parametrize("value", ["no", None, 1, 0.0], ids=repr)
@pytest.mark.parametrize("flag", FLAGS)
def test_non_bool_flag_is_refused(flag, value, nothing_drawn):
    with pytest.raises(ValueError, match=f"^{flag} must be a bool, got "):
        FLAGS[flag](value)


def test_a_seed_sequence_passes_through():
    sequence = np.random.SeedSequence(3)
    assert T._seed_sequence(sequence) is sequence


@pytest.mark.parametrize("value", [3, np.int64(3), np.float32(0.5), np.uint8(0)], ids=repr)
def test_real_helper_returns_a_python_float(value):
    assert type(T._check_real(value, "x", zero_ok=True)) is float
    assert T._check_real(value, "x", zero_ok=True) == float(value)


@pytest.mark.parametrize("value", [np.float32(math.inf), np.float16(-math.inf),
                                   np.float64(math.nan), np.array(0.5), [0.5]], ids=repr)
def test_real_helper_refuses_numpy_non_finite_and_arrays(value):
    with pytest.raises(ValueError, match=r"x must be non-negative and finite"):
        T._check_real(value, "x", zero_ok=True)
