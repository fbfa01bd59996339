"""Position-conditioned glyph classification on synthetic 2x2 grids.

Each image is a 2x2 grid of procedural binary glyphs plus Gaussian
noise; the task is to name the glyph at a queried grid position (the
index, 0..3 in row-major order). After two backbone convs, the model's
fused stage is the fusion op's block, ``fusion._acm_block``, with the
one-hot index as its prior input in place of a box: the FC branch turns
it into one bias per channel, broadcast-added onto the convolved image
features and gated by a ReLU. Without that branch the image alone cannot
determine the label, so the branch's contribution is directly measurable:
``ToyModel(ablate_index=True)`` is index-blind in every function here.

The model is written once, over an op set and a map of parameters by
name, with the image and the one-hot index as inputs. Training passes
``autograd`` and a map of tape leaves; evaluation passes ``plain`` and the
model's map of parameter arrays, so the two agree bit for bit.

``ToyTrainConfig``'s field defaults are the toy protocol; ``ToyModel``, ``gen_dataset``
and ``asymfuse toytrain`` take theirs from it. Each input rule is checked in one place, by
``tensor._check_int`` for every count, index, label and seed (a float is refused, never
truncated), ``tensor._check_real`` for ``lr`` and the noise std, ``tensor._check_bool`` for
``ablate_index`` and ``tensor._seed_sequence`` wherever a seed is spawned: ``ToyTrainConfig``
every field, with ``_check_shape`` (the class count, a glyph size of at least 4 and the layer
widths, for ``ToyModel`` too) before any data is drawn; ``glyph_bitmap`` the glyph size,
``one_hot`` the index, ``autograd.softmax_xent`` and ``prediction_accuracy`` the label.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autograd as ag
from . import plain
from . import tensor as T
from .errors import EmptyDatasetError, LabelOutOfRangeError, TooManyClassesError
from .fusion import _acm_block
from .tensor import _seed_sequence

MAX_CLASSES = 8
GRID_POSITIONS = 4


def glyph_bitmap(glyph_id: int, size: int) -> np.ndarray:
    """Render one of the 8 fixed binary glyphs at the given size.

    0 solid square, 1 hollow box, 2 diagonal cross, 3 plus, 4 horizontal
    stripes, 5 vertical stripes, 6 checkerboard, 7 main diagonal.
    """
    glyph_id = T._check_int(glyph_id, "glyph id", 0, MAX_CLASSES)
    size = T._check_int(size, "glyph size", 3)
    rows, cols = np.indices((size, size))
    if glyph_id == 0:
        mask = np.ones((size, size), dtype=bool)
    elif glyph_id == 1:
        mask = (rows == 0) | (rows == size - 1) | (cols == 0) | (cols == size - 1)
    elif glyph_id == 2:
        mask = (rows == cols) | (rows + cols == size - 1)
    elif glyph_id == 3:
        mask = (rows == size // 2) | (cols == size // 2)
    elif glyph_id == 4:
        mask = rows % 2 == 0
    elif glyph_id == 5:
        mask = cols % 2 == 0
    elif glyph_id == 6:
        mask = (rows + cols) % 2 == 0
    else:
        mask = rows == cols
    return mask.astype(T.DTYPE)


def one_hot(index: int) -> np.ndarray:
    vec = np.zeros(GRID_POSITIONS, dtype=T.DTYPE)
    vec[T._check_int(index, "index", 0, GRID_POSITIONS)] = 1.0
    return vec


@dataclass(frozen=True)
class GridSample:
    """One image (1 x 2s x 2s), the queried position, and its true class."""

    image: np.ndarray
    index: int
    label: int


def _check_classes(num_classes: int) -> None:
    if T._check_int(num_classes, "class count", 1) > MAX_CLASSES:
        raise TooManyClassesError(f"at most {MAX_CLASSES} glyph classes exist, got {num_classes}")


def _check_shape(num_classes, glyph_size, conv_channels, fused_channels, index_hidden) -> tuple:
    """The model's shape rule, for ToyModel and ToyTrainConfig alike; returns the four widths."""
    _check_classes(num_classes)
    T._check_int(glyph_size, "glyph size for three 3x3 convs", 4)  # 2g - 6 of 2g is left
    widths = (*T._unpack(conv_channels, 2, "conv_channels"), fused_channels, index_hidden)
    return tuple(T._check_int(width, "layer width", 1) for width in widths)


@dataclass(frozen=True)
class ToyTrainConfig:
    """One training run, every field checked when it is built: ValueError unless both sample
    counts are at least 1, ``epochs`` and ``seed`` at least 0, ``lr`` positive, ``noise_std``
    non-negative (both finite), ``ablate_index`` a bool and the rest a ToyModel shape."""

    seed: int = 0
    n_train: int = 2000
    n_test: int = 1000
    num_classes: int = 4
    glyph_size: int = 7
    noise_std: float = 0.05
    epochs: int = 20
    # 0.05 converges a bit faster but diverges on some seeds; 0.03 is
    # stable across every seed tried.
    lr: float = 0.03
    ablate_index: bool = False
    conv_channels: tuple[int, int] = (8, 16)
    fused_channels: int = 16
    index_hidden: int = 32

    def __post_init__(self):
        T._check_int(self.n_train, "n_train", 1)
        T._check_int(self.n_test, "n_test", 1)
        T._check_int(self.epochs, "epochs")
        T._check_int(self.seed, "seed")
        T._check_real(self.lr, "lr")
        T._check_real(self.noise_std, "noise_std", zero_ok=True)
        T._check_bool(self.ablate_index, "ablate_index")
        _check_shape(self.num_classes, self.glyph_size, self.conv_channels, self.fused_channels,
                     self.index_hidden)


def gen_dataset(seed, n: int, num_classes: int = ToyTrainConfig.num_classes,
                glyph_size: int = ToyTrainConfig.glyph_size,
                noise_std: float = ToyTrainConfig.noise_std) -> list[GridSample]:
    """Draw ``n`` independent samples from ``seed``, an integer of at least 0 or a SeedSequence.

    Per sample, in this order: four uniform class labels (one per grid
    cell), the glyph render, Gaussian pixel noise clipped back to
    [0, 1], and finally the uniform queried index. Each sample gets its
    own spawned child stream, so the set is reproducible bit for bit.
    """
    n = T._check_int(n, "sample count")
    _check_classes(num_classes)
    noise_std = T._check_real(noise_std, "noise_std", zero_ok=True)
    glyphs = [glyph_bitmap(g, glyph_size) for g in range(num_classes)]
    samples = []
    for child in _seed_sequence(seed).spawn(n):
        rng = np.random.default_rng(child)
        cells = rng.integers(0, num_classes, size=GRID_POSITIONS)
        side = 2 * glyph_size
        grid = np.zeros((side, side), dtype=np.float64)
        for pos in range(GRID_POSITIONS):
            r0 = (pos // 2) * glyph_size
            c0 = (pos % 2) * glyph_size
            grid[r0 : r0 + glyph_size, c0 : c0 + glyph_size] = glyphs[cells[pos]]
        if noise_std > 0:
            grid = np.clip(grid + rng.normal(0.0, noise_std, grid.shape), 0.0, 1.0)
        index = int(rng.integers(0, GRID_POSITIONS))
        samples.append(
            GridSample(
                image=grid[np.newaxis].astype(T.DTYPE),
                index=index,
                label=int(cells[index]),
            )
        )
    return samples


def _uniform_init(rng, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(T.DTYPE)


def _param_rows(num_classes: int, c1: int, c2: int, p: int, h: int) -> list:
    """(name, shape, fan-in) of each tensor the indexed model draws, in draw order."""
    return [
        ("conv1", (c1, 1, 3, 3), 1 * 3 * 3),
        ("conv2", (c2, c1, 3, 3), c1 * 3 * 3),
        ("fuse", (p, c2, 3, 3), c2 * 3 * 3),
        ("idx_w1", (h, GRID_POSITIONS), GRID_POSITIONS),
        ("idx_b1", (h,), GRID_POSITIONS),
        ("idx_w2", (h, h), h),
        ("idx_b2", (h,), h),
        ("idx_w3", (p, h), h),
        ("idx_b3", (p,), h),
        ("head_w", (num_classes, p), p),
        ("head_b", (num_classes,), p),
    ]


class ToyModel:
    """Conv backbone + index branch fused by the fusion op's block.

    The index branch is the template-side term of the fusion op: it maps
    the one-hot position through three FC layers into one bias per fused
    channel. Weights are drawn uniformly in +-sqrt(6 / fan_in), each tensor from
    its own spawned stream of ``seed`` (an integer of at least 0 or a SeedSequence).
    ``ablate_index``, a bool, fixes the arm: the model then leaves the branch out and
    holds only ``conv1``, ``conv2``, ``fuse``, ``head_w`` and ``head_b``, drawn as the
    indexed arm draws them. The untaped forward reads them from one name -> array
    map built here; its arrays are the Parameters' own, which training updates in place.
    """

    def __init__(self, num_classes: int = ToyTrainConfig.num_classes,
                 glyph_size: int = ToyTrainConfig.glyph_size,
                 conv_channels: tuple[int, int] = ToyTrainConfig.conv_channels,
                 fused_channels: int = ToyTrainConfig.fused_channels,
                 index_hidden: int = ToyTrainConfig.index_hidden, seed=0, ablate_index=False):
        rows = _param_rows(num_classes, *_check_shape(num_classes, glyph_size, conv_channels,
                                                      fused_channels, index_hidden))
        self.num_classes = num_classes
        self.ablate_index = T._check_bool(ablate_index, "ablate_index")
        streams = _seed_sequence(seed).spawn(len(rows))  # one per row in both arms
        self._values = {}  # name -> its Parameter's own value array
        for (name, shape, fan_in), stream in zip(rows, streams):
            if not (ablate_index and name.startswith("idx_")):
                rng = np.random.default_rng(stream)
                setattr(self, name, ag.Parameter(_uniform_init(rng, shape, fan_in), name))
                self._values[name] = getattr(self, name).value

    def parameters(self) -> list[ag.Parameter]:
        return [getattr(self, name) for name in self._values]


def _fused(ops, p, image, index):
    """The model up to the post-ReLU fused map, in ``ops`` over the parameters ``p``
    (name -> value); ``index`` is the one-hot index, or None in the ablated arm."""
    feat = ops.relu(ops.conv2d(image, p["conv1"]))
    feat = ops.relu(ops.conv2d(feat, p["conv2"]))
    if index is None:
        return _acm_block(ops, feat, p["fuse"])
    layers = [(p["idx_w1"], p["idx_b1"]), (p["idx_w2"], p["idx_b2"]), (p["idx_w3"], p["idx_b3"])]
    return _acm_block(ops, feat, p["fuse"], index, layers)


def _logits(ops, p, fused):
    return ops.affine(ops.mean_pool(fused), p["head_w"], p["head_b"])


def fused_map(model: ToyModel, sample: GridSample) -> np.ndarray:
    """Post-ReLU fused response (P x h x w) for one sample, under the model's arm."""
    index = None if model.ablate_index else one_hot(sample.index)
    return _fused(plain, model._values, sample.image, index)


def toy_forward(model: ToyModel, sample: GridSample) -> np.ndarray:
    """Class logits for one sample, under the model's arm."""
    return _logits(plain, model._values, fused_map(model, sample))


def training_loss(tape: ag.Tape, model: ToyModel, sample: GridSample) -> ag.Node:
    """Taped cross-entropy loss of the logits ``toy_forward`` computes, under the
    model's arm. ``softmax_xent`` checks the label (LabelOutOfRangeError)."""
    leaves = {p.name: tape.parameter(p) for p in model.parameters()}
    index = None if model.ablate_index else tape.constant(one_hot(sample.index))
    fused = _fused(ag, leaves, tape.constant(sample.image), index)
    return ag.softmax_xent(_logits(ag, leaves, fused), sample.label)


def _hit_rate(samples: Sequence[GridSample], hit: Callable[[GridSample], bool]) -> float:
    """Fraction of samples for which ``hit`` holds; EmptyDatasetError on none."""
    if len(samples) == 0:
        raise EmptyDatasetError("cannot evaluate on zero samples")
    return sum(hit(s) for s in samples) / len(samples)


def prediction_accuracy(predict: Callable[[GridSample], np.ndarray],
                        samples: Sequence[GridSample]) -> float:
    """Fraction of samples whose argmax logit (first on ties) is the label;
    LabelOutOfRangeError unless each label is an integer in [0, len(logits))."""
    def hit(s):
        logits = predict(s)
        return int(np.argmax(logits)) == T._check_int(s.label, "label", 0, len(logits),
                                                      LabelOutOfRangeError)

    return _hit_rate(samples, hit)


def toy_evaluate(model: ToyModel, samples: Sequence[GridSample]) -> float:
    """Test accuracy of the model's argmax logit, under the model's arm."""
    return prediction_accuracy(lambda sample: toy_forward(model, sample), samples)


def locality_rate(model: ToyModel, samples: Sequence[GridSample]) -> float:
    """How often the queried quadrant dominates the fused response.

    Per sample, the post-ReLU fused map is collapsed by per-pixel L1
    across channels and split into four equal quadrants (row-major, same
    numbering as the index); a hit means the queried quadrant has the
    largest sum.
    """
    def hit(sample):
        strength = T.l1_map(fused_map(model, sample)).astype(np.float64)
        half_r = strength.shape[0] // 2
        half_c = strength.shape[1] // 2
        sums = (
            strength[:half_r, :half_c].sum(),
            strength[:half_r, half_c:].sum(),
            strength[half_r:, :half_c].sum(),
            strength[half_r:, half_c:].sum(),
        )
        return int(np.argmax(sums)) == sample.index

    return _hit_rate(samples, hit)


@dataclass(frozen=True)
class ToyTrainResult:
    model: ToyModel
    train_curve: list[float] = field(default_factory=list)
    test_accuracy: float = 0.0


def heldout_set(config: ToyTrainConfig) -> list[GridSample]:
    """The test split a training run with ``config`` evaluates on."""
    s_test = _seed_sequence(config.seed).spawn(4)[2]
    return gen_dataset(s_test, config.n_test, config.num_classes,
                       config.glyph_size, config.noise_std)


def toy_train(config: ToyTrainConfig = ToyTrainConfig()) -> ToyTrainResult:
    """Train with per-sample SGD and report per-epoch mean loss + accuracy.

    The master seed splits into four child streams (model init, train
    set, test set, epoch shuffling), so runs are reproducible bit for
    bit. ``config.ablate_index`` is handed to the model once, and the model
    keeps that arm for training and evaluation alike.
    """
    s_model, s_train, _, s_shuffle = _seed_sequence(config.seed).spawn(4)
    model = ToyModel(config.num_classes, config.glyph_size, config.conv_channels,
                     config.fused_channels, config.index_hidden, seed=s_model,
                     ablate_index=config.ablate_index)
    train = gen_dataset(s_train, config.n_train, config.num_classes,
                        config.glyph_size, config.noise_std)
    params = model.parameters()
    shuffle_rng = np.random.default_rng(s_shuffle)
    curve = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(train))
        losses = np.empty(len(train), dtype=np.float64)
        for step, sample_idx in enumerate(order):
            tape = ag.Tape()
            loss = training_loss(tape, model, train[sample_idx])
            ag.backward(tape, loss)
            ag.sgd_step(params, config.lr)
            losses[step] = float(loss.value)
        curve.append(float(losses.mean()))
    accuracy = toy_evaluate(model, heldout_set(config))
    return ToyTrainResult(model=model, train_curve=curve, test_accuracy=accuracy)


def dataset_write(samples: Sequence[GridSample], directory) -> Path:
    """Store samples as one .tsr per image plus a CSV manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "index", "label"])
        for i, sample in enumerate(samples):
            name = f"sample_{i:05d}"
            T.tensor_write(sample.image, directory / f"{name}.tsr")
            writer.writerow([name, sample.index, sample.label])
    return directory


def dataset_read(directory) -> list[GridSample]:
    """Load a dataset written by :func:`dataset_write`."""
    directory = Path(directory)
    samples = []
    with open(directory / "manifest.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            image = T.tensor_read(directory / f"{row['id']}.tsr")
            samples.append(GridSample(image=image, index=int(row["index"]),
                                      label=int(row["label"])))
    return samples
