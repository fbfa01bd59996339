"""Position-conditioned glyph classification on synthetic 2x2 grids.

Each image is a 2x2 grid of procedural binary glyphs plus Gaussian
noise; the task is to name the glyph at a queried grid position (the
index, 0..3 in row-major order). The index enters the model exactly the
way a template would enter the fusion op: a small FC branch turns it
into one bias per channel, which is broadcast-added onto the convolved
image features and gated by a ReLU. Without that branch the image alone
cannot determine the label, so the branch's contribution is directly
measurable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autograd as ag
from . import nn
from . import tensor as T
from .errors import EmptyDatasetError, LabelOutOfRangeError, TooManyClassesError

MAX_CLASSES = 8
GRID_POSITIONS = 4


def glyph_bitmap(glyph_id: int, size: int) -> np.ndarray:
    """Render one of the 8 fixed binary glyphs at the given size.

    0 solid square, 1 hollow box, 2 diagonal cross, 3 plus, 4 horizontal
    stripes, 5 vertical stripes, 6 checkerboard, 7 main diagonal.
    """
    if not 0 <= glyph_id < MAX_CLASSES:
        raise ValueError(f"glyph id must be in [0, {MAX_CLASSES}), got {glyph_id}")
    if size < 3:
        raise ValueError(f"glyph size must be at least 3, got {size}")
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


def one_hot(index: int, width: int = GRID_POSITIONS) -> np.ndarray:
    if not 0 <= int(index) < width:
        raise ValueError(f"index {index} outside [0, {width})")
    vec = np.zeros(width, dtype=T.DTYPE)
    vec[int(index)] = 1.0
    return vec


@dataclass(frozen=True)
class GridSample:
    """One image (1 x 2s x 2s), the queried position, and its true class."""

    image: np.ndarray
    index: int
    label: int


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def gen_dataset(seed, n: int, num_classes: int = 4, glyph_size: int = 7,
                noise_std: float = 0.05) -> list[GridSample]:
    """Draw ``n`` independent samples from one master seed.

    Per sample, in this order: four uniform class labels (one per grid
    cell), the glyph render, Gaussian pixel noise clipped back to
    [0, 1], and finally the uniform queried index. Each sample gets its
    own spawned child stream, so the set is reproducible bit for bit.
    """
    if n < 0:
        raise ValueError(f"sample count must be non-negative, got {n}")
    if num_classes < 1:
        raise ValueError(f"need at least one class, got {num_classes}")
    if num_classes > MAX_CLASSES:
        raise TooManyClassesError(
            f"at most {MAX_CLASSES} glyph classes exist, got {num_classes}"
        )
    if glyph_size < 3:
        raise ValueError(f"glyph size must be at least 3, got {glyph_size}")
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise std must be non-negative and finite, got {noise_std}")
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


class ToyModel:
    """Conv backbone + index branch fused by broadcast-add and ReLU.

    The index branch is the template-side term of the fusion op: it maps
    the one-hot position through three FC layers into one bias per fused
    channel. Weights are drawn uniformly in +-sqrt(6 / fan_in), each
    tensor from its own spawned stream of the model seed.
    """

    def __init__(self, num_classes: int = 4, glyph_size: int = 7,
                 conv_channels: tuple[int, int] = (8, 16), fused_channels: int = 16,
                 index_hidden: int = 32, seed=0):
        if num_classes < 1:
            raise ValueError(f"need at least one class, got {num_classes}")
        if num_classes > MAX_CLASSES:
            raise TooManyClassesError(
                f"at most {MAX_CLASSES} glyph classes exist, got {num_classes}"
            )
        self.num_classes = num_classes
        self.glyph_size = glyph_size
        c1, c2 = conv_channels
        p = fused_channels
        h = index_hidden
        shapes = [
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
        streams = _seed_sequence(seed).spawn(len(shapes))
        for (name, shape, fan_in), stream in zip(shapes, streams):
            rng = np.random.default_rng(stream)
            setattr(self, name, ag.Parameter(_uniform_init(rng, shape, fan_in), name))

    def parameters(self) -> list[ag.Parameter]:
        return [
            self.conv1, self.conv2, self.fuse,
            self.idx_w1, self.idx_b1, self.idx_w2, self.idx_b2,
            self.idx_w3, self.idx_b3, self.head_w, self.head_b,
        ]

    @property
    def index_branch(self) -> tuple[nn.FcLayer, nn.FcLayer, nn.FcLayer]:
        return (
            nn.FcLayer(self.idx_w1.value, self.idx_b1.value),
            nn.FcLayer(self.idx_w2.value, self.idx_b2.value),
            nn.FcLayer(self.idx_w3.value, self.idx_b3.value),
        )

    @property
    def head(self) -> nn.FcLayer:
        return nn.FcLayer(self.head_w.value, self.head_b.value)

    @property
    def fused_channels(self) -> int:
        return self.fuse.value.shape[0]


def _prior_vector(model: ToyModel, index: int, ablate_index: bool) -> np.ndarray:
    if ablate_index:
        return np.zeros(model.fused_channels, dtype=T.DTYPE)
    return nn.mlp3_forward(one_hot(index), model.index_branch)


def fused_map(model: ToyModel, sample: GridSample, ablate_index: bool = False,
              index: int | None = None) -> np.ndarray:
    """Post-ReLU fused response (P x h x w) for one sample."""
    query = sample.index if index is None else int(index)
    feat = T.relu(nn.conv2d_valid(sample.image, model.conv1.value))
    feat = T.relu(nn.conv2d_valid(feat, model.conv2.value))
    x_term = nn.conv2d_valid(feat, model.fuse.value)
    prior = _prior_vector(model, query, ablate_index).reshape(-1, 1, 1)
    return T.relu(T.broadcast_add(x_term, prior))


def toy_forward(model: ToyModel, sample: GridSample, ablate_index: bool = False,
                index: int | None = None) -> np.ndarray:
    """Class logits for one sample; ``index`` overrides the queried position."""
    fused = fused_map(model, sample, ablate_index, index)
    pooled = nn.global_avg_pool(fused)
    return nn.fc_forward(pooled, model.head)


def training_loss(tape: ag.Tape, model: ToyModel, sample: GridSample,
                  ablate_index: bool = False) -> ag.Node:
    """Taped cross-entropy loss; values match ``toy_forward`` bit for bit."""
    if not 0 <= sample.label < model.num_classes:
        raise LabelOutOfRangeError(
            f"label {sample.label} outside [0, {model.num_classes})"
        )
    feat = ag.relu(ag.conv2d(tape.constant(sample.image), tape.parameter(model.conv1)))
    feat = ag.relu(ag.conv2d(feat, tape.parameter(model.conv2)))
    x_term = ag.conv2d(feat, tape.parameter(model.fuse))
    if ablate_index:
        prior = tape.constant(np.zeros((model.fused_channels, 1, 1), dtype=T.DTYPE))
    else:
        layers = [
            (tape.parameter(model.idx_w1), tape.parameter(model.idx_b1)),
            (tape.parameter(model.idx_w2), tape.parameter(model.idx_b2)),
            (tape.parameter(model.idx_w3), tape.parameter(model.idx_b3)),
        ]
        prior = ag.reshape(
            ag.mlp3(tape.constant(one_hot(sample.index)), layers),
            (model.fused_channels, 1, 1),
        )
    fused = ag.relu(ag.add(x_term, prior))
    pooled = ag.mean_pool(fused)
    logits = ag.affine(pooled, tape.parameter(model.head_w), tape.parameter(model.head_b))
    return ag.softmax_xent(logits, sample.label)


def prediction_accuracy(predict: Callable[[GridSample], np.ndarray],
                        samples: Sequence[GridSample]) -> float:
    """Fraction of samples whose argmax logit (first on ties) is the label."""
    if len(samples) == 0:
        raise EmptyDatasetError("cannot evaluate on zero samples")
    hits = sum(int(np.argmax(predict(s))) == s.label for s in samples)
    return hits / len(samples)


def toy_evaluate(model: ToyModel, samples: Sequence[GridSample],
                 ablate_index: bool = False,
                 indices: Sequence[int] | None = None) -> float:
    """Test accuracy; ``indices`` substitutes the queried positions."""
    if indices is not None:
        if len(indices) != len(samples):
            raise ValueError("indices must align one-to-one with samples")
        samples = [replace(s, index=int(i)) for s, i in zip(samples, indices)]
    return prediction_accuracy(
        lambda sample: toy_forward(model, sample, ablate_index), samples
    )


def locality_rate(model: ToyModel, samples: Sequence[GridSample]) -> float:
    """How often the queried quadrant dominates the fused response.

    Per sample, the post-ReLU fused map is collapsed by per-pixel L1
    across channels and split into four equal quadrants (row-major, same
    numbering as the index); a hit means the queried quadrant has the
    largest sum.
    """
    if len(samples) == 0:
        raise EmptyDatasetError("cannot evaluate on zero samples")
    hits = 0
    for sample in samples:
        strength = T.l1_map(fused_map(model, sample)).astype(np.float64)
        half_r = strength.shape[0] // 2
        half_c = strength.shape[1] // 2
        sums = (
            strength[:half_r, :half_c].sum(),
            strength[:half_r, half_c:].sum(),
            strength[half_r:, :half_c].sum(),
            strength[half_r:, half_c:].sum(),
        )
        hits += int(np.argmax(sums)) == sample.index
    return hits / len(samples)


@dataclass(frozen=True)
class ToyTrainConfig:
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


@dataclass(frozen=True)
class ToyTrainResult:
    model: ToyModel
    train_curve: list[float] = field(default_factory=list)
    test_accuracy: float = 0.0


def heldout_set(config: ToyTrainConfig) -> list[GridSample]:
    """Rebuild the test split a training run with ``config`` evaluated on."""
    s_test = np.random.SeedSequence(config.seed).spawn(4)[2]
    return gen_dataset(s_test, config.n_test, config.num_classes,
                       config.glyph_size, config.noise_std)


def toy_train(config: ToyTrainConfig = ToyTrainConfig()) -> ToyTrainResult:
    """Train with per-sample SGD and report per-epoch mean loss + accuracy.

    The master seed splits into four child streams (model init, train
    set, test set, epoch shuffling), so runs are reproducible bit for
    bit. When ``ablate_index`` is set the index branch is forcibly
    zeroed during both training and evaluation.
    """
    if config.epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {config.epochs}")
    s_model, s_train, s_test, s_shuffle = np.random.SeedSequence(config.seed).spawn(4)
    train = gen_dataset(s_train, config.n_train, config.num_classes,
                        config.glyph_size, config.noise_std)
    test = gen_dataset(s_test, config.n_test, config.num_classes,
                       config.glyph_size, config.noise_std)
    model = ToyModel(config.num_classes, config.glyph_size, config.conv_channels,
                     config.fused_channels, config.index_hidden, seed=s_model)
    params = model.parameters()
    shuffle_rng = np.random.default_rng(s_shuffle)
    curve = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(train))
        losses = np.empty(len(train), dtype=np.float64)
        for step, sample_idx in enumerate(order):
            tape = ag.Tape()
            loss = training_loss(tape, model, train[sample_idx], config.ablate_index)
            ag.backward(tape, loss)
            ag.sgd_step(params, config.lr)
            losses[step] = float(loss.value)
        curve.append(float(losses.mean()))
    accuracy = toy_evaluate(model, test, ablate_index=config.ablate_index)
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
