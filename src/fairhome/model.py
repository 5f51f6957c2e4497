"""Trainable classifiers (logistic regression, feed-forward net) and reweighting.

Logistic regression is trained as the feed-forward net with no hidden layer,
started at zero. Both are trained by one seeded mini-batch gradient descent on
weighted cross-entropy with an L2 penalty on weights (not biases), so training
is deterministic given (data, config). Each model a fit trains is one parameter
set: a dataset's rows, labels and seed, and one per-row weight vector. A fit
trains the sets of alike datasets in lockstep, each bit-identical to a separate
fit; the runner trains every repetition's model and REW model in one call. A
step writes gradients only (``_backward``), into one flat buffer, and updates
every parameter, a view into another, in one subtraction. ``mlp_grad`` returns
the same gradients, ``mlp_loss_grad`` adds the loss, and ``logistic_loss_grad``
is its no-hidden-layer case, for finite-difference checking.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import astuple, dataclass, replace

import numpy as np

from .data import (
    Dataset,
    EncodingMap,
    Instance,
    Schema,
    build_encoding,
    check_field_types,
    encode,
    encode_matrix,
)
from .errors import TrainingError, UsageError

DEFAULT_HIDDEN_LAYERS = (64, 32, 16, 8, 4)
# a step's scalar operands as 0-d float64 arrays, which a ufunc takes without converting
_ZERO, _ONE, _CLIP_LO, _CLIP_HI = (np.array(v) for v in (0.0, 1.0, -500.0, 500.0))


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 100
    batch_size: int | None = 32  # None means full batch
    l2_penalty: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        # written so that NaN, and an int past the float range, fail and are rejected
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise UsageError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise UsageError("epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise UsageError("batch_size must be >= 1 or None")
        if not 0 <= self.l2_penalty <= sys.float_info.max:
            raise UsageError(f"l2_penalty must be non-negative and finite, got {self.l2_penalty}")


def check_weights(weights) -> np.ndarray:
    """``weights`` as a float array; UsageError unless every entry is a positive, finite number."""
    try:
        weights = np.asarray(weights, dtype=float)
    except (TypeError, ValueError) as e:
        raise UsageError(f"weights must be numbers: {e}") from None
    if not ((weights > 0) & (weights < np.inf)).all():
        raise UsageError("weights must be positive and finite")
    return weights


def sigmoid(z):
    # np.minimum/np.maximum clip as np.clip does, with less overhead per call
    return _ONE / (_ONE + np.exp(-np.maximum(np.minimum(z, _CLIP_HI), _CLIP_LO)))


def _cross_entropy(z, y, share):
    """Weighted-mean cross-entropy of sigmoid(z): log(1+e^z) - y*z, stable via logaddexp."""
    return np.sum(share * (np.logaddexp(0.0, z) - y * z))


def mlp_forward(weights, biases, X):
    """ReLU hidden layers, sigmoid output; returns (probabilities, activations, logits).

    The probabilities and logits are (..., rows, 1) columns: any leading axes of
    the parameters carry through, each bias added, in place, over the rows.
    """
    activations, z = [X], X @ weights[0]
    for layer in range(1, len(weights)):
        z += biases[layer - 1]
        activations.append(np.maximum(_ZERO, z, out=z))
        z = activations[-1] @ weights[layer]
    z += biases[-1]
    return sigmoid(z), activations, z


def _backward(weights, biases, X, y, share, grads_w, grads_b):
    """Put ``mlp_grad``'s gradients, without the L2 term, in the lists ``grads_w``
    and ``grads_b``, written into each entry's array (a fresh one for None)."""
    p, activations, _ = mlp_forward(weights, biases, X)
    delta = share * (p - y)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = np.matmul(activations[layer].swapaxes(-1, -2), delta, out=grads_w[layer])
        grads_b[layer] = delta.sum(axis=-2, keepdims=True, out=grads_b[layer])
        if layer:
            delta = (delta @ weights[layer].swapaxes(-1, -2)) * (activations[layer] > 0)


def mlp_grad(weights, biases, X, y, share, l2):
    """Per-layer gradients (weights, biases) of ``mlp_loss_grad``'s loss, without the loss.

    ``share`` is each row's sample weight divided by the batch's total. The
    rows ``X`` (..., rows, dim), labels ``y`` and ``share`` (..., rows, 1)
    broadcast over the leading axes of the parameters; each weight matrix
    (..., fan_in, fan_out) and bias (..., 1, fan_out) has the shape of its
    gradient. Each (rows, dim) slice is its own BLAS product. ``_backward``, the
    descent's step, writes them into fresh arrays, before the L2 term is added.
    """
    grads_w, grads_b = [None] * len(weights), [None] * len(biases)
    _backward(weights, biases, X, y, share, grads_w, grads_b)
    for g, W in zip(grads_w, weights):
        g += l2 * W
    return grads_w, grads_b


def mlp_loss_grad(weights, biases, X, y, sample_w, l2):
    """Loss and per-layer gradients for the feed-forward net."""
    share = sample_w / sample_w.sum()
    penalty = 0.5 * l2 * sum(float(np.sum(W * W)) for W in weights)
    loss = float(_cross_entropy(mlp_forward(weights, biases, X)[2][:, 0], y, share) + penalty)
    grads_w, grads_b = mlp_grad(weights, biases, X, y[:, None], share[:, None], l2)
    return loss, grads_w, [g[0] for g in grads_b]


def logistic_loss_grad(w, b, X, y, sample_w, l2):
    """Weighted-mean cross-entropy + 0.5*l2*||w||^2, with analytic gradients:
    ``mlp_loss_grad`` of the net with no hidden layer."""
    loss, (gw,), (gb,) = mlp_loss_grad([w[:, None]], [np.reshape(b, (1,))], X, y, sample_w, l2)
    return loss, gw[:, 0], float(gb[0])


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    encoding: EncodingMap
    schema: Schema

    def parameters(self) -> list:
        return [self.weights, self.bias]

    def proba_matrix(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(X @ self.weights + self.bias)

    def predict_proba(self, instance: Instance) -> float:
        return float(self.proba_matrix(encode(instance, self.schema, self.encoding)))

    def fingerprint(self) -> str:
        h = hashlib.sha256(self.weights.tobytes())
        h.update(np.float64(self.bias).tobytes())
        return h.hexdigest()[:16]


@dataclass
class MlpModel:
    layer_weights: list
    layer_biases: list
    encoding: EncodingMap
    schema: Schema

    def parameters(self) -> list:
        return [*self.layer_weights, *self.layer_biases]

    def proba_matrix(self, X: np.ndarray) -> np.ndarray:
        return mlp_forward(self.layer_weights, self.layer_biases, np.atleast_2d(X))[0][:, 0]

    def predict_proba(self, instance: Instance) -> float:
        return float(self.proba_matrix(encode(instance, self.schema, self.encoding))[0])

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for W, b in zip(self.layer_weights, self.layer_biases):
            h.update(W.tobytes())
            h.update(b.tobytes())
        return h.hexdigest()[:16]


def check_trainable(train: Dataset) -> None:
    """TrainingError unless ``train`` has at least 2 rows and both label classes."""
    if len(train) < 2:
        raise TrainingError("need at least 2 training rows")
    if len(set(train.labels)) < 2:
        raise TrainingError("training data contains a single label class")


def _listed(values, message, kind=object) -> list:
    """``values`` as a list of ``kind`` items; UsageError(message) otherwise."""
    try:
        values = list(values)
    except TypeError:
        raise UsageError(message) from None
    if not all(isinstance(v, kind) for v in values):
        raise UsageError(message)
    return values


def _sample_weights(entry, n: int) -> list:
    """One ``weights`` entry's sample weight vectors, one per model to train
    (ones for None); a None entry trains one unweighted model."""
    given = [None] if entry is None else _listed(
        entry, "a weights entry must be None or a sequence of weight vectors")
    if not given:
        raise UsageError("weights must hold at least one entry (None for all ones)")
    vectors = [np.ones(n) if w is None else check_weights(w) for w in given]
    for w in vectors:
        if w.shape != (n,):
            raise UsageError("each weight vector must hold one weight per training row: "
                             f"length must equal the training size {n}, got shape {w.shape}")
    return vectors


def _batch_shares(sample_w, step):
    """Each row's weight divided by its batch's total, for batches of ``step``
    consecutive rows; ``sample_w`` and the result are (S, rows, 1).

    Every total is summed over a C-contiguous block, as a separate fit's 1-D
    batch sum is: summed as a strided slice, a total can round differently.
    """
    sets, n, _ = sample_w.shape
    shares = np.empty_like(sample_w)
    whole = n - n % step  # the rows in batches of exactly ``step``
    for lo, hi, size in ((0, whole, step), (whole, n, n - whole)):
        if lo < hi:
            blocks = np.ascontiguousarray(sample_w[:, lo:hi]).reshape(sets, -1, size)
            shares[:, lo:hi] = (blocks / blocks.sum(axis=-1, keepdims=True)).reshape(sets, -1, 1)
    return shares


def _descend(X, y, sample_w, sets, config: TrainConfig, hidden_layers):
    """Seeded mini-batch gradient descent of the net with ``hidden_layers``,
    over S parameter sets in lockstep.

    ``X`` (D, n, dim) and ``y`` (D, n) are D datasets' encoded rows and labels.
    Set s is one model, ``sets[s] == (d, seed)``: dataset d's rows and labels,
    sample weights ``sample_w[s]`` (n,), and the seed whose ``init_mlp_params``
    it starts from and whose batch order it follows. Each set's arithmetic is
    that of a separate fit, so its parameters are bit-identical to one. Each
    epoch gathers every set's rows and weight shares (see ``_batch_shares``) in
    a fresh random order, and steps over contiguous slices of ``batch_size``
    rows; a full batch (``batch_size`` None or at least n) draws no order. All
    parameters are views into one flat buffer, and their gradients into another:
    a step writes the gradients, adds the L2 term over all weights at once and
    updates the buffer in one subtraction. Returns each layer's weights (S,
    fan_in, fan_out) and biases (S, 1, fan_out), views into that buffer.
    """
    _, n, dim = X.shape
    X, y, sample_w = X.reshape(-1, dim), y.ravel(), sample_w.ravel()
    S, k = len(sets), len(hidden_layers) + 1  # sets, layers
    inits = [init_mlp_params(dim, hidden_layers, seed) for _, seed in sets]
    start = [np.stack(p) for p in zip(*(ws + [b[None] for b in bs] for ws, bs in inits))]
    # the parameters, weights first, and their gradients as views into two flat buffers
    P = np.concatenate([a.ravel() for a in start])
    G, ends = np.empty_like(P), np.cumsum([a.size for a in start])
    params, grads = ([part.reshape(a.shape) for part, a in zip(np.split(buf, ends), start)]
                     for buf in (P, G))
    (layer_w, layer_b), (grad_w, grad_b) = (params[:k], params[k:]), (grads[:k], grads[k:])
    Pw, Gw = P[:ends[k - 1]], G[:ends[k - 1]]
    full_batch = config.batch_size is None or config.batch_size >= n
    step = n if full_batch else config.batch_size
    # 0-d operands; float, since an int setting such as 10**300 would make an object array
    lr, l2 = (np.array(v, dtype=float) for v in (config.learning_rate, config.l2_penalty))
    # each set's first row among the datasets' rows, and among the weights
    source, own = n * np.array([d for d, _ in sets])[:, None], n * np.arange(S)[:, None]

    def gather(order):
        """The epoch's rows, labels and weight shares, each set's (n,) in its ``order``."""
        rows = (order + source).ravel()
        return (X.take(rows, axis=0).reshape(S, n, dim), y.take(rows).reshape(S, n, 1),
                _batch_shares(sample_w.take((order + own).ravel()).reshape(S, n, 1), step))

    # a batch order depends on its seed alone: the sets of one seed share it
    rngs = {seed: np.random.default_rng(seed) for _, seed in sets}
    # a full batch keeps the rows in order; each mini-batch epoch gathers its own
    X_e, y_e, share_e = gather(np.arange(n))
    for _ in range(config.epochs):
        if not full_batch:
            orders = {seed: rng.permutation(n) for seed, rng in rngs.items()}
            X_e, y_e, share_e = gather(np.stack([orders[seed] for _, seed in sets]))
        for s in range(0, n, step):
            _backward(layer_w, layer_b, X_e[:, s:s + step], y_e[:, s:s + step],
                      share_e[:, s:s + step], grad_w, grad_b)
            Gw += l2 * Pw
            P -= lr * G
    return layer_w, layer_b


def _fit(trains, configs, hidden_layers, weights, build):
    """One Dataset's result, or a sequence of datasets' results, in order.

    A sequence brings one config and one ``weights`` entry per dataset
    (``weights`` None for all None); an entry holds per-row weight vectors
    (None for all ones) or is None for one unweighted model. Every argument is
    checked before any training. Each model is one set: its dataset's rows,
    labels and seed, and one weight vector. Datasets with equal training size,
    encoding width and config apart from the seed train their sets in one
    ``_descend``, dataset by dataset. ``build(layer_w, layer_b, encoding,
    schema)`` makes one model from one set's weight matrices and bias vectors.
    A result is its dataset's list of models, or its one model for a None entry.
    """
    single = isinstance(trains, Dataset)
    if single:
        trains, configs, weights = [trains], [configs], [weights]
    trains = _listed(trains, "train must be a Dataset or a sequence of datasets", Dataset)
    configs = _listed(configs, "config must be a TrainConfig or a sequence of them", TrainConfig)
    weights = _listed([None] * len(trains) if weights is None else weights,
                      "weights must be None or a sequence of one entry per dataset")
    if not len(trains) == len(configs) == len(weights):
        raise UsageError("give one train config and one weights entry per training set")
    for train in trains:
        check_trainable(train)
    vectors = [_sample_weights(entry, len(train)) for train, entry in zip(trains, weights)]
    encodings = [build_encoding(train) for train in trains]
    groups: dict = {}
    for i, (train, config, encoding) in enumerate(zip(trains, configs, encodings)):
        groups.setdefault((encoding.dim, len(train), astuple(replace(config, seed=0))),
                          []).append(i)
    models = [[] for _ in trains]
    for members in groups.values():
        sets = [(d, i, w) for d, i in enumerate(members) for w in vectors[i]]
        layer_w, layer_b = _descend(
            np.stack([encode_matrix(trains[i].instances(), trains[i].schema, encodings[i])
                      for i in members]),
            np.array([trains[i].labels for i in members], dtype=float),
            np.stack([w for *_, w in sets]), [(d, configs[i].seed) for d, i, _ in sets],
            configs[members[0]], hidden_layers)
        for s, (_, i, _) in enumerate(sets):
            models[i].append(build([W[s] for W in layer_w], [b[s, 0] for b in layer_b],
                                   encodings[i], trains[i].schema))
    results = [result[0] if entry is None else result for result, entry in zip(models, weights)]
    return results[0] if single else results


def fit_logistic(train, config, *, weights=None):
    """Weighted logistic regression: the net with no hidden layer, trained from zero.

    Returns the model. Given ``weights``, a sequence of per-row weight vectors
    (None for all ones), it trains one model per entry in one descent and
    returns them as a list, in order. Given a sequence of datasets, with one
    config and one ``weights`` entry each, it returns one such result per
    dataset, trained in lockstep where their shapes allow (see ``_fit``).
    """
    def build(layer_w, layer_b, encoding, schema):
        (w,), (b,) = layer_w, layer_b
        return LogisticModel(w[:, 0], float(b[0]), encoding, schema)

    return _fit(train, config, (), weights, build)


def init_mlp_params(dim_in: int, hidden_layers, seed: int):
    """Uniform[-r, r] with r = sqrt(6/(fan_in+fan_out)); biases start at zero.

    A net without hidden layers (logistic regression) starts at zero: it has no
    symmetry to break.
    """
    if not hidden_layers:
        return [np.zeros((dim_in, 1))], [np.zeros(1)]
    rng = np.random.default_rng(seed)
    sizes = [dim_in, *hidden_layers, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-r, r, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def fit_mlp(train, config, hidden_layers=DEFAULT_HIDDEN_LAYERS, *, weights=None):
    """Fully-connected net with ReLU hidden layers and a sigmoid output unit.

    Returns the model, one model per entry of ``weights`` as a list, or one
    such result per dataset of a sequence, as ``fit_logistic`` does.
    """
    return _fit(train, config, hidden_layers, weights, MlpModel)


def favorable(p):
    """The decision rule: 1 (favorable) iff the favorable-class probability is >= 0.5.

    Works elementwise on arrays; a probability exactly on 0.5 is favorable.
    """
    return (np.asarray(p) >= 0.5).astype(int)


def reweighting_weights(train: Dataset) -> np.ndarray:
    """Per-row weights (N_s * N_y) / (N * N_sy) equalizing (subgroup, label) mass.
    The counts are exact, so int64 true division rounds as Python's ``int / int``."""
    idx, codes = train.schema.protected_indices, {}
    s = np.array([codes.setdefault(tuple(row[i] for i in idx), len(codes)) for row in train.rows],
                 dtype=np.intp)
    y = np.asarray(train.labels, dtype=np.intp)
    sy = 2 * s + y
    return np.bincount(s)[s] * np.bincount(y)[y] / (len(train) * np.bincount(sy)[sy])
