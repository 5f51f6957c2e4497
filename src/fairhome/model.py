"""Trainable classifiers (logistic regression, feed-forward net) and reweighting.

Logistic regression is trained as the feed-forward net with no hidden layer,
started at zero. Both models are trained by one seeded mini-batch gradient
descent on weighted cross-entropy with an L2 penalty on weights (not biases),
so training is deterministic given (data, config). A fit takes its per-row
sample weights as one ``weights`` sequence and trains one model per entry in
lockstep; given a sequence of datasets (with one config and one ``weights``
entry each), it trains those of equal shape in lockstep too. The runner trains
every repetition's model and its REW model in one call. Each model's
parameters are bit-identical to a separate fit. A training step computes
gradients only (``mlp_grad``); ``mlp_loss_grad`` adds the loss to the same
gradients, and ``logistic_loss_grad`` is its no-hidden-layer case, for
finite-difference checking.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import astuple, dataclass, replace
from numbers import Integral, Real

import numpy as np

from .data import (
    Dataset,
    EncodingMap,
    Instance,
    ProtectedDomains,
    Schema,
    build_encoding,
    encode,
    encode_matrix,
)
from .errors import TrainingError, UsageError

DEFAULT_HIDDEN_LAYERS = (64, 32, 16, 8, 4)
# what each annotated type accepts in a config: a JSON number or list, not a bool
_ACCEPTED = {float: Real, int: Integral, tuple: (tuple, list)}


def check_field_types(config) -> None:
    """UsageError naming the first field of the dataclass ``config`` whose value
    does not have its annotated type; a bool passes only for a bool."""
    for name, hint in typing.get_type_hints(type(config)).items():
        value = getattr(config, name)
        kinds = tuple(_ACCEPTED.get(k, k) for k in typing.get_args(hint) or (hint,))
        if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
            raise UsageError(f"{name} must be {getattr(hint, '__name__', hint)}, "
                             f"got {value!r}")


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 100
    batch_size: int | None = 32  # None means full batch
    l2_penalty: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        # written so that NaN fails each comparison and is rejected
        if not 0 < self.learning_rate < np.inf:
            raise UsageError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise UsageError("epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise UsageError("batch_size must be >= 1 or None")
        if not 0 <= self.l2_penalty < np.inf:
            raise UsageError(f"l2_penalty must be non-negative and finite, got {self.l2_penalty}")


def check_weights(weights) -> np.ndarray:
    """``weights`` as a float array; UsageError unless every entry is positive and finite."""
    weights = np.asarray(weights, dtype=float)
    if not ((weights > 0) & (weights < np.inf)).all():
        raise UsageError("weights must be positive and finite")
    return weights


def sigmoid(z):
    # np.minimum/np.maximum clip as np.clip does, with less overhead per call
    return 1.0 / (1.0 + np.exp(-np.maximum(np.minimum(z, 500), -500)))


def _cross_entropy(z, y, share):
    """Weighted-mean cross-entropy of sigmoid(z): log(1+e^z) - y*z, stable via logaddexp."""
    return np.sum(share * (np.logaddexp(0.0, z) - y * z))


def mlp_forward(weights, biases, X):
    """ReLU hidden layers, sigmoid output; returns (probabilities, activations, logits).

    The probabilities and logits are (..., rows, 1) columns: any leading axes of
    the parameters carry through, each bias broadcasting over the rows.
    """
    h = X
    activations = [X]
    for W, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(0.0, h @ W + b)
        activations.append(h)
    z = h @ weights[-1] + biases[-1]
    return sigmoid(z), activations, z


def mlp_grad(weights, biases, X, y, share, l2):
    """Per-layer gradients (weights, biases) of ``mlp_loss_grad``'s loss, without the loss.

    ``share`` is each row's sample weight divided by the batch's total. The
    rows ``X`` (..., rows, dim), labels ``y`` and ``share`` (..., rows, 1)
    broadcast over the leading axes of the parameters (in the descent, each
    dataset's rows and labels over its K parameter sets); each weight matrix
    (..., fan_in, fan_out) and bias (..., 1, fan_out) has the shape of its
    gradient. Each (rows, dim) slice is its own BLAS product.
    """
    p, activations, _ = mlp_forward(weights, biases, X)
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    delta = share * (p - y)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].swapaxes(-1, -2) @ delta + l2 * weights[layer]
        grads_b[layer] = delta.sum(axis=-2, keepdims=True)
        if layer > 0:
            delta = (delta @ weights[layer].swapaxes(-1, -2)) * (activations[layer] > 0)
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


def _sample_weights(weights, n: int) -> np.ndarray:
    """The (n, K) per-row sample weights of one ``weights`` entry: K vectors
    (None for all ones), or None for one unweighted set."""
    given = [None] if weights is None else list(weights)
    if not given:
        raise UsageError("weights must hold at least one entry (None for all ones)")
    sample_w = np.ones((n, len(given)))
    for column, w in enumerate(given):
        if w is not None:
            w = check_weights(w)
            if len(w) != n:
                raise UsageError("weights length must equal the training size")
            sample_w[:, column] = w
    return sample_w


def _batch_shares(sample_w, step):
    """Each row's weight divided by its batch's total, for batches of ``step``
    consecutive rows; ``sample_w`` and the result are (..., rows, 1).

    Every total is summed over a C-contiguous block, as a separate fit's 1-D
    batch sum is: summed as a strided slice, a total can round differently.
    """
    *lead, n, _ = sample_w.shape
    shares = np.empty_like(sample_w)
    whole = n - n % step  # the rows in batches of exactly ``step``
    for lo, hi, size in ((0, whole, step), (whole, n, n - whole)):
        if lo < hi:
            blocks = np.ascontiguousarray(sample_w[..., lo:hi, :]).reshape(*lead, -1, size)
            shares[..., lo:hi, :] = (blocks / blocks.sum(axis=-1, keepdims=True)).reshape(
                *lead, -1, 1)
    return shares


def _descend(X, y, sample_w, seeds, config: TrainConfig, hidden_layers):
    """Seeded mini-batch gradient descent of the net with ``hidden_layers``,
    over R datasets x K parameter sets in lockstep.

    The R = ``len(seeds)`` datasets share their size n, the encoding width
    and ``config`` apart from the seed; their rows come one dataset after
    another: encoded rows ``X`` (R * n, dim), labels ``y`` (R * n,) and K
    sample weights per row, ``sample_w`` (R * n, K). Each dataset's K sets
    start from its seed's ``init_mlp_params``, follow its seed's batch order
    and differ only in their sample weights. Each set's arithmetic is that of
    a separate fit, so its parameters are bit-identical to one. A step calls
    ``mlp_grad`` on batches ``X`` (R, 1, rows, dim), ``y`` (R, 1, rows, 1) and
    weight shares (R, K, rows, 1) (see ``_batch_shares``), or (rows, dim),
    (1, rows, 1) and (K, rows, 1) for one dataset. Each epoch gathers
    every dataset's rows, and their shares, in a fresh random order once and
    steps over contiguous slices of ``batch_size`` rows; a full batch
    (``batch_size`` None or at least n) draws no order. Returns the weight
    matrices (R, K, fan_in, fan_out) and biases (R, K, 1, fan_out) per layer.
    """
    reps, k = len(seeds), sample_w.shape[1]
    n = len(y) // reps
    # the leading axes of the parameters and shares, and those of the rows,
    # which broadcast over K; one dataset drops its R axis, as every numpy call
    # costs more per axis
    lead, x_lead = ((k,), ()) if reps == 1 else ((reps, k), (reps, 1))
    inits = [init_mlp_params(X.shape[1], hidden_layers, seed) for seed in seeds]
    # each parameter with the leading axes, updated in place
    layer_w = [np.repeat(np.stack(ws)[:, None], k, axis=1).reshape(*lead, *ws[0].shape)
               for ws in zip(*(w for w, _ in inits))]
    layer_b = [np.repeat(np.stack(bs)[:, None, None], k, axis=1).reshape(*lead, 1, -1)
               for bs in zip(*(b for _, b in inits))]
    params = layer_w + layer_b  # the same arrays, in the order of mlp_grad's gradients
    full_batch = config.batch_size is None or config.batch_size >= n
    step = n if full_batch else config.batch_size
    lr, l2 = config.learning_rate, config.l2_penalty

    def gather(rows):
        """The epoch's rows, labels and weight shares, in the order ``rows``."""
        weights = sample_w[rows].reshape(reps, n, k).transpose(0, 2, 1).reshape(*lead, n, 1)
        return (X[rows].reshape(*x_lead, n, -1), y[rows].reshape(*lead[:-1], 1, n, 1),
                _batch_shares(weights, step))

    rngs = [np.random.default_rng(seed) for seed in seeds]
    # a full batch keeps the rows in order; each mini-batch epoch gathers its own
    X_e, y_e, share_e = gather(np.arange(reps * n))
    for _ in range(config.epochs):
        if not full_batch:
            X_e, y_e, share_e = gather(np.concatenate(
                [rng.permutation(n) + r * n for r, rng in enumerate(rngs)]))
        for s in range(0, n, step):
            grads_w, grads_b = mlp_grad(layer_w, layer_b, X_e[..., s:s + step, :],
                                        y_e[..., s:s + step, :], share_e[..., s:s + step, :], l2)
            for param, g in zip(params, grads_w + grads_b):
                param -= lr * g
    return ([W.reshape(reps, k, *W.shape[-2:]) for W in layer_w],
            [b.reshape(reps, k, *b.shape[-2:]) for b in layer_b])


def _fit(trains, configs, hidden_layers, weights, build):
    """One Dataset's result, or a sequence of datasets' results, in order.

    A sequence brings one config and one ``weights`` entry per dataset
    (``weights`` None for all None); an entry holds per-row weight vectors
    (None for all ones) or is None for one unweighted model. Every dataset is
    checked before any training. Datasets with equal training size, encoding
    width, number of weight vectors and config apart from the seed train in
    one ``_descend``. A result is the list of models ``build(schema, encoding,
    layer_w, layer_b)`` makes from parameters (K, fan_in, fan_out)
    and (K, 1, fan_out) per layer, or its one model for a None entry.
    """
    single = isinstance(trains, Dataset)
    if single:
        trains, configs, weights = [trains], [configs], [weights]
    trains, configs = list(trains), list(configs)
    weights = [None] * len(trains) if weights is None else list(weights)
    if not len(trains) == len(configs) == len(weights):
        raise UsageError("give one train config and one weights entry per training set")
    for train in trains:
        check_trainable(train)
    sample_ws = [_sample_weights(entry, len(train)) for train, entry in zip(trains, weights)]
    encodings = [build_encoding(train) for train in trains]
    groups: dict = {}
    for i, (config, encoding, sample_w) in enumerate(zip(configs, encodings, sample_ws)):
        key = (encoding.dim, sample_w.shape, astuple(replace(config, seed=0)))
        groups.setdefault(key, []).append(i)
    results = [None] * len(trains)
    for members in groups.values():
        X = np.concatenate([encode_matrix(trains[i].instances(), trains[i].schema, encodings[i])
                            for i in members])
        y = np.array([label for i in members for label in trains[i].labels], dtype=float)
        layer_w, layer_b = _descend(X, y, np.concatenate([sample_ws[i] for i in members]),
                                    [configs[i].seed for i in members], configs[members[0]],
                                    hidden_layers)
        for j, i in enumerate(members):
            models = build(trains[i].schema, encodings[i], [W[j] for W in layer_w],
                           [b[j] for b in layer_b])
            results[i] = models[0] if weights[i] is None else models
    return results[0] if single else results


def fit_logistic(train, config, *, weights=None):
    """Weighted logistic regression: the net with no hidden layer, trained from zero.

    Returns the model. Given ``weights``, a sequence of per-row weight vectors
    (None for all ones), it trains one model per entry in one descent and
    returns them as a list, in order. Given a sequence of datasets, with one
    config and one ``weights`` entry each, it returns one such result per
    dataset, trained in lockstep where their shapes allow (see ``_fit``).
    """
    def build(schema, encoding, layer_w, layer_b):
        (w,), (b,) = layer_w, layer_b
        return [LogisticModel(weights=w_k, bias=float(b_k), encoding=encoding, schema=schema)
                for w_k, b_k in zip(w[:, :, 0], b[:, 0, 0])]

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
    def build(schema, encoding, layer_w, layer_b):
        return [MlpModel(layer_weights=list(ws), layer_biases=[b[0] for b in bs],
                         encoding=encoding, schema=schema)
                for ws, bs in zip(zip(*layer_w), zip(*layer_b))]

    return _fit(train, config, hidden_layers, weights, build)


def favorable(p):
    """The decision rule: 1 (favorable) iff the favorable-class probability is >= 0.5.

    Works elementwise on arrays; a probability exactly on 0.5 is favorable.
    """
    return (np.asarray(p) >= 0.5).astype(int)


def reweighting_weights(train: Dataset, domains: ProtectedDomains) -> np.ndarray:
    """Per-row weights (N_s * N_y) / (N * N_sy) equalizing (subgroup, label) mass.
    The counts are exact, so int64 true division rounds as Python's ``int / int``."""
    idx, codes = train.schema.protected_indices, {}
    s = np.array([codes.setdefault(tuple(row[i] for i in idx), len(codes)) for row in train.rows],
                 dtype=np.intp)
    y = np.asarray(train.labels, dtype=np.intp)
    sy = 2 * s + y
    return np.bincount(s)[s] * np.bincount(y)[y] / (len(train) * np.bincount(sy)[sy])
