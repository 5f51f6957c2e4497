"""Trainable classifiers (logistic regression, feed-forward net) and reweighting.

Both models are trained by seeded mini-batch gradient descent on weighted
cross-entropy with an L2 penalty on weights (not biases), so training is
deterministic given (data, config). A training step computes gradients only
(``logistic_grad``, ``mlp_grad``); ``logistic_loss_grad`` and ``mlp_loss_grad``
add the loss to the same gradients, for finite-difference checking.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import dataclass, field
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
    instance_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.instance_weights is not None:
            self.instance_weights = np.asarray(self.instance_weights, dtype=float)
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
        if self.instance_weights is not None and not (
                (self.instance_weights > 0) & (self.instance_weights < np.inf)).all():
            raise UsageError("instance_weights must be positive and finite")


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _cross_entropy(z, y, sample_w):
    """Weighted-mean cross-entropy of sigmoid(z): log(1+e^z) - y*z, stable via logaddexp."""
    return np.sum(sample_w / sample_w.sum() * (np.logaddexp(0.0, z) - y * z))


def logistic_grad(w, b, X, y, sample_w, l2):
    """Gradients (w, b) of ``logistic_loss_grad``'s loss, without the loss."""
    g = sample_w / sample_w.sum() * (sigmoid(X @ w + b) - y)
    return X.T @ g + l2 * w, float(g.sum())


def logistic_loss_grad(w, b, X, y, sample_w, l2):
    """Weighted-mean cross-entropy + 0.5*l2*||w||^2, with analytic gradients."""
    loss = float(_cross_entropy(X @ w + b, y, sample_w) + 0.5 * l2 * np.dot(w, w))
    return (loss, *logistic_grad(w, b, X, y, sample_w, l2))


def mlp_forward(weights, biases, X):
    """ReLU hidden layers, sigmoid output; returns (probabilities, activations, logits)."""
    h = X
    activations = [X]
    for W, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(0.0, h @ W + b)
        activations.append(h)
    z = (h @ weights[-1] + biases[-1]).ravel()
    return sigmoid(z), activations, z


def mlp_grad(weights, biases, X, y, sample_w, l2):
    """Per-layer gradients (weights, biases) of ``mlp_loss_grad``'s loss, without the loss."""
    p, activations, _ = mlp_forward(weights, biases, X)
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    delta = (sample_w / sample_w.sum() * (p - y))[:, None]
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta + l2 * weights[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (activations[layer] > 0)
    return grads_w, grads_b


def mlp_loss_grad(weights, biases, X, y, sample_w, l2):
    """Loss and per-layer gradients for the feed-forward net."""
    penalty = 0.5 * l2 * sum(float(np.sum(W * W)) for W in weights)
    loss = float(_cross_entropy(mlp_forward(weights, biases, X)[2], y, sample_w) + penalty)
    return (loss, *mlp_grad(weights, biases, X, y, sample_w, l2))


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    encoding: EncodingMap
    schema: Schema
    meta: dict = field(default_factory=dict)

    def proba_matrix(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(X @ self.weights + self.bias)

    def predict_proba(self, instance: Instance) -> float:
        return float(self.proba_matrix(encode(instance, self.schema, self.encoding)))

    def fingerprint(self) -> str:
        h = hashlib.sha256(self.weights.tobytes())
        h.update(np.float64(self.bias).tobytes())
        return h.hexdigest()[:16]

    def params_dict(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias}


@dataclass
class MlpModel:
    layer_weights: list
    layer_biases: list
    encoding: EncodingMap
    schema: Schema
    meta: dict = field(default_factory=dict)

    def proba_matrix(self, X: np.ndarray) -> np.ndarray:
        return mlp_forward(self.layer_weights, self.layer_biases, np.atleast_2d(X))[0]

    def predict_proba(self, instance: Instance) -> float:
        return float(self.proba_matrix(encode(instance, self.schema, self.encoding))[0])

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for W, b in zip(self.layer_weights, self.layer_biases):
            h.update(W.tobytes())
            h.update(b.tobytes())
        return h.hexdigest()[:16]

    def params_dict(self) -> dict:
        return {
            "layer_weights": [W.tolist() for W in self.layer_weights],
            "layer_biases": [b.tolist() for b in self.layer_biases],
        }


def _descend(train: Dataset, config: TrainConfig, init, grad):
    """Seeded mini-batch gradient descent shared by both models.

    ``init(dim)`` returns the list of parameter arrays, which are updated in
    place; ``grad(params, X, y, sample_w, l2)`` returns only their gradients,
    in the same order. Each epoch gathers the rows in a fresh random order once
    and steps over contiguous slices of ``batch_size`` rows; a full batch
    (``batch_size`` None or at least the training size) draws no order.
    Returns the training encoding and the trained parameters.
    """
    n = len(train)
    if n < 2:
        raise TrainingError("need at least 2 training rows")
    if len(set(train.labels)) < 2:
        raise TrainingError("training data contains a single label class")
    sample_w = config.instance_weights
    if sample_w is None:
        sample_w = np.ones(n)
    elif len(sample_w) != n:
        raise UsageError("instance_weights length must equal the training size")
    encoding = build_encoding(train)
    X = encode_matrix(train.instances(), train.schema, encoding)
    y = np.asarray(train.labels, dtype=float)

    params = init(encoding.dim)
    full_batch = config.batch_size is None or config.batch_size >= n
    step = n if full_batch else config.batch_size
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        if full_batch:
            X_e, y_e, w_e = X, y, sample_w
        else:
            order = rng.permutation(n)
            X_e, y_e, w_e = X[order], y[order], sample_w[order]
        for s in range(0, n, step):
            grads = grad(params, X_e[s:s + step], y_e[s:s + step], w_e[s:s + step],
                         config.l2_penalty)
            for param, g in zip(params, grads):
                param -= config.learning_rate * g
    return encoding, params


def fit_logistic(train: Dataset, config: TrainConfig) -> LogisticModel:
    """Weighted logistic regression via gradient descent; zero-initialized."""
    # the bias is a 0-d array so the descent loop can update it in place
    encoding, (w, b) = _descend(
        train, config, lambda dim: [np.zeros(dim), np.zeros(())],
        lambda params, X, y, sw, l2: logistic_grad(*params, X, y, sw, l2),
    )
    meta = {"kind": "logistic", "seed": config.seed, "n_train": len(train)}
    return LogisticModel(weights=w, bias=float(b), encoding=encoding, schema=train.schema,
                         meta=meta)


def init_mlp_params(dim_in: int, hidden_layers, seed: int):
    """Uniform[-r, r] with r = sqrt(6/(fan_in+fan_out)); biases start at zero."""
    rng = np.random.default_rng(seed)
    sizes = [dim_in, *hidden_layers, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-r, r, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def fit_mlp(train: Dataset, config: TrainConfig, hidden_layers=DEFAULT_HIDDEN_LAYERS) -> MlpModel:
    """Fully-connected net with ReLU hidden layers and a sigmoid output unit."""
    n_layers = len(hidden_layers) + 1

    def init(dim):
        weights, biases = init_mlp_params(dim, hidden_layers, config.seed)
        return weights + biases

    def grad(params, X, y, sw, l2):
        gw, gb = mlp_grad(params[:n_layers], params[n_layers:], X, y, sw, l2)
        return gw + gb

    encoding, params = _descend(train, config, init, grad)
    meta = {"kind": "mlp", "seed": config.seed, "n_train": len(train),
            "hidden_layers": tuple(hidden_layers)}
    return MlpModel(layer_weights=params[:n_layers], layer_biases=params[n_layers:],
                    encoding=encoding, schema=train.schema, meta=meta)


def favorable(p):
    """The decision rule: 1 (favorable) iff the favorable-class probability is >= 0.5.

    Works elementwise on arrays; a probability exactly on 0.5 is favorable.
    """
    return (np.asarray(p) >= 0.5).astype(int)


def reweighting_weights(train: Dataset, domains: ProtectedDomains) -> np.ndarray:
    """Per-row weights (N_s * N_y) / (N * N_sy) equalizing (subgroup, label) mass."""
    idx = train.schema.protected_indices
    combos = [tuple(row[i] for i in idx) for row in train.rows]
    n = len(train)
    n_s: dict = {}
    n_y = {0: 0, 1: 0}
    n_sy: dict = {}
    for combo, y in zip(combos, train.labels):
        n_s[combo] = n_s.get(combo, 0) + 1
        n_y[y] += 1
        n_sy[(combo, y)] = n_sy.get((combo, y), 0) + 1
    return np.array(
        [n_s[c] * n_y[y] / (n * n_sy[(c, y)]) for c, y in zip(combos, train.labels)]
    )


_FORMAT = "fairhome-model/1"


def save_model(model, path) -> None:
    """JSON dump of parameters, encoding, and schema; predictions round-trip exactly."""
    from .data import CategoricalBlock

    blocks = []
    for blk in model.encoding.blocks:
        if isinstance(blk, CategoricalBlock):
            blocks.append({"name": blk.name, "kind": "categorical", "levels": list(blk.levels)})
        else:
            blocks.append({"name": blk.name, "kind": "numeric", "lo": blk.lo, "hi": blk.hi})
    doc = {
        "format": _FORMAT,
        "kind": model.meta.get("kind"),
        "schema": model.schema.to_dict(),
        "encoding": blocks,
        "params": model.params_dict(),
        "meta": model.meta,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path):
    from .data import CategoricalBlock, NumericBlock

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != _FORMAT:
        raise UsageError(f"unsupported model file format {doc.get('format')!r}")
    schema = Schema.from_dict(doc["schema"])
    blocks = []
    dim = 0
    for blk in doc["encoding"]:
        if blk["kind"] == "categorical":
            levels = tuple(blk["levels"])
            blocks.append(CategoricalBlock(blk["name"], levels,
                                           {v: j for j, v in enumerate(levels)}))
            dim += len(levels)
        else:
            blocks.append(NumericBlock(blk["name"], blk["lo"], blk["hi"]))
            dim += 1
    encoding = EncodingMap(blocks=tuple(blocks), dim=dim)
    params = doc["params"]
    meta = dict(doc.get("meta", {}))
    if doc["kind"] == "logistic":
        return LogisticModel(weights=np.asarray(params["weights"]), bias=params["bias"],
                             encoding=encoding, schema=schema, meta=meta)
    if doc["kind"] == "mlp":
        return MlpModel(
            layer_weights=[np.asarray(W) for W in params["layer_weights"]],
            layer_biases=[np.asarray(b) for b in params["layer_biases"]],
            encoding=encoding, schema=schema, meta=meta,
        )
    raise UsageError(f"unknown model kind {doc['kind']!r}")
