import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairhome.data import Instance, build_encoding, encode_matrix
from fairhome.errors import ShapeError, TrainingError, UsageError
from fairhome.model import (
    DEFAULT_HIDDEN_LAYERS,
    LogisticModel,
    MlpModel,
    TrainConfig,
    check_weights,
    fit_logistic,
    fit_mlp,
    init_mlp_params,
    logistic_loss_grad,
    mlp_forward,
    mlp_grad,
    mlp_loss_grad,
    reweighting_weights,
    sigmoid,
)

from conftest import make_dataset, make_schema, random_dataset

SCHEMA_1P = make_schema(protected=("sex",), extra=(("x1", "numeric"), ("x2", "numeric")))


def separable_dataset():
    """20 points, label decided by x1 > x2 with a clear margin."""
    rows, labels = [], []
    rng = np.random.default_rng(5)
    while len(rows) < 20:
        x1, x2 = rng.uniform(0, 1, 2)
        if abs(x1 - x2) < 0.25:
            continue
        rows.append((str(rng.choice(["M", "F"])), round(x1, 3), round(x2, 3)))
        labels.append(int(x1 > x2))
    return make_dataset(SCHEMA_1P, rows, labels)


def xor_dataset():
    # balanced corners, so a linear model tops out at exactly 3 of 4 right
    rows, labels = [], []
    for a in (0, 1):
        for b in (0, 1):
            for _ in range(20):
                rows.append(("M", float(a), float(b)))
                labels.append(a ^ b)
    return make_dataset(SCHEMA_1P, rows, labels)


def training_accuracy(model, ds):
    X = encode_matrix(ds.instances(), ds.schema, model.encoding)
    pred = (model.proba_matrix(X) >= 0.5).astype(int)
    return float(np.mean(pred == np.asarray(ds.labels)))


def test_logistic_separable_reaches_full_accuracy():
    ds = separable_dataset()
    model = fit_logistic(ds, TrainConfig(learning_rate=0.5, epochs=400, batch_size=None, seed=0))
    assert training_accuracy(model, ds) == 1.0


def test_neutral_weights_match_absent_weights():
    ds = separable_dataset()
    m_a = fit_logistic(ds, TrainConfig(seed=3))
    m_b, m_c = fit_logistic(ds, TrainConfig(seed=3), weights=[np.ones(len(ds)), None])
    for m in (m_b, m_c):
        assert np.array_equal(m_a.weights, m.weights) and m_a.bias == m.bias


def test_single_class_training_rejected():
    ds = separable_dataset()
    ds.labels = [1] * len(ds)
    with pytest.raises(TrainingError):
        fit_logistic(ds, TrainConfig())
    with pytest.raises(TrainingError):
        fit_mlp(ds, TrainConfig(), hidden_layers=(4,))


def test_mlp_parameter_count_matches_architecture():
    ds = separable_dataset()
    model = fit_mlp(ds, TrainConfig(epochs=1), hidden_layers=(64, 32, 16, 8, 4))
    d = model.encoding.dim
    expected = ((d * 64 + 64) + (64 * 32 + 32) + (32 * 16 + 16)
                + (16 * 8 + 8) + (8 * 4 + 4) + (4 * 1 + 1))
    actual = sum(W.size + b.size for W, b in zip(model.layer_weights, model.layer_biases))
    assert actual == expected


def test_mlp_learns_xor_where_logistic_cannot():
    ds = xor_dataset()
    mlp = fit_mlp(ds, TrainConfig(learning_rate=0.5, epochs=600, batch_size=None, seed=1),
                  hidden_layers=(4, 4))
    lr = fit_logistic(ds, TrainConfig(learning_rate=0.5, epochs=600, batch_size=None, seed=1))
    assert training_accuracy(mlp, ds) > 0.9
    assert training_accuracy(lr, ds) <= 0.75


def test_mlp_deterministic_given_seed():
    ds = separable_dataset()
    cfg = TrainConfig(epochs=20, seed=11)
    probe = ds.instance(0)
    p1 = fit_mlp(ds, cfg, hidden_layers=(8, 4)).predict_proba(probe)
    p2 = fit_mlp(ds, TrainConfig(epochs=20, seed=11), hidden_layers=(8, 4)).predict_proba(probe)
    assert p1 == p2


def test_predict_proba_contracts():
    ds = separable_dataset()
    enc_model = fit_logistic(ds, TrainConfig(epochs=1))
    zero = LogisticModel(weights=np.zeros_like(enc_model.weights), bias=0.0,
                         encoding=enc_model.encoding, schema=ds.schema)
    assert zero.predict_proba(ds.instance(0)) == 0.5

    biased = LogisticModel(weights=np.zeros_like(enc_model.weights), bias=10.0,
                           encoding=enc_model.encoding, schema=ds.schema)
    assert biased.predict_proba(ds.instance(0)) > 0.999

    with pytest.raises(ShapeError):
        zero.predict_proba(Instance(("M", 1.0)))


def test_fingerprint_format():
    """The ``model_fingerprint`` column of ``metrics.csv``: the first 16 hex
    digits of a sha256 over the parameters' float64 bytes, a logistic model's
    weights then its bias, a net's weights then biases layer by layer."""
    encoding, schema = build_encoding(separable_dataset()), SCHEMA_1P

    def digest(*values):
        return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()[:16]

    logistic = LogisticModel(weights=np.array([0.5, -1.25, 2.0]), bias=0.75,
                             encoding=encoding, schema=schema)
    assert logistic.fingerprint() == digest(0.5, -1.25, 2.0, 0.75)
    mlp = MlpModel(layer_weights=[np.array([[1.0, -2.0], [0.25, 3.5]]), np.array([[4.0], [-0.5]])],
                   layer_biases=[np.array([0.1, -0.2]), np.array([0.3])],
                   encoding=encoding, schema=schema)
    assert mlp.fingerprint() == digest(1.0, -2.0, 0.25, 3.5, 0.1, -0.2, 4.0, -0.5, 0.3)


def test_predict_proba_in_range_property(rng):
    schema = make_schema(protected=("p",), extra=(("x", "numeric"), ("c", "categorical")))
    rows = [(str(rng.choice(["a", "b"])), float(rng.uniform(0, 5)),
             str(rng.choice(["u", "v", "w"]))) for _ in range(30)]
    ds = make_dataset(schema, rows, [int(rng.random() < 0.5) for _ in range(30)])
    model = fit_mlp(ds, TrainConfig(epochs=5, seed=2), hidden_layers=(4,))
    for _ in range(100):
        probe = Instance((str(rng.choice(["a", "b", "zz"])), float(rng.uniform(-5, 15)),
                          str(rng.choice(["u", "v", "w", "??"]))))
        assert 0.0 <= model.predict_proba(probe) <= 1.0


def central_diff(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        flat = x.ravel()
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        g.ravel()[i] = (hi - lo) / (2 * eps)
    return g


def test_gradient_checks_logistic_and_mlp(rng):
    rel_err_bound = 1e-4
    for case in range(12):
        n, d = int(rng.integers(3, 10)), int(rng.integers(1, 8))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        sw = rng.uniform(0.5, 2.0, n)
        l2 = float(rng.choice([0.0, 1e-3, 1e-2]))

        w = rng.normal(size=d)
        b = float(rng.normal())
        loss, gw, gb = logistic_loss_grad(w, b, X, y, sw, l2)
        num_w = central_diff(lambda: logistic_loss_grad(w, b, X, y, sw, l2)[0], w)
        scale = max(1.0, float(np.abs(gw).max()))
        assert np.abs(gw - num_w).max() / scale < rel_err_bound

        weights, biases = init_mlp_params(d, (4, 4), seed=case)
        loss, gws, gbs = mlp_loss_grad(weights, biases, X, y, sw, l2)
        for layer in range(len(weights)):
            num = central_diff(
                lambda: mlp_loss_grad(weights, biases, X, y, sw, l2)[0], weights[layer]
            )
            scale = max(1.0, float(np.abs(gws[layer]).max()))
            assert np.abs(gws[layer] - num).max() / scale < rel_err_bound


def test_full_batch_loss_non_increasing():
    # full-batch descent draws no batch order, so a k-epoch fit is the first k
    # epochs of a longer one and its loss is the loss after epoch k
    ds = separable_dataset()
    y = np.asarray(ds.labels, dtype=float)
    ones = np.ones(len(ds))
    l2 = 1e-4

    def logistic_loss(m, X):
        return logistic_loss_grad(m.weights, m.bias, X, y, ones, l2)[0]

    def mlp_loss(m, X):
        return mlp_loss_grad(m.layer_weights, m.layer_biases, X, y, ones, l2)[0]

    for fit, loss in ((fit_logistic, logistic_loss),
                      (lambda d, c: fit_mlp(d, c, hidden_layers=(4, 4)), mlp_loss)):
        history = []
        for epochs in range(1, 51):
            cfg = TrainConfig(learning_rate=1e-3, epochs=epochs, batch_size=None,
                              l2_penalty=l2, seed=0)
            model = fit(ds, cfg)
            history.append(loss(model, encode_matrix(ds.instances(), ds.schema, model.encoding)))
        diffs = np.diff(history)
        assert (diffs <= 1e-12).all()


def test_reweighting_hand_example():
    schema = make_schema(protected=("g",), extra=(("x", "numeric"),))
    rows = [("A", 1.0), ("A", 2.0), ("B", 3.0), ("B", 4.0)]
    ds = make_dataset(schema, rows, [1, 1, 0, 0])
    w = reweighting_weights(ds)
    # (N_A * N_1) / (N * N_A1) = (2*2)/(4*2) = 0.5, same for (B, 0)
    assert np.allclose(w, [0.5, 0.5, 0.5, 0.5])


def test_reweighting_independence_gives_unit_weights():
    schema = make_schema(protected=("g",), extra=(("x", "numeric"),))
    rows, labels = [], []
    for g, y, count in [("A", 1, 6), ("A", 0, 2), ("B", 1, 3), ("B", 0, 1)]:
        for _ in range(count):
            rows.append((g, 1.0))
            labels.append(y)
    ds = make_dataset(schema, rows, labels)
    assert np.allclose(reweighting_weights(ds), 1.0)


def test_reweighting_balances_cell_mass(rng):
    schema = make_schema(protected=("g", "h"), extra=(("x", "numeric"),))
    n = 60
    rows = [(str(rng.choice(["a", "b"])), str(rng.choice(["c", "d"])), 0.0) for _ in range(n)]
    labels = [int(rng.random() < 0.6) for _ in range(n)]
    ds = make_dataset(schema, rows, labels)
    w = reweighting_weights(ds)
    # weighted mass of each (subgroup, label) cell equals N_s*N_y/N exactly
    cells = {}
    for row, y, wi in zip(rows, labels, w):
        cells.setdefault((row[:2], y), []).append(wi)
    n_s = {}
    n_y = {}
    for row, y in zip(rows, labels):
        n_s[row[:2]] = n_s.get(row[:2], 0) + 1
        n_y[y] = n_y.get(y, 0) + 1
    for (s, y), ws in cells.items():
        assert sum(ws) == pytest.approx(n_s[s] * n_y[y] / n, abs=1e-9)

    # doubling every row leaves weights unchanged
    ds2 = make_dataset(schema, rows + rows, labels + labels)
    w2 = reweighting_weights(ds2)
    assert np.allclose(w2[:n], w)


def reference_reweighting_weights(train):
    """REW's weights as they were computed before the bincount form: three dict
    counters over the rows' protected-value tuples."""
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


@st.composite
def reweighting_cases(draw):
    """Splits over 1-3 protected attributes with 1-3 values each, often with a
    single label class or (combination, label) cells left empty."""
    k = draw(st.integers(1, 3))
    schema = make_schema(protected=tuple(f"p{i}" for i in range(k)), extra=(("x", "numeric"),))
    values = [st.sampled_from([f"v{j}" for j in range(draw(st.integers(1, 3)))])
              for _ in range(k)]
    n = draw(st.integers(1, 60))
    rows = [(*draw(st.tuples(*values)), 0.0) for _ in range(n)]
    label = st.sampled_from(draw(st.sampled_from([[0], [1], [0, 1]])))
    return make_dataset(schema, rows, [draw(label) for _ in range(n)])


@settings(max_examples=200, deadline=None)
@given(reweighting_cases())
def test_reweighting_equals_the_dict_reference_bit_for_bit(train):
    got = reweighting_weights(train)
    want = reference_reweighting_weights(train)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def reference_logistic_loss_grad(w, b, X, y, sample_w, l2):
    """Logistic regression's loss and gradients as they were computed before it
    trained as the net with no hidden layer: the independent reference for the
    zero-hidden-layer ``mlp_grad`` and for ``logistic_loss_grad``."""
    share = sample_w / sample_w.sum()
    z = X @ w + b
    loss = float(np.sum(share * (np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * np.dot(w, w))
    g = share[:, None] * (sigmoid(X @ w[:, None] + np.reshape(b, (1, 1))) - y[:, None])
    return loss, (X.T @ g + l2 * w[:, None])[:, 0], float(g.sum(axis=-2, keepdims=True)[0, 0])


def reference_descend(train, config, params, loss_grad, sample_w=None):
    """The slow descent loop that the lean one must match bit for bit: every
    step fancy-indexes its batch and computes a loss that nothing reads.
    ``sample_w`` None means all ones."""
    def batches(n, batch_size, rng):
        if batch_size is None or batch_size >= n:
            yield np.arange(n)
            return
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]

    X = encode_matrix(train.instances(), train.schema, build_encoding(train))
    y = np.asarray(train.labels, dtype=float)
    sample_w = np.ones(len(train)) if sample_w is None else sample_w
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        for idx in batches(len(train), config.batch_size, rng):
            grads = loss_grad(params, X[idx], y[idx], sample_w[idx], config.l2_penalty)
            for param, grad in zip(params, grads):
                param -= config.learning_rate * grad
    return params


@st.composite
def descent_cases(draw):
    n = draw(st.integers(2, 80))
    ragged = st.integers(2, max(2, n - 1)).filter(lambda bs: n % bs or bs >= n)
    batch_size = draw(st.one_of(st.sampled_from([1, n - 1, n, n + 5, None]), ragged))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    train = random_dataset(rng, SCHEMA_1P, n)
    train.labels[:2] = [0, 1]  # both classes, so training can start
    weights = rng.uniform(0.2, 3.0, n) if draw(st.booleans()) else None
    config = TrainConfig(learning_rate=0.1, epochs=draw(st.integers(1, 3)),
                         batch_size=batch_size, seed=seed)
    # three hidden layers and the paper's five check the flat buffers' offsets past two
    hidden = draw(st.sampled_from([(), (4,), (3, 2), (4, 3, 2), DEFAULT_HIDDEN_LAYERS]))
    return train, config, weights, hidden


@settings(max_examples=80, deadline=None)
@given(descent_cases())
def test_descent_equals_the_reference_loop_bit_for_bit(case):
    train, config, sample_w, hidden = case
    dim = build_encoding(train).dim
    if not hidden:
        [model] = fit_logistic(train, config, weights=[sample_w])
        w, b = reference_descend(train, config, [np.zeros(dim), np.zeros(())],
                                 lambda p, *a: reference_logistic_loss_grad(*p, *a)[1:], sample_w)
        assert np.array_equal(model.weights, w) and model.bias == float(b)
        return
    [model] = fit_mlp(train, config, hidden_layers=hidden, weights=[sample_w])
    k = len(hidden) + 1

    def loss_grad(params, *args):
        _, gw, gb = mlp_loss_grad(params[:k], params[k:], *args)
        return gw + gb

    weights, biases = init_mlp_params(dim, hidden, config.seed)
    params = reference_descend(train, config, weights + biases, loss_grad, sample_w)
    for got, want in zip(model.layer_weights + model.layer_biases, params):
        assert np.array_equal(got, want)


def model_params(model):
    if isinstance(model, LogisticModel):
        return [model.weights, model.bias]
    return model.layer_weights + model.layer_biases


@st.composite
def lockstep_cases(draw):
    train, config, _, hidden = draw(descent_cases())
    rng = np.random.default_rng(config.seed)
    weights = [rng.uniform(0.2, 3.0, len(train)) if draw(st.booleans()) else None
               for _ in range(draw(st.integers(1, 3)))]
    return train, config, weights, hidden


@settings(max_examples=80, deadline=None)
@given(lockstep_cases())
def test_lockstep_fit_equals_separate_fits_bit_for_bit(case):
    """A fit given K weight vectors (None among them) returns K models, each
    equal bit for bit to a separate fit with that vector alone; a None entry
    equals the fit without weights."""
    train, config, weights, hidden = case

    def fit(**kwargs):
        if not hidden:
            return fit_logistic(train, config, **kwargs)
        return fit_mlp(train, config, hidden_layers=hidden, **kwargs)

    models = fit(weights=weights)
    separate = [fit() if w is None else fit(weights=[w])[0] for w in weights]
    assert len(models) == len(separate)
    for got, want in zip(models, separate):
        assert got.fingerprint() == want.fingerprint()
        assert all(np.array_equal(a, b) for a, b in zip(model_params(got), model_params(want)))


@st.composite
def multi_fit_cases(draw):
    """1-3 splits of one pool, each with its own seed and a weights entry of K
    vectors (None among them) or None. Some land in a descent of their own: a
    split with a protected level missing (a narrower encoding), a larger
    split, or a lower learning rate."""
    _, config, _, hidden = draw(descent_cases())
    n = draw(st.integers(2, 60))
    ragged = st.integers(2, max(2, n - 1)).filter(lambda bs: n % bs or bs >= n)
    config = replace(config, batch_size=draw(st.one_of(st.sampled_from([1, n, n + 5, None]),
                                                        ragged)))
    rng = np.random.default_rng(config.seed)
    pool = random_dataset(rng, SCHEMA_1P, n + 3)
    k = draw(st.integers(1, 3))
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        variant = draw(st.sampled_from(["same", "same", "narrow", "larger", "slower"]))
        idx = rng.permutation(n + 3)[:n + 3 if variant == "larger" else n]
        rows = [pool.rows[i] for i in idx]
        if variant == "narrow":
            rows = [(rows[0][0], *row[1:]) for row in rows]
        train = make_dataset(SCHEMA_1P, rows, [0, 1, *(pool.labels[i] for i in idx[2:])])
        cfg = replace(config, seed=int(rng.integers(2**32)),
                      learning_rate=0.05 if variant == "slower" else config.learning_rate)
        weights = None if draw(st.booleans()) else [
            rng.uniform(0.2, 3.0, len(train)) if draw(st.booleans()) else None for _ in range(k)]
        entries.append((train, cfg, weights))
    return entries, hidden


@settings(max_examples=80, deadline=None)
@given(multi_fit_cases())
def test_fit_over_datasets_equals_separate_fits_bit_for_bit(case):
    """A fit given R datasets, with one config and one weights entry each,
    returns one result per dataset, each model equal bit for bit to a separate
    fit of its dataset with its weight vector alone; datasets with equal size,
    encoding width and config apart from the seed share one descent, which
    trains one set per model."""
    import fairhome.model

    entries, hidden = case

    def fit(*args, **kwargs):
        if not hidden:
            return fit_logistic(*args, **kwargs)
        return fit_mlp(*args, hidden_layers=hidden, **kwargs)

    descend, descents = fairhome.model._descend, []
    fairhome.model._descend = lambda *args: descents.append(len(args[3])) or descend(*args)
    try:
        trains, configs, weights = map(list, zip(*entries))
        results = fit(trains, configs, weights=weights)
    finally:
        fairhome.model._descend = descend
    groups = {(build_encoding(train).dim, len(train), config.learning_rate)
              for train, config, _ in entries}
    sets = sum(1 if w is None else len(w) for _, _, w in entries)
    assert len(descents) == len(groups) and sum(descents) == sets
    assert len(results) == len(entries)
    for result, (train, config, weights) in zip(results, entries):
        if weights is None:
            got, want = [result], [fit(train, config)]
        else:
            got = result
            want = [fit(train, config) if w is None else fit(train, config, weights=[w])[0]
                    for w in weights]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.fingerprint() == b.fingerprint()
            assert all(np.array_equal(x, y) for x, y in zip(model_params(a), model_params(b)))


def test_weights_are_checked_before_training(monkeypatch):
    """Every fit argument of the wrong type or shape raises a UsageError that
    names it, before any descent starts."""
    import fairhome.model

    def untrained(*args):
        raise AssertionError("a descent started")

    train = separable_dataset()
    monkeypatch.setattr(fairhome.model, "_descend", untrained)
    for bad, message in (([np.zeros(20)], "positive and finite"),
                         ([None, np.ones(19)], "length must equal the training size"),
                         ([], "at least one entry"),
                         (np.ones(20), r"one weight per training row.*got shape \(\)"),
                         ([np.ones((20, 2))], r"one weight per training row.*shape \(20, 2\)"),
                         ([np.ones(20), "x"], "weights must be numbers"),
                         ([None, ["x"] * 20], "weights must be numbers"),
                         (5, "a weights entry must be None or a sequence")):
        for fit in (fit_logistic, lambda *a, **k: fit_mlp(*a, hidden_layers=(2,), **k)):
            with pytest.raises(UsageError, match=message):
                fit(train, TrainConfig(epochs=1), weights=bad)
    for trains, configs, message in (([train, train], TrainConfig(), "config must be"),
                                     (train, [TrainConfig()], "config must be"),
                                     (None, TrainConfig(), "train must be"),
                                     ([train, "rows"], [TrainConfig()] * 2, "train must be")):
        with pytest.raises(UsageError, match=message):
            fit_logistic(trains, configs)
    with pytest.raises(UsageError, match="weights must be None or a sequence"):
        fit_logistic([train], [TrainConfig()], weights=5)
    with pytest.raises(UsageError, match="weights must be numbers"):
        check_weights(["x"])
    monkeypatch.undo()
    [model] = fit_logistic(train, TrainConfig(epochs=1), weights=[None])
    assert model.fingerprint() == fit_logistic(train, TrainConfig(epochs=1)).fingerprint()


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_gradient_only_functions_equal_loss_grad_gradients(n, d, k, seed):
    """One ``mlp_grad`` call over K stacked parameter sets and weight rows
    gives, slice for slice, the gradients of K two-dimensional loss-and-gradient
    calls: with no hidden layer, those of the reference logistic formula (and
    of ``logistic_loss_grad``); with hidden layers, those of ``mlp_loss_grad``."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, n).astype(float)
    sw = rng.uniform(0.5, 2.0, (k, n))
    share = (sw / sw.sum(axis=1, keepdims=True))[:, :, None]
    l2 = float(rng.choice([0.0, 1e-3]))
    w, b = rng.normal(size=(k, d)), rng.normal(size=k)
    (gw,), (gb,) = mlp_grad([w[:, :, None]], [b[:, None, None]], X, y[:, None], share, l2)
    assert gw.shape == (k, d, 1) and gb.shape == (k, 1, 1)
    for j in range(k):
        loss, lw, lb = reference_logistic_loss_grad(w[j], float(b[j]), X, y, sw[j], l2)
        assert np.array_equal(gw[j, :, 0], lw) and gb[j, 0, 0] == lb
        got_loss, got_w, got_b = logistic_loss_grad(w[j], float(b[j]), X, y, sw[j], l2)
        assert got_loss == pytest.approx(loss, rel=1e-12, abs=1e-12)
        assert np.array_equal(got_w, lw) and got_b == lb and got_w.shape == (d,)

    sets = [init_mlp_params(d, (5, 3), seed=seed + j) for j in range(k)]
    weights = [np.stack(layer) for layer in zip(*(ws for ws, _ in sets))]
    biases = [np.stack(layer)[:, None, :] + 0.1 for layer in zip(*(bs for _, bs in sets))]
    grads_w, grads_b = mlp_grad(weights, biases, X, y[:, None], share, l2)
    for j in range(k):
        _, lw, lb = mlp_loss_grad([W[j] for W in weights], [v[j, 0] for v in biases],
                                  X, y, sw[j], l2)
        assert all(np.array_equal(g[j], h) for g, h in zip(grads_w, lw))
        assert all(np.array_equal(g[j, 0], h) for g, h in zip(grads_b, lb))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # a diverging descent overflows
@pytest.mark.parametrize("hidden", [(), (3, 2)])
def test_int_settings_train_as_the_equal_floats(hidden):
    """``learning_rate`` and ``l2_penalty`` given as Python ints, one past the
    int64 range among them, train exactly what the equal floats train: the same
    parameters, or the same non-finite ones of a diverged descent."""
    ds = separable_dataset()

    def fit(config):
        if not hidden:
            return fit_logistic(ds, config)
        return fit_mlp(ds, config, hidden_layers=hidden)

    for lr, l2 in ((1, 0), (10**300, 0), (1, 1e-4), (10**300, 1e-4)):
        got = fit(TrainConfig(learning_rate=lr, l2_penalty=l2, epochs=2))
        want = fit(TrainConfig(learning_rate=float(lr), l2_penalty=float(l2), epochs=2))
        assert got.fingerprint() == want.fingerprint()
        finite = [all(np.isfinite(p).all() for p in m.parameters()) for m in (got, want)]
        assert finite[0] == finite[1]
        if l2:  # an L2 term times 10**300 overflows: the descent diverges
            assert finite[0] == (lr == 1)


@pytest.mark.parametrize("hidden", [(), (5, 3)])
def test_forward_and_gradients_leave_their_inputs_alone(rng, hidden):
    """The forward's bias adds and ReLUs work in place on fresh products only:
    ``mlp_forward``, both ``proba_matrix`` methods, ``mlp_grad`` and
    ``mlp_loss_grad`` leave the bytes of their rows, weights and biases as they
    were, with 2-D rows against 2-D and against stacked (K, ...) parameters."""
    n, d, k, l2 = 9, 4, 3, 1e-3
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, n).astype(float)
    sw = rng.uniform(0.5, 2.0, n)
    share = (sw / sw.sum())[:, None]
    sets = [init_mlp_params(d, hidden, seed=j) for j in range(k)]
    weights = [np.stack(layer) + rng.normal(size=(k, 1, 1)) for layer in zip(*(w for w, _ in sets))]
    biases = [np.stack(layer)[:, None, :] + rng.normal(size=(k, 1, 1))
              for layer in zip(*(b for _, b in sets))]
    one_w, one_b = [W[0] for W in weights], [b[0, 0] for b in biases]
    inputs = [X, y, sw, share, *weights, *biases]
    before = [a.tobytes() for a in inputs]
    calls = [lambda: mlp_forward(one_w, one_b, X), lambda: mlp_forward(weights, biases, X),
             lambda: MlpModel(one_w, one_b, None, None).proba_matrix(X),
             lambda: mlp_grad(one_w, one_b, X, y[:, None], share, l2),
             lambda: mlp_grad(weights, biases, X, y[:, None], share, l2),
             lambda: mlp_loss_grad(one_w, one_b, X, y, sw, l2)]
    if not hidden:
        calls.append(lambda: LogisticModel(one_w[0][:, 0], float(one_b[0][0]), None,
                                           None).proba_matrix(X))
    for call in calls:
        call()
        assert [a.tobytes() for a in inputs] == before


def test_models_of_one_lockstep_fit_share_no_memory():
    """Every model of a fit owns its parameters: none of its arrays overlaps
    another model's, across weight vectors and across datasets alike."""
    ds = separable_dataset()
    configs = [TrainConfig(epochs=1, seed=1), TrainConfig(epochs=1, seed=2)]
    weights = [[None, np.full(len(ds), 2.0)], None]
    for fit in (fit_logistic, lambda *a, **kw: fit_mlp(*a, hidden_layers=(3, 2), **kw)):
        (a, b), c = fit([ds, ds], configs, weights=weights)
        arrays = [[np.asarray(p) for p in model.parameters()] for model in (a, b, c)]
        for i, mine in enumerate(arrays):
            for theirs in arrays[i + 1:]:
                assert not any(np.shares_memory(p, q) for p in mine for q in theirs)
