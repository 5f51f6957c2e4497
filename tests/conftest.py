import numpy as np
import pytest
from hypothesis import settings

from fairhome.data import AttributeSpec, Dataset, Schema

# Property tests draw the same examples on every run, so a defect that only some
# draw shows fails every run or none. `pytest --hypothesis-profile explore`
# draws fresh examples instead, and keeps failing ones in `.hypothesis/`.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("deterministic")


def make_schema(protected=("sex", "race"), extra=(("score", "numeric"), ("job", "categorical")),
                label="outcome", favorable="yes"):
    attrs = [AttributeSpec(p, "categorical") for p in protected]
    attrs += [AttributeSpec(name, kind) for name, kind in extra]
    return Schema(attributes=tuple(attrs), protected=tuple(protected),
                  label_column=label, favorable_value=favorable)


def make_dataset(schema, rows, labels):
    fixed = []
    for row in rows:
        vals = []
        for attr, v in zip(schema.attributes, row):
            vals.append(float(v) if attr.kind == "numeric" else v)
        fixed.append(tuple(vals))
    return Dataset(schema=schema, rows=fixed, labels=list(labels))


def random_dataset(rng, schema, n, favorable_rate=0.5):
    """Rows drawn uniformly from small per-attribute domains."""
    domains = {}
    for attr in schema.attributes:
        if attr.kind == "categorical":
            k = int(rng.integers(2, 4))
            domains[attr.name] = [f"{attr.name}{i}" for i in range(k)]
    rows, labels = [], []
    for _ in range(n):
        row = []
        for attr in schema.attributes:
            if attr.kind == "categorical":
                row.append(str(rng.choice(domains[attr.name])))
            else:
                row.append(float(np.round(rng.uniform(0, 10), 3)))
        rows.append(tuple(row))
        labels.append(int(rng.random() < favorable_rate))
    return Dataset(schema=schema, rows=rows, labels=labels)


@pytest.fixture
def two_protected_schema():
    return make_schema()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
