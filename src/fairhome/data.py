"""Dataset ingestion, attribute schema, protected domains, encoding, and splitting."""

from __future__ import annotations

import csv
import json
import math
import typing
import warnings
from dataclasses import MISSING, dataclass, fields
from functools import cache, cached_property
from itertools import accumulate, repeat
from operator import itemgetter
from numbers import Integral, Real

import numpy as np

from .errors import DataError, SchemaError, ShapeError, UsageError

CATEGORICAL = "categorical"
NUMERIC = "numeric"
# what each annotated type accepts from JSON: a number or a list, not a bool
_ACCEPTED = {float: Real, int: Integral, tuple: (tuple, list)}


def read_json(path):
    """The JSON value in the file ``path``, read as ``read_table`` reads a CSV; a
    UsageError names the path when the file cannot be opened or is not JSON."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"{path}: {e.strerror}") from None
    except ValueError as e:  # not JSON, or not UTF-8 text
        raise UsageError(f"{path}: not a JSON file ({e})") from None


def check_keys(doc, cls, where: str) -> dict:
    """``doc``; UsageError, naming it as ``where``, unless it is a JSON object that
    holds every field of the dataclass ``cls`` without a default and no other key."""
    if not isinstance(doc, dict):
        raise UsageError(f"{where} must be a JSON object, not {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.default_factory is MISSING and f.name not in doc]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise UsageError(f"{problem} {where} key(s) {keys}")
    return doc


_type_hints = cache(typing.get_type_hints)  # resolved once per dataclass


def check_field_types(obj) -> None:
    """UsageError naming the first field of the dataclass ``obj`` whose value
    does not have its annotated type; a bool passes only for a bool."""
    for name, hint in _type_hints(type(obj)).items():
        value = getattr(obj, name)
        if typing.get_origin(hint) is tuple:  # tuple[T, ...]: a tuple or list of T
            item = typing.get_args(hint)[0]
            ok = isinstance(value, (tuple, list)) and all(isinstance(v, item) for v in value)
            expected = "a list of " + ("strings" if item is str else "JSON objects")
        else:
            kinds = tuple(_ACCEPTED.get(k, k) for k in typing.get_args(hint) or (hint,))
            ok = isinstance(value, bool) == (bool in kinds) and isinstance(value, kinds)
            expected = getattr(hint, "__name__", hint)
        if not ok:
            raise UsageError(f"{name} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    kind: str

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise SchemaError(f"unknown kind {self.kind!r} for attribute {self.name!r}")


@dataclass(frozen=True)
class Schema:
    """Attribute names/kinds, the protected subset, and the favorable-label mapping.

    Protected attributes must be categorical; the label column is separate from
    the attributes. Raw labels equal to ``favorable_value`` map to decision 1.
    """

    attributes: tuple[AttributeSpec, ...]
    protected: tuple[str, ...]
    label_column: str
    favorable_value: str

    def __post_init__(self):
        check_field_types(self)
        for name in ("attributes", "protected"):  # a JSON list becomes a tuple
            object.__setattr__(self, name, tuple(getattr(self, name)))
        kinds = {a.name: a.kind for a in self.attributes}
        if len(kinds) != len(self.attributes):
            raise SchemaError("duplicate attribute names in schema")
        if not self.protected:
            raise SchemaError("schema needs at least one protected attribute")
        if len(set(self.protected)) != len(self.protected):
            raise SchemaError("duplicate names in protected list")
        for p in self.protected:
            if p not in kinds:
                raise SchemaError(f"protected attribute {p!r} is not a schema attribute")
        if self.label_column in kinds:
            raise SchemaError(f"label column {self.label_column!r} must not be an attribute")
        for p in self.protected:
            if kinds[p] != CATEGORICAL:
                raise SchemaError(f"protected attribute {p!r} must be categorical")

    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def index_of(self, name: str) -> int:
        for i, a in enumerate(self.attributes):
            if a.name == name:
                return i
        raise SchemaError(f"unknown attribute {name!r}")

    @cached_property  # the schema is frozen; computed once, on first use
    def protected_indices(self) -> tuple[int, ...]:
        return tuple(self.index_of(p) for p in self.protected)

    def protected_codes(self, rows) -> tuple[tuple, np.ndarray]:
        """The distinct protected value tuples (combinations) of the sequence ``rows``, in
        order of first appearance, and each row's position among them as an intp array."""
        numbers: dict = {}
        codes = [numbers.setdefault(combo, len(numbers))
                 for combo in zip(*(map(itemgetter(i), rows) for i in self.protected_indices))]
        return tuple(numbers), np.array(codes, dtype=np.intp)

    @classmethod
    def from_json(cls, path) -> "Schema":
        """The schema in the JSON file ``path``, whose path its SchemaErrors name."""
        doc = read_json(path)
        try:
            entries = check_keys(doc, cls, "schema")["attributes"]
            if isinstance(entries, list) and all(isinstance(a, dict) for a in entries):
                doc["attributes"] = [AttributeSpec(**check_keys(a, AttributeSpec, "attribute"))
                                     for a in entries]
            value = doc["favorable_value"]
            if isinstance(value, Real) and not isinstance(value, bool):  # stands for its text
                doc["favorable_value"] = str(value)
            return cls(**doc)
        except (SchemaError, UsageError) as e:
            raise SchemaError(f"{path}: {e}") from None


@dataclass(frozen=True)
class Instance:
    """One input row: categorical cells are str, numeric cells are float."""

    values: tuple


@dataclass
class Dataset:
    schema: Schema
    rows: list[tuple]
    labels: list[int]

    def __len__(self) -> int:
        return len(self.rows)

    def instance(self, i: int) -> Instance:
        return Instance(self.rows[i])

    def instances(self) -> list[Instance]:
        return [Instance(r) for r in self.rows]


def _parse_cell(raw: str, attr: AttributeSpec, where: str):
    if raw == "":
        raise DataError(f"{where}: missing value for {attr.name!r}")
    if attr.kind == NUMERIC:
        try:
            value = float(raw)
        except ValueError:
            raise DataError(f"{where}: non-numeric cell {raw!r} for {attr.name!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{where}: non-finite value for {attr.name!r}")
        return value
    return raw


def read_table(path, required=()):
    """Yield a headered CSV's header, then ``("PATH: line N", cells)`` for each
    row, skipping blank lines. Raises DataError for an empty file or a row whose
    cell count differs from the header's, and SchemaError for a header that
    repeats a column or lacks any of ``required``. The header comes before any
    row is read, so a caller's own header check runs first. The file must be
    UTF-8 text (DataError otherwise); a leading byte-order mark is dropped."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as e:
        raise DataError(f"{path}: {e.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        lines = filter(None, reader)
        try:
            header = next(lines, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            duplicates = sorted({name for name in header if header.count(name) > 1})
            if duplicates:
                raise SchemaError(f"{path}: duplicate header columns {duplicates}")
            lacking = [c for c in required if c not in header]
            if lacking:
                raise SchemaError(f"{path}: header lacks column(s) {lacking}")
            yield header
            for cells in lines:
                where = f"{path}: line {reader.line_num}"
                if len(cells) != len(header):
                    raise DataError(f"{where}: expected {len(header)} cells, got {len(cells)}")
                yield where, cells
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None


def load_dataset(path, schema: Schema) -> Dataset:
    """Read a headered CSV into a Dataset, binarizing labels against the schema.

    Beyond ``read_table``'s checks: SchemaError unless the header holds exactly
    the schema attributes and the label column, DataError for a bad cell, no data
    rows or a label column with more than one non-favorable value (multi-class)."""
    lines = read_table(path)
    header = next(lines)
    expected = set(schema.names()) | {schema.label_column}
    if set(header) != expected:
        raise SchemaError(f"{path}: header mismatch (missing {sorted(expected - set(header))}, "
                          f"unexpected {sorted(set(header) - expected)})")
    attribute_cols = [(header.index(a.name), a) for a in schema.attributes]
    label_col = header.index(schema.label_column)
    rows: list[tuple] = []
    raw_labels: list[str] = []
    for where, cells in lines:
        rows.append(tuple(_parse_cell(cells[i], a, where) for i, a in attribute_cols))
        raw_labels.append(cells[label_col])
    if not rows:
        raise DataError(f"{path}: no data rows")
    non_favorable = {v for v in raw_labels if v != schema.favorable_value}
    if len(non_favorable) > 1:
        raise DataError(
            f"{path}: label column has multiple non-favorable values {sorted(non_favorable)}; "
            "binary labels required"
        )
    labels = [1 if v == schema.favorable_value else 0 for v in raw_labels]
    return Dataset(schema=schema, rows=rows, labels=labels)


def check_test_fraction(test_fraction) -> None:
    """UsageError unless 0 < test_fraction < 1; NaN fails both comparisons."""
    if not 0.0 < test_fraction < 1.0:
        raise UsageError(f"test_fraction must be in (0, 1), got {test_fraction}")


def check_seed(seed, name: str = "seed") -> None:
    """UsageError unless ``seed`` is an integer >= 0; a bool is not one."""
    if isinstance(seed, bool) or not isinstance(seed, Integral):
        raise UsageError(f"{name} must be int, got {seed!r}")
    if seed < 0:
        raise UsageError(f"{name} must be >= 0, got {seed}")


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded disjoint train/test partition; test gets floor(n * fraction) rows."""
    check_test_fraction(test_fraction)
    check_seed(seed)
    n = len(dataset)
    if n == 0:
        raise UsageError("cannot split an empty dataset")
    n_test = int(n * test_fraction)
    if n_test == 0:
        raise UsageError(f"test_fraction {test_fraction} leaves no test rows out of {n}")
    order = np.random.default_rng(seed).permutation(n)
    test_idx, train_idx = order[:n_test], order[n_test:]

    def take(idx):
        return Dataset(
            schema=dataset.schema,
            rows=[dataset.rows[i] for i in idx],
            labels=[dataset.labels[i] for i in idx],
        )

    return take(train_idx), take(test_idx)


@dataclass(frozen=True)
class ProtectedDomains:
    """Observed value domains of the protected attributes in a training set.

    ``joint_combos`` holds only combinations observed in training, which is
    what keeps generated mutants inside the valid input domain.
    """

    schema: Schema
    joint_combos: tuple

    def combo_of(self, instance: Instance) -> tuple:
        return tuple(instance.values[i] for i in self.schema.protected_indices)


def protected_domains(train: Dataset) -> ProtectedDomains:
    if len(train) == 0:
        raise UsageError("cannot extract protected domains from an empty dataset")
    schema = train.schema
    combos = tuple(sorted(schema.protected_codes(train.rows)[0]))
    for name, values in zip(schema.protected, zip(*combos)):
        if len(set(values)) == 1:
            warnings.warn(
                f"protected attribute {name!r} has a single observed value; "
                "no mutation is possible along it",
                stacklevel=2,
            )
    return ProtectedDomains(schema=schema, joint_combos=combos)


@dataclass(frozen=True)
class SubgroupKey:
    """One value per protected attribute, identifying an intersectional subgroup."""

    assignment: tuple

    def label(self) -> str:
        return ",".join(f"{a}={v}" for a, v in self.assignment)


@dataclass(frozen=True)
class CategoricalBlock:
    name: str
    levels: tuple
    offsets: dict  # value -> position within the block
    width = property(lambda self: len(self.levels))  # its one-hot cells


@dataclass(frozen=True)
class NumericBlock:
    name: str
    lo: float
    hi: float
    width = 1  # its one scaled cell

    def scale(self, values) -> np.ndarray:
        """The cells ``encode`` gives the numeric ``values``, bit for bit: min-max scaled
        (a zero span divides by inf, giving 0), then clamped comparison for comparison as
        its min(1.0, max(0.0, scaled)) is, so an overflow to +-inf or a NaN maps alike."""
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = (np.asarray(values, dtype=float) - self.lo) / (self.hi - self.lo or np.inf)
        return np.where(scaled > 0.0, np.where(scaled < 1.0, scaled, 1.0), 0.0)


@dataclass(frozen=True)
class EncodingMap:
    """Training-derived encoder: one-hot categorical blocks, min-max scaled numerics."""

    blocks: tuple

    @cached_property  # the encoding is frozen, so computed once
    def dim(self) -> int:
        return sum(b.width for b in self.blocks)

    @cached_property  # each block's first column
    def starts(self) -> tuple[int, ...]:
        return tuple(accumulate((b.width for b in self.blocks[:-1]), initial=0))

    @cached_property  # (protected indices, joint combos) -> member_template's pair
    def _member_templates(self) -> dict:
        return {}

    def member_template(self, protected_indices: tuple, combos: tuple) -> tuple:
        """The read-only (1 + C, dim) ``rewrite`` mask and ``template`` of an input's
        members for C joint ``combos`` of the attributes at ``protected_indices``: row 0,
        the input, rewrites nothing; row 1 + j sets each protected block to the one-hot
        cells of ``combos[j]`` (all zero for a level the encoding lacks). Built once per
        key and kept with the encoding."""
        key = (protected_indices, combos)
        if (pair := self._member_templates.get(key)) is None:
            rewrite = np.zeros((1 + len(combos), self.dim), dtype=bool)
            template = np.zeros(rewrite.shape)
            for a, i in enumerate(protected_indices):
                block, start = self.blocks[i], self.starts[i]
                rewrite[1:, start:start + block.width] = True
                for c, combo in enumerate(combos, start=1):
                    j = block.offsets.get(combo[a])
                    if j is not None:
                        template[c, start + j] = 1.0
            rewrite.flags.writeable = template.flags.writeable = False
            pair = self._member_templates[key] = rewrite, template
        return pair


def build_encoding(train: Dataset) -> EncodingMap:
    if len(train) == 0:
        raise UsageError("cannot build an encoding from an empty dataset")
    blocks = []
    for i, attr in enumerate(train.schema.attributes):
        column = [row[i] for row in train.rows]
        if attr.kind == CATEGORICAL:
            levels = tuple(sorted(set(column)))
            blocks.append(
                CategoricalBlock(attr.name, levels, {v: j for j, v in enumerate(levels)})
            )
        else:
            blocks.append(NumericBlock(attr.name, min(column), max(column)))
    return EncodingMap(blocks=tuple(blocks))


def check_instance(instance: Instance, schema: Schema) -> None:
    """ShapeError unless ``instance`` has one value per schema attribute;
    DataError for a numeric value that is not a finite number."""
    if len(instance.values) != len(schema.attributes):
        raise ShapeError(f"instance has {len(instance.values)} attributes, "
                         f"schema expects {len(schema.attributes)}")
    for value, attr in zip(instance.values, schema.attributes):
        if attr.kind != NUMERIC:
            continue
        try:
            finite = math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int past the float range
            finite = False
        if not finite:
            raise DataError(f"{attr.name!r} needs a finite number, got {value!r}")


def encode(instance: Instance, schema: Schema, encoding: EncodingMap) -> np.ndarray:
    """Encode one instance after ``check_instance``; unseen categorical levels
    become an all-zero block, numerics are clamped to the training range."""
    check_instance(instance, schema)
    out = np.zeros(encoding.dim)
    for value, block, start in zip(instance.values, encoding.blocks, encoding.starts):
        if isinstance(block, CategoricalBlock):
            j = block.offsets.get(value)
            if j is not None:
                out[start + j] = 1.0
        else:
            span = block.hi - block.lo
            scaled = 0.0 if span == 0 else (float(value) - block.lo) / span
            out[start] = min(1.0, max(0.0, scaled))
    return out


def check_instances(instances, schema: Schema) -> list:
    """``check_instance`` for every instance, a column at a time: first every
    row's width, then each numeric column. On any failure the rows are checked
    again one by one, so the first bad instance raises what it raises alone.
    Returns the values as one tuple per attribute."""
    try:
        rows = [inst.values for inst in instances]
        if set(map(len, rows)) == {len(schema.attributes)}:
            columns = list(zip(*rows))
            if all(all(map(math.isfinite, column))
                   for column, attr in zip(columns, schema.attributes) if attr.kind == NUMERIC):
                return columns
    except (TypeError, ValueError, OverflowError):  # a value that is not a float
        pass
    for instance in instances:
        check_instance(instance, schema)
    return list(zip(*(inst.values for inst in instances)))


def encode_matrix(instances, schema: Schema, encoding: EncodingMap) -> np.ndarray:
    """The (N, dim) rows ``encode`` gives N instances, bit for bit. One instance
    goes through ``encode``; a batch is checked and built a column at a time."""
    n = len(instances)
    if n < 2:
        return np.array([encode(inst, schema, encoding) for inst in instances]).reshape(
            n, encoding.dim)
    out = np.zeros((n, encoding.dim))
    columns = check_instances(instances, schema)
    for column, block, start in zip(columns, encoding.blocks, encoding.starts):
        if isinstance(block, CategoricalBlock):
            hot = np.fromiter(map(block.offsets.get, column, repeat(-1)), dtype=np.intp, count=n)
            rows = np.flatnonzero(hot >= 0)  # an unseen level leaves its row's block all zero
            out[rows, start + hot[rows]] = 1.0
        else:
            out[:, start] = block.scale(column)
    return out
