import codecs
import csv
import errno
import io
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairhome.data import (
    AttributeSpec,
    Dataset,
    Instance,
    Schema,
    build_encoding,
    check_instance,
    check_instances,
    encode,
    encode_matrix,
    load_dataset,
    protected_domains,
    read_json,
    read_table,
    split,
)
from fairhome.errors import DataError, SchemaError, UsageError

from conftest import make_dataset, make_schema

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n")


HEADER = ["sex", "race", "score", "job", "outcome"]


def test_load_maps_labels(tmp_path, two_protected_schema):
    p = tmp_path / "d.csv"
    write_csv(p, ["sex", "race", "score", "job", "income"], [
        ["M", "W", 1.0, "a", ">50k"],
        ["F", "W", 2.0, "a", "<=50k"],
        ["M", "N", 3.0, "b", "<=50k"],
        ["F", "N", 4.0, "b", ">50k"],
    ])
    schema = make_schema(label="income", favorable=">50k")
    ds = load_dataset(p, schema)
    assert ds.labels == [1, 0, 0, 1]
    assert ds.rows[0] == ("M", "W", 1.0, "a")
    # blank lines, before the header and between rows, are skipped
    lines = p.read_text().splitlines()
    p.write_text("\n" + lines[0] + "\n\n" + lines[1] + "\r\n\r\n\n"
                 + "\n\n".join(lines[2:]) + "\n\n")
    assert load_dataset(p, schema) == ds


def test_load_missing_protected_column(tmp_path, two_protected_schema):
    p = tmp_path / "d.csv"
    write_csv(p, ["sex", "score", "job", "outcome"], [["M", 1.0, "a", "yes"]])
    with pytest.raises(SchemaError):
        load_dataset(p, two_protected_schema)


def test_load_rejects_duplicate_header_columns(tmp_path, two_protected_schema):
    p = tmp_path / "d.csv"
    write_csv(p, ["sex", "sex", "race", "score", "job", "outcome"],
              [["M", "F", "W", 1.0, "a", "yes"]])
    with pytest.raises(SchemaError, match=r"duplicate header columns \['sex'\]"):
        load_dataset(p, two_protected_schema)


def test_load_rejects_multiclass_and_bad_cells(tmp_path, two_protected_schema):
    p = tmp_path / "d.csv"
    write_csv(p, HEADER, [["M", "W", 1.0, "a", "yes"], ["F", "W", 2.0, "a", "no"],
                          ["M", "N", 3.0, "b", "maybe"]])
    with pytest.raises(DataError):
        load_dataset(p, two_protected_schema)

    write_csv(p, HEADER, [["M", "W", "inf", "a", "yes"]])
    with pytest.raises(DataError):
        load_dataset(p, two_protected_schema)

    write_csv(p, HEADER, [["M", "W", "", "a", "yes"]])
    with pytest.raises(DataError):
        load_dataset(p, two_protected_schema)

    write_csv(p, HEADER, [["M", "W", "1.0", "a"]])
    with pytest.raises(DataError):
        load_dataset(p, two_protected_schema)


def _csv_reader_loop(path, required):
    """What a plain ``csv.reader`` loop over ``path`` finds: the header, then
    (where, cells) per non-blank row, or the first error it meets."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for cells in reader:
            if not cells:
                continue
            if not out:
                repeated = sorted({c for c in cells if cells.count(c) > 1})
                if repeated:
                    raise SchemaError(f"{path}: duplicate header columns {repeated}")
                lacking = [c for c in required if c not in cells]
                if lacking:
                    raise SchemaError(f"{path}: header lacks column(s) {lacking}")
                out.append(cells)
            elif len(cells) != len(out[0]):
                raise DataError(f"{path}: line {reader.line_num}: "
                                f"expected {len(out[0])} cells, got {len(cells)}")
            else:
                out.append((f"{path}: line {reader.line_num}", cells))
    if not out:
        raise DataError(f"{path}: empty file")
    return out


CELL_TEXT = st.text(alphabet=["a", "b", ",", '"', "\n", "\r", " ", "é"], max_size=4)


@settings(deadline=None, max_examples=80)
@given(st.lists(CELL_TEXT, min_size=1, max_size=4, unique=True), st.data())
def test_read_table_yields_what_a_csv_reader_loop_finds(tmp_path_factory, header, data):
    """Rows written by ``csv.writer`` (commas, quotes, newlines and empty cells),
    blank lines at random places, and maybe a ragged row, a repeated header
    column or a missing required one: ``read_table`` yields what a plain
    ``csv.reader`` loop finds, or raises its first error."""
    width = len(header)
    rows = data.draw(st.lists(st.lists(CELL_TEXT, min_size=width, max_size=width), max_size=6))
    if rows and data.draw(st.sampled_from([False, True])):  # ragged rows
        for i in data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2)):
            rows[i] = rows[i][:-1] if data.draw(st.booleans()) else [*rows[i], "x"]
    if data.draw(st.sampled_from([False, False, False, True])):
        header = [*header, data.draw(st.sampled_from(header))]
    required = data.draw(st.lists(st.sampled_from(header), max_size=2))
    if data.draw(st.sampled_from([False, False, False, True])):
        required.append("absent")
    chunks = []
    for row in [header, *rows]:
        buffer = io.StringIO()
        csv.writer(buffer).writerow(row)
        chunks.append(buffer.getvalue())
    for _ in range(data.draw(st.integers(0, 3))):  # blank lines between records
        chunks.insert(data.draw(st.integers(0, len(chunks))), data.draw(
            st.sampled_from(["\n", "\r\n"])))
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_text("".join(chunks), encoding="utf-8", newline="")
    try:
        expected = _csv_reader_loop(path, required)
    except (SchemaError, DataError) as e:
        with pytest.raises(type(e)) as raised:
            list(read_table(path, required))
        assert str(raised.value) == str(e)
    else:
        assert list(read_table(path, required)) == expected


def test_read_table_reads_utf8_text_and_drops_a_byte_order_mark(tmp_path):
    """A leading UTF-8 byte-order mark is dropped, so such a file reads as the
    same file without it. Bytes that are not UTF-8, in the header or in a row
    far past the first read, are a DataError naming the path."""
    schema = make_schema()
    p = tmp_path / "d.csv"
    plain = "\n".join([",".join(HEADER), *["M,W,1.0,é,yes", "F,N,2.0,b,no"] * 500, ""]).encode()
    p.write_bytes(plain)
    table, ds = list(read_table(p, required=("sex",))), load_dataset(p, schema)
    p.write_bytes(codecs.BOM_UTF8 + plain)
    assert list(read_table(p, required=("sex",))) == table
    assert load_dataset(p, schema) == ds
    for text in (plain.replace("é".encode(), "é".encode("latin-1"), 1),  # first row
                 plain.replace(b"race", b"r\xe9ce", 1),  # the header
                 plain + "M,W,3.0,é,yes\n".encode("latin-1"),  # the last row
                 codecs.BOM_UTF8 + plain + b"\xff\n"):
        p.write_bytes(text)
        for read in (lambda: list(read_table(p)), lambda: load_dataset(p, schema)):
            with pytest.raises(DataError) as raised:
                read()
            assert str(raised.value) == f"{p}: not UTF-8 text"


def test_read_table_and_read_json_name_a_path_they_cannot_open(tmp_path):
    message = f"{tmp_path}: {os.strerror(errno.EISDIR)}"
    with pytest.raises(DataError) as raised:
        list(read_table(tmp_path))
    assert str(raised.value) == message
    with pytest.raises(UsageError) as raised:
        read_json(tmp_path)
    assert str(raised.value) == message


def test_schema_from_json_drops_a_byte_order_mark_and_reads_a_number_as_its_text(tmp_path):
    """A leading byte-order mark is dropped; a number given as the favorable
    value stands for its text; a file that is not UTF-8 is not a JSON file."""
    doc = json.loads((FIXTURES / "german_synth.schema.json").read_text())
    p = tmp_path / "s.json"
    p.write_bytes(codecs.BOM_UTF8 + json.dumps(doc).encode())
    assert Schema.from_json(p) == Schema.from_json(FIXTURES / "german_synth.schema.json")
    for value, text in ((1, "1"), (0.5, "0.5"), ("good", "good")):
        p.write_text(json.dumps({**doc, "favorable_value": value}))
        assert Schema.from_json(p).favorable_value == text
    latin1 = json.dumps({**doc, "favorable_value": "gööd"}, ensure_ascii=False).encode("latin-1")
    p.write_bytes(latin1)
    with pytest.raises(UsageError, match=f"^{re.escape(str(p))}: not a JSON file"):
        Schema.from_json(p)


def test_schema_validation():
    with pytest.raises(SchemaError):  # protected attr must exist
        Schema(attributes=(AttributeSpec("sex", "categorical"),), protected=("sex", "ghost"),
               label_column="y", favorable_value="1")
    with pytest.raises(SchemaError):  # protected attr must be categorical
        Schema(attributes=(AttributeSpec("age", "numeric"),), protected=("age",),
               label_column="y", favorable_value="1")
    with pytest.raises(SchemaError):  # label must not be an attribute
        make_schema(label="score")
    with pytest.raises(SchemaError):  # at least one protected attribute
        Schema(attributes=(AttributeSpec("a", "categorical"),), protected=(),
               label_column="y", favorable_value="1")


def test_split_sizes_and_determinism(two_protected_schema, rng):
    rows = [("M", "W", float(i), "a") for i in range(10)]
    ds = make_dataset(two_protected_schema, rows, [i % 2 for i in range(10)])
    train, test = split(ds, 0.3, seed=7)
    assert (len(train), len(test)) == (7, 3)
    train2, test2 = split(ds, 0.3, seed=7)
    assert train.rows == train2.rows and test.rows == test2.rows
    # partition: disjoint and exhaustive
    assert sorted(train.rows + test.rows) == sorted(ds.rows)

    with pytest.raises(UsageError):
        split(ds, 1.5, seed=0)
    with pytest.raises(UsageError, match=r"test_fraction 0.09 leaves no test rows out of 10"):
        split(ds, 0.09, seed=0)


def test_split_different_seeds_differ(two_protected_schema, rng):
    rows = [("M", "W", float(i), "a") for i in range(1000)]
    ds = make_dataset(two_protected_schema, rows, [i % 2 for i in range(1000)])
    _, t7 = split(ds, 0.3, seed=7)
    _, t8 = split(ds, 0.3, seed=8)
    assert t7.rows != t8.rows


def test_protected_domains_counts(two_protected_schema):
    rows = [("M", "W", 1.0, "a"), ("F", "W", 1.0, "a"),
            ("M", "N", 1.0, "a"), ("F", "N", 1.0, "a")]
    ds = make_dataset(two_protected_schema, rows, [1, 0, 1, 0])
    dom = protected_domains(ds)
    assert dom.per_attribute == {"sex": ("F", "M"), "race": ("N", "W")}
    assert len(dom.joint_combos) == 4

    # unobserved combo shrinks the joint set below the Cartesian size
    ds2 = make_dataset(two_protected_schema, rows[:3], [1, 0, 1])
    dom2 = protected_domains(ds2)
    assert len(dom2.joint_combos) == 3


def test_protected_domains_single_value_warns(two_protected_schema):
    rows = [("M", "W", 1.0, "a"), ("M", "N", 1.0, "a")]
    ds = make_dataset(two_protected_schema, rows, [1, 0])
    with pytest.warns(UserWarning, match="single observed value"):
        protected_domains(ds)


def test_joint_combos_in_lexicographic_order(two_protected_schema):
    rows = [("M", "W", 1.0, "a"), ("F", "W", 1.0, "a"),
            ("M", "N", 1.0, "a"), ("F", "N", 1.0, "a")]
    ds = make_dataset(two_protected_schema, rows, [1, 0, 1, 0])
    combos = protected_domains(ds).joint_combos
    assert combos == (("F", "N"), ("F", "W"), ("M", "N"), ("M", "W"))

    # three binary attributes, one combo unobserved
    schema3 = make_schema(protected=("a", "b", "c"), extra=(("x", "numeric"),))
    observed = [(i, j, k) for i in "01" for j in "01" for k in "01"][:-1]
    ds3 = make_dataset(schema3, [(*combo, 1.0) for combo in reversed(observed)],
                       [1] * len(observed))
    assert protected_domains(ds3).joint_combos == tuple(observed)


def test_domains_reconstruction_property(rng):
    # per-attribute sets are exactly the observed distinct values
    schema = make_schema(protected=("p1", "p2"), extra=(("x", "numeric"),))
    for _ in range(20):
        n = int(rng.integers(2, 40))
        rows = [(f"v{rng.integers(0, 3)}", f"w{rng.integers(0, 3)}",
                 float(rng.uniform())) for _ in range(n)]
        ds = make_dataset(schema, rows, [int(rng.random() < 0.5) for _ in range(n)])
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dom = protected_domains(ds)
        assert set(dom.per_attribute["p1"]) == {r[0] for r in rows}
        assert set(dom.per_attribute["p2"]) == {r[1] for r in rows}
        assert set(dom.joint_combos) == {(r[0], r[1]) for r in rows}
        assert len(dom.joint_combos) <= len(dom.per_attribute["p1"]) * len(dom.per_attribute["p2"])


def test_encode_one_hot_and_scaling(two_protected_schema):
    rows = [("M", "W", 0.0, "a"), ("F", "N", 10.0, "b")]
    ds = make_dataset(two_protected_schema, rows, [1, 0])
    enc = build_encoding(ds)
    v = encode(ds.instance(0), two_protected_schema, enc)
    # sex block levels are (F, M): M -> [0, 1]
    assert v[:2].tolist() == [0.0, 1.0]
    assert v[enc.dim - 3] == 0.0  # score at training min
    v2 = encode(ds.instance(1), two_protected_schema, enc)
    assert v2[enc.dim - 3] == 1.0  # score at training max

    # unseen categorical level -> all-zero block; numeric clamps into [0, 1]
    from fairhome.data import Instance

    probe = Instance(("X", "W", 99.0, "zzz"))
    v3 = encode(probe, two_protected_schema, enc)
    assert v3[:2].tolist() == [0.0, 0.0]
    assert v3[enc.dim - 3] == 1.0
    assert v3[-2:].tolist() == [0.0, 0.0]


def test_encode_injective_on_training_domain(two_protected_schema):
    rows = [("M", "W", 0.0, "a"), ("F", "N", 5.0, "b"), ("M", "N", 10.0, "c")]
    ds = make_dataset(two_protected_schema, rows, [1, 0, 1])
    enc = build_encoding(ds)
    seen = set()
    for inst in ds.instances():
        key = tuple(encode(inst, two_protected_schema, enc))
        assert key not in seen
        seen.add(key)


NUMBERS = st.one_of(st.floats(-1e6, 1e6), st.integers(-10**6, 10**6), st.booleans())


@st.composite
def encoding_cases(draw):
    """A schema of one protected and up to five other attributes, an encoding
    built from a few rows (so numeric spans are often zero) and probe rows with
    unseen levels and numerics of any type, in or out of the training range."""
    kinds = draw(st.lists(st.sampled_from(["categorical", "numeric"]), min_size=1, max_size=5))
    attrs = (AttributeSpec("p", "categorical"),
             *(AttributeSpec(f"a{i}", kind) for i, kind in enumerate(kinds)))
    schema = Schema(attributes=attrs, protected=("p",), label_column="y", favorable_value="1")

    def rows(levels, numbers, count):
        return [tuple(draw(st.sampled_from(levels)) if a.kind == "categorical" else draw(numbers)
                      for a in attrs) for _ in range(count)]

    train = rows("ab", st.one_of(st.sampled_from([0, 2.5, True]), NUMBERS), draw(st.integers(1, 4)))
    encoding = build_encoding(Dataset(schema=schema, rows=train, labels=[]))
    probes = rows("abc", NUMBERS, draw(st.sampled_from([0, 1, 2, draw(st.integers(3, 12))])))
    return schema, encoding, [Instance(r) for r in probes]


def _signed_zero_case():
    """-0.0 at a training minimum of 0 scales to -0.0, which encode's clamp makes 0.0."""
    schema = make_schema(protected=("p",), extra=(("x", "numeric"),))
    encoding = build_encoding(Dataset(schema=schema, rows=[("a", 0), ("b", 2.5)], labels=[]))
    return schema, encoding, [Instance(("a", -0.0)), Instance(("c", True)), Instance(("b", 9))]


def _overflow_case():
    """Scaling x = +-1e6 by a span of 5e-324 overflows to +-inf, and a span past the
    float range gives inf / inf = NaN; both clamp, as in encode, without a warning."""
    schema = make_schema(protected=("p",), extra=(("x", "numeric"), ("z", "numeric")))
    train = [("a", 0.0, -1.7e308), ("b", 5e-324, 1.7e308)]
    encoding = build_encoding(Dataset(schema=schema, rows=train, labels=[]))
    return schema, encoding, [Instance(("a", 1e6, 1.7e308)), Instance(("c", -1e6, -1.7e308))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None)
@given(encoding_cases())
@example(_signed_zero_case())
@example(_overflow_case())
def test_encode_matrix_equals_stacked_encode_rows(case):
    schema, encoding, probes = case
    X = encode_matrix(probes, schema, encoding)
    rows = [encode(inst, schema, encoding) for inst in probes]
    reference = np.stack(rows) if rows else np.zeros((0, encoding.dim))
    assert X.shape == reference.shape and X.dtype == reference.dtype
    assert X.tobytes() == reference.tobytes()


BAD_CELLS = ("3.0", None, float("nan"), float("inf"), float("-inf"), 10**400)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 12), st.lists(st.tuples(
    st.integers(0, 11), st.sampled_from(["short", "long", "x0", "x1"]),
    st.sampled_from(BAD_CELLS)), min_size=1, max_size=3))
def test_batch_raises_what_the_first_bad_row_raises(n, faults):
    """Bad rows at random positions: the batch check raises the type and message
    of the first row that ``check_instance`` rejects."""
    schema = make_schema(protected=("p",), extra=(("x0", "numeric"), ("c", "categorical"),
                                                  ("x1", "numeric")))
    rows = [["a", float(i), "u", 1.5] for i in range(n)]
    for position, fault, cell in faults:
        row = rows[position % n]
        if len(row) != 4:  # already ragged: a second width fault could undo the first
            continue
        if fault == "short":
            row.pop()
        elif fault == "long":
            row.append("extra")
        else:
            row[1 if fault == "x0" else 3] = cell
    batch = [Instance(tuple(r)) for r in rows]
    encoding = build_encoding(Dataset(schema=schema, rows=[("a", 0.0, "u", 1.0)], labels=[]))
    first = None
    for inst in batch:
        try:
            check_instance(inst, schema)
        except Exception as e:
            first = e
            break
    assert first is not None
    for check in (check_instances, lambda b, s: encode_matrix(b, s, encoding)):
        with pytest.raises(type(first)) as raised:
            check(batch, schema)
        assert str(raised.value) == str(first)
