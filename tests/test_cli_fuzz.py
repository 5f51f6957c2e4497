"""``fairhome run`` on mutated config and schema files: exit 0, 1 or 2, never a
traceback, and an exit of 2 says why in exactly one line.

Each example starts from the bundled german logistic config and its schema
and mutates keys, value types and bytes. Training is patched to raise, so no
example trains a model: a file that passes every check runs to failed cells
and exit 1.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fairhome.runner
from fairhome.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = {**json.loads((ROOT / "configs" / "german_logistic.json").read_text()),
          "dataset_path": str(ROOT / "fixtures" / "german_synth.csv"),
          "schema_path": "schema.json", "output_dir": "out"}
SCHEMA = json.loads((ROOT / "fixtures" / "german_synth.schema.json").read_text())
# counts that size the run; a draw above the bound runs at the bound
COUNT_BOUND = {"repetitions": 3, "fairea_reps": 3}


def _leaves(doc):
    if isinstance(doc, dict):
        return [leaf for key, value in doc.items() for leaf in [key, *_leaves(value)]]
    if isinstance(doc, list):
        return [leaf for value in doc for leaf in _leaves(value)]
    return [doc]


def _containers(doc):
    """Every JSON object and list in ``doc``, the top level first."""
    if not isinstance(doc, (dict, list)):
        return []
    values = doc.values() if isinstance(doc, dict) else doc
    return [doc, *(found for value in values for found in _containers(value))]


# the names and values the bundled files hold, so that a mutation stays near a
# valid file, and text that no file holds (a NUL, a lone surrogate and a Latin-1
# letter among it; no path separator or dot, so that no draw names a directory
# outside the run's)
KNOWN = sorted({str(leaf) for leaf in _leaves(CONFIG) + _leaves(SCHEMA)})
KEYS = st.one_of(st.sampled_from(KNOWN + ["seed"]),
                 st.text(alphabet="ab_é", max_size=4))
SCALARS = st.one_of(
    st.sampled_from(KNOWN),
    st.text(alphabet="ab é\x00\ud800", max_size=4),
    st.integers(-3, 3),
    st.sampled_from([10**400, -10**400, 1e308, -1e308, 5e-324, 0.5, 0.0, 1.0]),
    st.floats(),  # NaN and the infinities among them
    st.booleans(),
    st.none(),
)
# True one draw in ten; the first entry is the one shrinking leads to
NOW_AND_THEN = st.sampled_from([False] * 9 + [True])
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(KEYS, inner, max_size=2)), max_leaves=4)


@st.composite
def mutated(draw, doc):
    """``doc`` after 0-3 edits: a key dropped, renamed or added, or a value
    replaced, in any object or list; now and then the whole document is
    replaced by another JSON value."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(_containers(doc)))
        edit = draw(st.sampled_from(["drop", "rename", "add", "set"]))
        if isinstance(target, dict):
            if edit == "add" or not target:
                target[draw(KEYS)] = draw(VALUES)
                continue
            key = draw(st.sampled_from(sorted(target)))
            if edit == "drop":
                del target[key]
            elif edit == "rename":
                target[draw(KEYS)] = target.pop(key)
            else:
                target[key] = draw(VALUES)
        elif edit == "add" or not target:
            target.append(draw(VALUES))
        else:
            i = draw(st.integers(0, len(target) - 1))
            if edit == "drop":
                del target[i]
            else:
                target[i] = draw(VALUES)
    if draw(NOW_AND_THEN):
        doc = draw(VALUES)
    return doc


@st.composite
def file_bytes(draw, doc):
    """``doc`` as JSON text, in UTF-8, after a byte-order mark or in Latin-1,
    and now and then cut short."""
    text = json.dumps(doc, ensure_ascii=draw(st.booleans()))
    encoding = draw(st.sampled_from(["utf-8", "utf-8-sig", "latin-1"]))
    data = text.encode(encoding, errors="replace")
    if draw(NOW_AND_THEN):
        data = data[:draw(st.integers(0, len(data)))]
    return data


def _bounded(config):
    if isinstance(config, dict):
        for key, bound in COUNT_BOUND.items():
            value = config.get(key)
            if isinstance(value, int) and not isinstance(value, bool) and value > bound:
                config[key] = bound
    return config


def _no_training(*args, **kwargs):
    raise RuntimeError("no model is trained in this test")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_run_exits_0_1_or_2_on_any_config_and_schema(data):
    config = data.draw(mutated(CONFIG).map(_bounded).flatmap(file_bytes), label="config")
    schema = data.draw(mutated(SCHEMA).flatmap(file_bytes), label="schema")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        patch.setattr(fairhome.runner, "fit_logistic", _no_training)
        patch.setattr(fairhome.runner, "fit_mlp", _no_training)
        Path("config.json").write_bytes(config)
        Path("schema.json").write_bytes(schema)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["run", "--config", "config.json"])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("fairhome: error: "), lines
