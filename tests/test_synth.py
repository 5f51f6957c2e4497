from pathlib import Path

import numpy as np
import pytest

from fairhome.data import Schema, load_dataset, protected_domains
from fairhome.synth import compas_like_rows, german_like_rows, write_fixture

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_generators_deterministic():
    assert german_like_rows(50) == german_like_rows(50)
    assert compas_like_rows(50) == compas_like_rows(50)


def test_bundled_fixtures_match_generator(tmp_path):
    for kind, stem in (("german", "german_synth"), ("compas", "compas_synth")):
        write_fixture(kind, tmp_path / "f.csv", tmp_path / "f.schema.json")
        assert (tmp_path / "f.csv").read_bytes() == (FIXTURES / f"{stem}.csv").read_bytes()
        assert (tmp_path / "f.schema.json").read_bytes() == \
            (FIXTURES / f"{stem}.schema.json").read_bytes()


@pytest.mark.parametrize("n", [0, -3])
def test_a_size_below_one_is_rejected_before_any_file_is_written(tmp_path, n):
    with pytest.raises(ValueError, match=r"\bn\b.*>= 1"):
        write_fixture("german", tmp_path / "f.csv", tmp_path / "f.schema.json", n=n)
    assert not list(tmp_path.iterdir())


def test_german_fixture_loads_with_planted_bias():
    ds = load_dataset(FIXTURES / "german_synth.csv",
                      Schema.from_json(FIXTURES / "german_synth.schema.json"))
    assert len(ds) == 1000
    domains = protected_domains(ds)
    assert len(domains.joint_combos) == 4
    # favorable rate spread across subgroups is the planted signal
    rates = {}
    for row, y in zip(ds.rows, ds.labels):
        key = domains.combo_of(ds.instance(0).__class__(row))
        rates.setdefault(key, []).append(y)
    spread = [np.mean(v) for v in rates.values()]
    assert max(spread) - min(spread) > 0.05


def test_compas_fixture_loads():
    ds = load_dataset(FIXTURES / "compas_synth.csv",
                      Schema.from_json(FIXTURES / "compas_synth.schema.json"))
    assert len(ds) == 1200
    assert len(protected_domains(ds).joint_combos) == 8
    assert 0.3 < np.mean(ds.labels) < 0.8
