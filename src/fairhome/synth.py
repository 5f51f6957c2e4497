"""Synthetic benchmark fixtures with planted subgroup bias.

Two generators: a credit-scoring dataset with two binary protected attributes
and a recidivism-style dataset with three. Labels mix a signal from the
non-protected features with an additive logit bonus for privileged subgroups,
so a plain model learns the bias and mitigation has something to remove.
"""

from __future__ import annotations

import argparse
import csv
import json
import os

import numpy as np

GERMAN_SEED = 20240601
COMPAS_SEED = 20240602

GERMAN_SCHEMA = {
    "attributes": [
        {"name": "checking_status", "kind": "categorical"},
        {"name": "employment", "kind": "categorical"},
        {"name": "duration_months", "kind": "numeric"},
        {"name": "credit_amount", "kind": "numeric"},
        {"name": "sex", "kind": "categorical"},
        {"name": "age_group", "kind": "categorical"},
    ],
    "protected": ["sex", "age_group"],
    "label_column": "credit_risk",
    "favorable_value": "good",
}

COMPAS_SCHEMA = {
    "attributes": [
        {"name": "priors_count", "kind": "numeric"},
        {"name": "charge_degree", "kind": "categorical"},
        {"name": "juvenile_offenses", "kind": "numeric"},
        {"name": "sex", "kind": "categorical"},
        {"name": "race", "kind": "categorical"},
        {"name": "age_band", "kind": "categorical"},
    ],
    "protected": ["sex", "race", "age_band"],
    "label_column": "recidivism",
    "favorable_value": "no_recid",
}


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _rows(*columns) -> list:
    """One list of Python values per row of the generated column arrays."""
    return [list(row) for row in zip(*(column.tolist() for column in columns))]


def german_like_rows(n: int = 1000, seed: int = GERMAN_SEED) -> list:
    """Credit-risk rows; privileged subgroup is (male, old)."""
    rng = np.random.default_rng(seed)
    sex = rng.choice(["female", "male"], n)
    age_group = rng.choice(["young", "old"], n, p=[0.45, 0.55])
    checking = rng.choice(["low", "mid", "high"], n, p=[0.40, 0.35, 0.25])
    employment = rng.choice(["short", "medium", "long"], n, p=[0.30, 0.40, 0.30])
    duration = rng.integers(6, 61, n)
    amount = np.round(rng.lognormal(7.6, 0.55, n)).astype(int)

    signal = (
        2.4 * (checking == "high") + 1.1 * (checking == "mid")
        + 1.7 * (employment == "long") + 0.7 * (employment == "medium")
        - 0.07 * (duration - 33)
        - 1.0 * (np.log(amount) - 7.6)
    )
    bias = 0.55 * (sex == "male") + 0.4 * (age_group == "old")
    label = rng.random(n) < _sigmoid(signal + bias - 1.25)

    return _rows(checking, employment, duration, amount, sex, age_group,
                 np.where(label, "good", "bad"))


def compas_like_rows(n: int = 1200, seed: int = COMPAS_SEED) -> list:
    """Recidivism rows; privileged subgroup is (female, white, over25)."""
    rng = np.random.default_rng(seed)
    sex = rng.choice(["female", "male"], n, p=[0.4, 0.6])
    race = rng.choice(["nonwhite", "white"], n)
    age_band = rng.choice(["under25", "over25"], n, p=[0.35, 0.65])
    priors = np.minimum(rng.poisson(2.2, n), 15)
    charge = rng.choice(["felony", "misdemeanor"], n, p=[0.55, 0.45])
    juvenile = np.minimum(rng.poisson(0.5, n), 5)

    signal = (
        -0.28 * (priors - 2.2)
        + 0.7 * (charge == "misdemeanor")
        - 0.5 * (juvenile - 0.5)
    )
    bias = 0.5 * (sex == "female") + 0.55 * (race == "white") + 0.45 * (age_band == "over25")
    stays_clean = rng.random(n) < _sigmoid(signal + bias - 0.55)

    return _rows(priors, charge, juvenile, sex, race, age_band,
                 np.where(stays_clean, "no_recid", "recid"))


# fixture kind -> (file stem, schema, generator); each generator's defaults
# are the bundled fixture's size and seed
_FIXTURES = {
    "german": ("german_synth", GERMAN_SCHEMA, german_like_rows),
    "compas": ("compas_synth", COMPAS_SCHEMA, compas_like_rows),
}


def write_fixture(kind: str, csv_path, schema_path, n: int | None = None,
                  seed: int | None = None) -> None:
    """Write one fixture CSV plus its schema JSON; ``n`` and ``seed`` default
    to the generator's."""
    if kind not in _FIXTURES:
        raise ValueError(f"unknown fixture kind {kind!r}")
    if n is not None and n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _, schema_dict, make = _FIXTURES[kind]
    rows = make(**{k: v for k, v in (("n", n), ("seed", seed)) if v is not None})
    header = [a["name"] for a in schema_dict["attributes"]] + [schema_dict["label_column"]]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(schema_dict, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Regenerate the bundled synthetic fixtures.")
    parser.add_argument("out_dir", help="directory for the CSV/schema files")
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    for kind, (stem, _, _) in _FIXTURES.items():
        path = os.path.join(args.out_dir, stem)
        write_fixture(kind, f"{path}.csv", f"{path}.schema.json")
        print(f"wrote {stem}.csv + {stem}.schema.json")


if __name__ == "__main__":
    main()
