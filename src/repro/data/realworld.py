"""Distribution-matched substitutes for the paper's real datasets.

The paper evaluates on two real-world datasets we cannot download in an
offline environment:

* **VEHICLE** — 37,051 vehicle models from fueleconomy.gov with year,
  weight, horse power, MPG, and annual (fuel) cost.
* **HOUSE** — 100,000 IPUMS household records with house value,
  household income, number of persons, and monthly mortgage payment.

``simulate_vehicle`` and ``simulate_house`` generate synthetic tables
with the same schemas and the cross-correlations that drive the
experiments' behaviour (heavier vehicles burn more fuel, horsepower
correlates with weight and against MPG; incomes and house values are
log-normal and mortgage tracks value).  The experiments only exercise
attribute-value *distributions* — subdomain counts and hit geometry —
so a distribution-matched generator preserves the relevant behaviour
(see DESIGN.md §5 for the substitution record).  Attributes are
normalized to [0, 1] exactly as the paper does.

``load_csv`` lets a user with the genuine files run the same pipeline.
"""

from __future__ import annotations

import csv

import numpy as np

from repro.core.objects import Dataset
from repro.errors import ValidationError

__all__ = [
    "simulate_vehicle",
    "simulate_house",
    "load_csv",
    "read_csv",
    "normalize",
    "VEHICLE_ATTRIBUTES",
    "HOUSE_ATTRIBUTES",
    "VEHICLE_SIZE",
    "HOUSE_SIZE",
]

VEHICLE_ATTRIBUTES = ["year", "weight", "horse_power", "mpg", "annual_cost"]
HOUSE_ATTRIBUTES = ["house_value", "household_income", "num_persons", "mortgage_payment"]
VEHICLE_SIZE = 37_051  #: rows in the paper's VEHICLE dataset
HOUSE_SIZE = 100_000  #: rows in the paper's HOUSE dataset


def normalize(raw: np.ndarray) -> np.ndarray:
    """Min-max normalize every column to [0, 1] (paper §6.2)."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] < 2:
        raise ValidationError("need a 2-D array with at least two rows to normalize")
    lo = raw.min(axis=0)
    hi = raw.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return (raw - lo) / span


def simulate_vehicle(n: int = VEHICLE_SIZE, seed=None, normalized: bool = True) -> Dataset:
    """Synthetic VEHICLE: correlated vehicle-model attributes.

    Correlation structure: weight up => horsepower up, MPG down, annual
    fuel cost up; year up => MPG modestly up (efficiency progress).
    """
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    year = rng.integers(1984, 2017, size=n).astype(float)
    # Weight in pounds: mixture of car/SUV/truck classes.
    klass = rng.choice([0, 1, 2], size=n, p=[0.6, 0.25, 0.15])
    weight = (
        np.where(klass == 0, rng.normal(3100, 380, n), 0)
        + np.where(klass == 1, rng.normal(4300, 450, n), 0)
        + np.where(klass == 2, rng.normal(5400, 600, n), 0)
    )
    weight = np.clip(weight, 1600, 9000)
    horse_power = np.clip(
        0.055 * weight + rng.normal(0, 45, n) + (year - 1984) * 2.2, 55, 900
    )
    mpg = np.clip(
        62.0 - 0.0075 * weight + 0.28 * (year - 1984) + rng.normal(0, 3.0, n), 8, 60
    )
    annual_cost = np.clip(
        (15000.0 / mpg) * rng.normal(2.6, 0.25, n).clip(1.8, 3.4) + rng.normal(0, 60, n),
        350,
        6500,
    )
    raw = np.column_stack([year, weight, horse_power, mpg, annual_cost])
    values = normalize(raw) if normalized else raw
    return Dataset(values, names=VEHICLE_ATTRIBUTES)


def simulate_house(n: int = HOUSE_SIZE, seed=None, normalized: bool = True) -> Dataset:
    """Synthetic HOUSE: log-normal values/incomes, mortgage tracks value."""
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    income = np.clip(rng.lognormal(mean=10.9, sigma=0.65, size=n), 8_000, 1_200_000)
    house_value = np.clip(
        income * rng.normal(3.2, 0.9, n).clip(1.2, 6.5) * rng.lognormal(0, 0.25, n),
        25_000,
        4_000_000,
    )
    num_persons = np.clip(rng.poisson(1.6, size=n) + 1, 1, 12).astype(float)
    # 30-year mortgage at ~4-7%: payment approximately proportional to value.
    rate_factor = rng.uniform(0.004, 0.0065, size=n)
    mortgage = np.clip(house_value * rate_factor * rng.uniform(0.6, 1.0, n), 0, 25_000)
    raw = np.column_stack([house_value, income, num_persons, mortgage])
    values = normalize(raw) if normalized else raw
    return Dataset(values, names=HOUSE_ATTRIBUTES)


def read_csv(path, columns=None) -> "tuple[list[str], np.ndarray]":
    """The numeric rows of a CSV: ``(column names, (rows, columns) array)``.

    ``columns`` selects and orders numeric columns by header name;
    non-numeric cells make the row be skipped.  Values are not checked
    further, so ``inf`` and ``nan`` pass through to the caller.
    """
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise ValidationError(f"{path}: empty CSV")
        names = columns if columns is not None else list(reader.fieldnames)
        missing = [c for c in names if c not in reader.fieldnames]
        if missing:
            raise ValidationError(f"{path}: missing columns {missing}")
        rows = []
        for record in reader:
            try:
                rows.append([float(record[c]) for c in names])
            except (TypeError, ValueError):
                continue  # skip non-numeric rows
    if len(rows) < 2:
        raise ValidationError(f"{path}: fewer than two numeric rows")
    return names, np.asarray(rows)


def load_csv(path, columns=None, normalized: bool = True, sense: str = "min") -> Dataset:
    """Load a real CSV (e.g. the genuine VEHICLE extract) as a Dataset.

    ``columns`` selects and orders numeric columns by header name;
    non-numeric cells make the row be skipped.
    """
    names, raw = read_csv(path, columns)
    values = normalize(raw) if normalized else raw
    return Dataset(values, names=names, sense=sense)
