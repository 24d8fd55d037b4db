"""Batch Monte Carlo experiments with CSV/JSON persistence.

Each experiment sweeps trajectory lengths, derives every random stream
from the master seed, and emits a CSV table plus a JSON manifest holding
the full configuration, so any output file can be regenerated bit-for-bit.
"""

from __future__ import annotations

import csv
import functools
import json
import os
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, fields, replace
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from .gof import (
    FixedAlpha,
    RadiusEstimate,
    SampledAlpha,
    TestConfig,
    block_statistics,
    dn_summands,
    probe_sum,
    replicate,
    replication_seeds,
    sampling_radius_estimate,
    statistic_samples,
    statistics,
    threshold_radius,
)
from .models import ModelSpec, final_degrees
from .rng import TAG_EXPERIMENT, TAG_PROBES, TAG_TAIL, _integer, derive_seed, stream

EXPERIMENT_SUCCESS = "success-rate"
EXPERIMENT_CONCENTRATION = "concentration"
EXPERIMENT_TAIL = "tail-exponent"
EXPERIMENT_CALIBRATION = "calibration"

EXCEEDANCE_LEVELS = (0.01, 0.02, 0.05)

# Tail fits start at the probability a degree-10 vertex would receive,
# excluding small-degree lattice artifacts.
TAIL_FIT_MIN_DEGREE = 10
TAIL_BINS = 32
MIN_TAIL_BINS = 5


class Table(NamedTuple):
    header: list[str]
    rows: list[list]


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    experiment: str
    null_model: ModelSpec
    alt_model: ModelSpec | None = None
    n_values: tuple[int, ...]
    replications: int = 32
    test_config: TestConfig
    output_path: str = ""

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if isinstance(self.n_values, (str, bytes)) or not isinstance(self.n_values, Iterable):
            raise ValueError(f"n_values: expected a list of integers, got {self.n_values!r}")
        object.__setattr__(self, "n_values", tuple(_integer("n_values", n) for n in self.n_values))
        object.__setattr__(self, "replications", _integer("replications", self.replications))
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be increasing")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.alt_model is not None and self.alt_model.m != self.null_model.m:
            raise ValueError("null and alternative models disagree on edges per arrival")
        if not isinstance(self.output_path, str):
            raise ValueError(f"output_path must be a string, got {type(self.output_path).__name__}")
        if self.output_path and manifest_path(self.output_path) == self.output_path:
            raise ValueError(
                f"output_path {self.output_path!r} is its own manifest's path; give the CSV another extension"
            )
        needs_alt = self.experiment in (EXPERIMENT_SUCCESS, EXPERIMENT_CALIBRATION)
        if needs_alt and self.alt_model in (None, self.null_model):
            raise ValueError("degenerate config: alternative must differ from the null model")
        if self.experiment == EXPERIMENT_CONCENTRATION and self.replications < 10:
            raise ValueError("concentration needs at least 10 replications")
        # The runs test against null_model, so the test config records it too.
        object.__setattr__(self, "test_config", replace(self.test_config, null_model=self.null_model))


@dataclass(frozen=True)
class TailDiagnostic:
    """Binned spectrum of a model's conditional probabilities at one time.

    counts[i] is the mean number of vertices whose probability falls in
    bin i, averaged over replications; fitted_gamma is the log-log slope
    of the per-bin density over the tail region. A single-atom spectrum
    (uniform attachment) is flagged degenerate with an undefined exponent.
    """

    q_bins: np.ndarray
    counts: np.ndarray
    fitted_gamma: float
    degenerate: bool
    populated_tail_bins: int


@dataclass(frozen=True)
class CalibrationResult:
    """Measured separation between two models on the statistic's scale."""

    D_suggested: float
    radius_null: RadiusEstimate
    radius_alt: RadiusEstimate
    cross_mean: float
    dn: float


def tail_exponent_diagnostic(model: ModelSpec, n: int, replications: int, seed: int) -> TailDiagnostic:
    """Fit the power-law exponent of the conditional probability spectrum.

    Histograms the conditional probabilities at the end of simulated
    trajectories into log-spaced bins, averages counts over replications
    (one histogram of the pooled spectra, divided by their number), and
    fits the log-log slope of the per-bin density over the region at and
    above the degree-10 probability.
    """
    n = _integer("n", n)
    if n < 1000:
        raise ValueError("tail diagnostic needs n >= 1000")
    if _integer("replications", replications) < 1:
        raise ValueError("need at least one replication")

    def spectra(choices, _):
        # Equal degrees share one probability: a spectrum is its distinct probabilities weighted by vertex counts.
        degrees, vertices = np.hstack([np.unique(row, return_counts=True) for row in final_degrees(choices[:, :-1])])
        return np.vstack((model.attachment_probability(degrees, n - 1), vertices))

    q, vertices = replicate(model, n, [derive_seed(seed, TAG_TAIL, i) for i in range(replications)], spectra)
    qmin, qmax = float(q.min()), float(q.max())
    if qmin == qmax:
        edges = np.array([qmin * (1 - 1e-9), qmax * (1 + 1e-9)])
        counts = np.array([float(n - 1)])
        return TailDiagnostic(
            q_bins=edges, counts=counts, fitted_gamma=float("nan"), degenerate=True, populated_tail_bins=0
        )
    edges = np.geomspace(qmin, qmax, TAIL_BINS + 1)
    edges[0] *= 1 - 1e-12
    edges[-1] *= 1 + 1e-12
    counts = np.histogram(q, bins=edges, weights=vertices)[0] / replications  # sums of integers: exact
    centers = np.sqrt(edges[:-1] * edges[1:])
    density = counts / np.diff(edges)
    q_fit_min = model.attachment_probability(TAIL_FIT_MIN_DEGREE, n - 1)
    sel = (centers >= q_fit_min) & (counts > 0)
    populated = int(np.count_nonzero(sel))
    if populated < MIN_TAIL_BINS:
        raise ValueError("insufficient tail: fewer than 5 populated bins")
    slope = float(np.polyfit(np.log(centers[sel]), np.log(density[sel]), 1)[0])
    return TailDiagnostic(
        q_bins=edges, counts=counts, fitted_gamma=slope, degenerate=False, populated_tail_bins=populated
    )


def calibrate_D(m1: ModelSpec, n: int, cfg: TestConfig, replications: int, seed: int) -> CalibrationResult:
    """Suggest a separation constant from the measured statistic gap between cfg.null_model and m1.

    cfg gives the null model and the window and probe fractions, as it does
    to statistic_samples; its D, alpha mode and seed are not read.
    Estimates both models' expected statistics against themselves and the
    alternative's statistic against the null; the suggestion is the gap
    between the cross mean and the null radius, which places the threshold
    radius + D/2 exactly halfway between the two statistic means at this n.
    The directed model distance is estimated alongside for reporting.

    Only the suggestion needs the alternative's draws to be independent of
    the null's. So one pass over the alternative's replications, on the
    seeds and plans of its radius estimate, scores each trajectory against
    both models and takes its dn summand (common random numbers): the
    alternative's radius has sampling_radius_estimate's bits, and the cross
    mean and dn have those of scoring each replication alone.
    """
    if _integer("replications", replications) < 10:
        raise ValueError("calibration needs at least 10 replications")
    m0 = cfg.null_model
    if m0 == m1:
        raise ValueError("models not separated at this n: identical mechanisms")
    radius_null = sampling_radius_estimate(n, cfg, replications, derive_seed(seed, TAG_EXPERIMENT, 0))
    traj_seeds, plan_rngs = replication_seeds(derive_seed(seed, TAG_EXPERIMENT, 1), replications)
    alt, cross, dn = replicate(m1, n, traj_seeds, lambda choices, at: np.vstack(
        (block_statistics(choices, cfg, plan_rngs[at], [m1, m0]), dn_summands(m0, m1, choices))))
    cross_mean = float(np.mean(cross))
    suggested = cross_mean - radius_null.mean
    if suggested <= 0:
        raise ValueError("models not separated at this n")
    return CalibrationResult(
        D_suggested=suggested,
        radius_null=radius_null,
        radius_alt=RadiusEstimate.of(alt),
        cross_mean=cross_mean,
        dn=float(probe_sum(dn)) / replications,  # dn_estimate's left-to-right sum
    )


def _success_row(cfg: ExperimentConfig, k: int, n: int) -> list:
    """Accuracy of the test on trajectories from both hypotheses.

    The threshold radius is estimated once from the null model and shared
    by all tested trajectories, which are rejected when S > alpha; success
    combines the per-hypothesis accuracies with equal priors.
    """
    tc = cfg.test_config
    reps = range(cfg.replications)
    alpha = threshold_radius(tc, n, derive_seed(tc.seed, TAG_EXPERIMENT, k, 0)).mean + tc.D / 2
    S = [
        statistics(model, n, tc, [derive_seed(tc.seed, TAG_EXPERIMENT, k, 1 + hyp, i) for i in reps],
                   [stream(derive_seed(tc.seed, TAG_EXPERIMENT, k, 3 + hyp, i), TAG_PROBES, 0) for i in reps])
        for hyp, model in enumerate((cfg.null_model, cfg.alt_model))
    ]
    acc0, acc1 = (np.count_nonzero((S[hyp] > alpha) == hyp) / cfg.replications for hyp in (0, 1))
    return [n, acc0, acc1, (acc0 + acc1) / 2, float(np.mean(S[0])), float(np.mean(S[1])), alpha]


def _concentration_row(cfg: ExperimentConfig, k: int, n: int) -> list:
    """Spread of the statistic under the null model at one trajectory length."""
    tc = cfg.test_config
    values = statistic_samples(cfg.null_model, n, tc, cfg.replications, derive_seed(tc.seed, TAG_EXPERIMENT, k))
    est = RadiusEstimate.of(values)
    cv = est.std / est.mean if est.mean > 0 else float("nan")
    return [n, est.mean, est.std, cv] + [float(np.mean(np.abs(values - est.mean) > c * n)) for c in EXCEEDANCE_LEVELS]


def _tail_row(cfg: ExperimentConfig, k: int, n: int) -> list:
    diag = tail_exponent_diagnostic(
        cfg.null_model, n, cfg.replications, derive_seed(cfg.test_config.seed, TAG_EXPERIMENT, k)
    )
    return [n, diag.fitted_gamma, diag.populated_tail_bins, int(diag.degenerate)]


def _calibration_row(cfg: ExperimentConfig, k: int, n: int) -> list:
    tc = cfg.test_config
    cal = calibrate_D(cfg.alt_model, n, tc, cfg.replications, derive_seed(tc.seed, TAG_EXPERIMENT, 100 + k))
    return [n, cal.D_suggested, cal.radius_null.mean, cal.radius_null.std,
            cal.radius_alt.mean, cal.radius_alt.std, cal.cross_mean, cal.dn]


# Each experiment's CSV header and row(cfg, k, n), the row of the k-th trajectory length n; each row's random
# streams derive from the test config's seed and k alone.
_EXPERIMENTS = {
    EXPERIMENT_SUCCESS: (("n", "acc_M0", "acc_M1", "success", "mean_S_M0", "mean_S_M1", "alpha"), _success_row),
    EXPERIMENT_CONCENTRATION: (("n", "mean_S", "std_S", "cv", *(f"exceed_{c:g}" for c in EXCEEDANCE_LEVELS)),
                               _concentration_row),
    EXPERIMENT_TAIL: (("n", "fitted_gamma", "populated_tail_bins", "degenerate"), _tail_row),
    EXPERIMENT_CALIBRATION: (("n", "D_suggested", "radius_M0_mean", "radius_M0_std",
                              "radius_M1_mean", "radius_M1_std", "cross_mean", "dn"), _calibration_row),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def experiment_table(cfg: ExperimentConfig) -> Table:
    """cfg's experiment as a table: its header, then one row per trajectory length of cfg.n_values."""
    header, row = _EXPERIMENTS[cfg.experiment]
    return Table(list(header), [row(cfg, k, n) for k, n in enumerate(cfg.n_values)])


# --- persistence ---


def write_csv(path: str, table: Table) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.header)
        writer.writerows(table.rows)


def _parse_cell(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def read_csv(path: str) -> Table:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV file, expected a header row")
        rows = [[_parse_cell(cell) for cell in row] for row in reader]
    return Table(header, rows)


# The fields that hold a config object, with its class; an alpha mode's dict leads with the "mode" that names its class.
_ALPHA_MODES = {"sampled": SampledAlpha, "fixed": FixedAlpha}
_SUB_OBJECTS = {"null_model": ModelSpec, "alt_model": ModelSpec, "test_config": TestConfig, "alpha_mode": _ALPHA_MODES}
# How errors name a config read alone; inside an experiment config, an object is named by its field path.
_NAMES = {ExperimentConfig: "experiment config", TestConfig: "test_config", ModelSpec: "model"}


@functools.cache
def _init_fields(cls) -> tuple:
    return tuple(f for f in fields(cls) if f.init)


def config_to_dict(obj) -> dict:
    """obj's init fields in declaration order, config objects as dicts, tuples as lists; an alpha mode's mode first."""
    d = {"mode": mode for mode, cls in _ALPHA_MODES.items() if type(obj) is cls}
    for f in _init_fields(type(obj)):
        value = getattr(obj, f.name)
        if f.name in _SUB_OBJECTS and value is not None:
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        d[f.name] = value
    return d


def config_from_dict(cls, d: dict):
    """The cls (ModelSpec, TestConfig or ExperimentConfig) that d, in config_to_dict's form, describes.

    A left-out field takes its dataclass's default, and a null one whose default is None (alt_model) is None; a
    non-dict d and a field missing, unknown or wrongly typed raise ValueError naming where they are."""
    return _from_dict(cls, d, _NAMES[cls])


def _from_dict(cls, d: dict, where: str):
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    if cls is ExperimentConfig and isinstance(d.get("test_config"), dict) and "null_model" in d:
        # test_config may leave out its null model: ExperimentConfig gives it the experiment's.
        d = {**d, "test_config": {"null_model": d["null_model"], **d["test_config"]}}
    try:
        if cls is _ALPHA_MODES:
            cls = _ALPHA_MODES.get(d["mode"]) if isinstance(d["mode"], str) else None
            if cls is None:
                raise ValueError(f"unknown alpha mode {d['mode']!r} (use 'sampled' or 'fixed')")
        kwargs = {}
        for f in _init_fields(cls):
            if f.name in d or f.default is MISSING:  # a required field left out raises KeyError
                value = d[f.name]
                if f.name in _SUB_OBJECTS and not (value is None and f.default is None):
                    path = f.name if cls is ExperimentConfig else f"{where}.{f.name}"
                    value = _from_dict(_SUB_OBJECTS[f.name], value, path)
                kwargs[f.name] = value
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r} in {where}") from None
    # Every key is a field the loop read, or an alpha mode's "mode". This is checked before construction, so a
    # misspelled key is named rather than a fault that its absence causes.
    unknown = d.keys() - kwargs.keys() - ({"mode"} if cls in _ALPHA_MODES.values() else set())
    if unknown:
        raise ValueError(f"unknown field {min(unknown)!r} in {where}")
    return cls(**kwargs)


class ExperimentResult(NamedTuple):
    table: Table
    csv_path: str
    manifest_path: str


def manifest_path(csv_path: str) -> str:
    """The JSON manifest written beside the CSV at csv_path: its extension becomes .json."""
    return os.path.splitext(csv_path)[0] + ".json"


def _default_output_path(cfg: ExperimentConfig) -> str:
    alt = cfg.alt_model.label if cfg.alt_model is not None else "none"
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return f"{cfg.experiment}_{cfg.null_model.label}_{alt}_{stamp}.csv"


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured experiment, writing the CSV and its JSON manifest.

    An explicit output_path is used verbatim (reruns are byte-identical);
    otherwise a timestamped name is generated.
    """
    table = experiment_table(cfg)
    csv_path = cfg.output_path or _default_output_path(cfg)
    write_csv(csv_path, table)
    json_path = manifest_path(csv_path)
    manifest = {
        "experiment_config": config_to_dict(cfg),
        "seed": cfg.test_config.seed,
        "csv": os.path.basename(csv_path),
    }
    with open(json_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return ExperimentResult(table=table, csv_path=csv_path, manifest_path=json_path)
