"""Diagnostics over prototype geometry: effective dimensionality & comparisons.

The headline diagnostic stacks prototype vectors from all clients into one
matrix and asks how many singular directions carry 95% of the (uncentered,
unnormalized) energy.  Structurally-trained federations should keep more
directions alive than parameter-shared ones, whose prototypes collapse onto
a shared subspace.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError
from .tensor import _svd_factors, as_matrix, normalize_rows

ENERGY_QUANTILE = 0.95


@dataclass(frozen=True)
class EffectiveDimensionality:
    """threshold_dim is the headline number; participation_ratio a soft check."""

    threshold_dim: int
    participation_ratio: float


def effective_dimensionality(stacked, normalize_rows_first: bool = False) -> EffectiveDimensionality:
    """Spectral effective dimensionality of a stacked prototype matrix.

    threshold_dim = smallest k whose top-k squared singular values reach 95%
    of the total; participation_ratio = (sum s^2)^2 / sum s^4.  The matrix is
    used raw (uncentered); pass normalize_rows_first=True to remove row-scale
    effects first, as the config's output.normalized_stacking does for the
    rounds' spectra.  An all-zero matrix has no spectrum and is rejected.
    """
    m = as_matrix(stacked, "stacked prototypes")
    if m.shape[0] < 2:
        raise ContractError(f"need >= 2 stacked rows, got {m.shape[0]}")
    return _dimensionality(m, normalize_rows_first)


def _dimensionality(m: np.ndarray, normalize: bool) -> EffectiveDimensionality:
    """effective_dimensionality of a finite 2-D float64 matrix of >= 2 rows,
    unchecked: the protocol engine's spectrum, whose rows are finite by
    construction."""
    if normalize:
        m = normalize_rows(m, "stacked prototypes")
    s = _svd_factors(m)[1]
    top = float(s[0]) if s.size else 0.0
    if top <= 0.0:
        raise DegenerateInputError("all-zero prototype stack has no spectrum")
    # Work with energies relative to the leading one so fourth powers of very
    # large singular values cannot overflow double precision.
    energy = np.square(s / top)
    total = float(energy.sum())
    cum = np.cumsum(energy)
    threshold_dim = int(np.searchsorted(cum, ENERGY_QUANTILE * total) + 1)
    participation = total * total / float(np.sum(energy * energy))
    return EffectiveDimensionality(threshold_dim, float(participation))


@dataclass
class ScenarioRun:
    """A completed experiment: its scenario label, data seed, and round reports."""

    scenario: str
    data_seed: int
    reports: list

    def _final(self):
        """The last round's report."""
        if not self.reports:
            raise ContractError(f"scenario {self.scenario!r} has no rounds")
        return self.reports[-1]

    @property
    def final_effective_dimensionality(self) -> int:
        return int(self._final().effective_dimensionality)

    @property
    def final_participation_ratio(self) -> float:
        return float(self._final().participation_ratio)

    @property
    def best_mean_accuracy(self) -> float:
        return float(self._final().best_mean_accuracy)


@dataclass(frozen=True)
class ScenarioComparison:
    homo_shared_dim: int
    homo_local_dim: int
    hetero_dim: int
    homo_shared_ratio: float
    homo_local_ratio: float
    hetero_ratio: float
    ordering_holds: bool  # hetero keeps strictly more directions than shared

    def to_json_dict(self) -> dict:
        return asdict(self)


def compare_scenarios(
    homo_shared: ScenarioRun, homo_local: ScenarioRun, hetero: ScenarioRun
) -> ScenarioComparison:
    """Final-round dimensionality comparison across the three sharing regimes.

    All three runs must come from the same data seed, otherwise the
    comparison is meaningless and rejected.
    """
    runs = (homo_shared, homo_local, hetero)
    seeds = {r.data_seed for r in runs}
    if len(seeds) != 1:
        raise ContractError(f"scenario runs use different data seeds: {sorted(seeds)}")
    from .federation import SCENARIOS  # federation imports this module
    for run, expected in zip(runs, SCENARIOS):
        if run.scenario != expected:
            raise ContractError(f"expected scenario {expected!r}, got {run.scenario!r}")
    hs, hl, ht = (r.final_effective_dimensionality for r in runs)
    return ScenarioComparison(
        homo_shared_dim=hs,
        homo_local_dim=hl,
        hetero_dim=ht,
        homo_shared_ratio=homo_shared.final_participation_ratio,
        homo_local_ratio=homo_local.final_participation_ratio,
        hetero_ratio=hetero.final_participation_ratio,
        ordering_holds=bool(ht > hs),
    )


def write_csv(path, header, rows) -> None:
    """Write the header row, then the rows, with the csv module's defaults."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_round_summary_csv(rows, path) -> None:
    """rows: iterables of (scenario, seed, round, threshold_dim,
    participation_ratio, mean_accuracy)."""
    write_csv(path, ["scenario", "seed", "round", "threshold_dim", "participation_ratio",
                     "mean_accuracy"], rows)


def summary_rows(run: ScenarioRun):
    """Flatten a ScenarioRun into write_round_summary_csv rows."""
    for rep in run.reports:
        yield (
            run.scenario,
            run.data_seed,
            rep.round_index,
            rep.effective_dimensionality,
            repr(float(rep.participation_ratio)),
            repr(float(rep.mean_accuracy)),
        )
