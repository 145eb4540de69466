"""Prototype-geometry diagnostics: spectral dimensionality and scenario compare."""

import csv

import numpy as np
import pytest

from fedstruct.analysis import (
    EffectiveDimensionality,
    ScenarioRun,
    compare_scenarios,
    effective_dimensionality,
    summary_rows,
    write_round_summary_csv,
)
from fedstruct.data import generate_mixture, partition_dirichlet
from fedstruct.errors import ContractError, DegenerateInputError
from fedstruct.federation import RoundConfig
from fedstruct.losses import AlignmentKind
from fedstruct.models import ArchitectureSpec
from fedstruct.tensor import random_orthogonal
from solo import run_one


class TestEffectiveDimensionality:
    def test_identical_rows_are_one_dimensional(self):
        m = np.tile([[1.0, 2.0, 3.0]], (5, 1))
        ed = effective_dimensionality(m)
        assert ed.threshold_dim == 1
        assert ed.participation_ratio == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_equal_norm_rows_count_themselves(self):
        for k in (2, 3, 5):
            m = np.eye(k) * 4.2
            ed = effective_dimensionality(m)
            assert ed.participation_ratio == pytest.approx(k, abs=1e-9)
            # 95% of k equal energies needs ceil(0.95 k) directions
            assert ed.threshold_dim == int(np.ceil(0.95 * k))

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            effective_dimensionality(np.zeros((3, 4)))

    def test_single_row_rejected(self):
        with pytest.raises(ContractError):
            effective_dimensionality(np.ones((1, 4)))

    def test_invariances(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 5))
        base = effective_dimensionality(m)
        perm = effective_dimensionality(m[rng.permutation(8)])
        rot = effective_dimensionality(m @ random_orthogonal(5, seed=1))
        for other in (perm, rot):
            assert other.threshold_dim == base.threshold_dim
            assert other.participation_ratio == pytest.approx(
                base.participation_ratio, abs=1e-9
            )

    def test_ratio_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, d = int(rng.integers(2, 9)), int(rng.integers(2, 7))
            m = rng.standard_normal((n, d))
            ed = effective_dimensionality(m)
            assert 1.0 - 1e-12 <= ed.participation_ratio <= min(n, d) + 1e-12
            assert 1 <= ed.threshold_dim <= min(n, d)

    def test_huge_scale_does_not_overflow(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 4))
        base = effective_dimensionality(m)
        with np.errstate(over="raise"):
            big = effective_dimensionality(m * 1e200)
        assert big.threshold_dim == base.threshold_dim
        assert big.participation_ratio == pytest.approx(
            base.participation_ratio, rel=1e-9
        )

    def test_row_normalization_removes_scale_skew(self):
        m = np.array([[100.0, 0.0], [0.0, 1.0]])
        raw = effective_dimensionality(m)
        flat = effective_dimensionality(m, normalize_rows_first=True)
        assert raw.threshold_dim == 1
        assert flat.threshold_dim == 2
        assert flat.participation_ratio == pytest.approx(2.0, abs=1e-9)

    def test_returns_named_tuple_like(self):
        ed = effective_dimensionality(np.eye(3))
        assert isinstance(ed, EffectiveDimensionality)
        assert isinstance(ed.threshold_dim, int)
        assert isinstance(ed.participation_ratio, float)


def _tiny_run(scenario, seed=0, rounds=2):
    ds = generate_mixture(3, 5, 20, 1.0, 0.5, seed=seed)
    shards = partition_dirichlet(ds, alpha=2.0, num_clients=2, seed=seed)
    cfg = RoundConfig(
        alignment=AlignmentKind.parse("gcsa"), lam=1.0, gamma=1.0,
        local_epochs=1, batch_size=8, learning_rate=0.1,
    )
    reports = run_one(
        shards, [ArchitectureSpec((), 4), ArchitectureSpec((16,), 4)], cfg,
        rounds=rounds, seed=seed, num_classes=3, scenario=scenario,
    )
    return ScenarioRun(scenario=scenario, data_seed=seed, reports=reports)


class TestScenarioComparison:
    def test_mismatched_seeds_rejected(self):
        a = _tiny_run("homo_shared", seed=0)
        b = _tiny_run("homo_local", seed=1)
        c = _tiny_run("hetero", seed=0)
        with pytest.raises(ContractError, match="seed"):
            compare_scenarios(a, b, c)

    def test_wrong_label_order_rejected(self):
        a = _tiny_run("homo_shared")
        b = _tiny_run("homo_local")
        c = _tiny_run("hetero")
        with pytest.raises(ContractError, match="scenario"):
            compare_scenarios(c, b, a)

    def test_comparison_fields_and_strict_ordering(self):
        a = _tiny_run("homo_shared")
        b = _tiny_run("homo_local")
        c = _tiny_run("hetero")
        cmpres = compare_scenarios(a, b, c)
        assert cmpres.homo_shared_dim == a.final_effective_dimensionality
        assert cmpres.hetero_dim == c.final_effective_dimensionality
        assert cmpres.ordering_holds == (cmpres.hetero_dim > cmpres.homo_shared_dim)
        d = cmpres.to_json_dict()
        assert set(d) == {
            "homo_shared_dim", "homo_local_dim", "hetero_dim",
            "homo_shared_ratio", "homo_local_ratio", "hetero_ratio",
            "ordering_holds",
        }

    def test_empty_run_properties_reject(self):
        empty = ScenarioRun(scenario="hetero", data_seed=0, reports=[])
        for prop in ("final_effective_dimensionality", "final_participation_ratio",
                     "best_mean_accuracy"):
            with pytest.raises(ContractError):
                getattr(empty, prop)


class TestSummaryCsv:
    def test_roundtrip(self, tmp_path):
        run = _tiny_run("hetero", seed=2, rounds=3)
        path = tmp_path / "summary.csv"
        write_round_summary_csv(summary_rows(run), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scenario", "seed", "round", "threshold_dim",
                           "participation_ratio", "mean_accuracy"]
        assert len(rows) == 1 + len(run.reports)
        for row, rep in zip(rows[1:], run.reports):
            assert row[0] == "hetero"
            assert int(row[2]) == rep.round_index
            assert float(row[4]) == rep.participation_ratio
            assert float(row[5]) == rep.mean_accuracy
