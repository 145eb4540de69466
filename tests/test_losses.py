"""Alignment losses: hand values, invariances, decompositions, gradients."""

import numpy as np
import pytest

from fedstruct.errors import ContractError, DegenerateInputError
from fedstruct.losses import (
    AlignmentKind,
    _pair_tables,
    check_gradient,
    loss_contrastive,
    loss_gcsa,
    loss_rcsa,
    pairwise_loss,
    procrustes_decompose,
)
from fedstruct.tensor import normalize_rows, random_orthogonal
from oracles import gcsa_gram_form, rcsa_loss_loop


def _mse(a, b):
    return pairwise_loss("mse", a, b)


def _cosine(a, b):
    return pairwise_loss("cosine", a, b)


def _pair(seed, n, d):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.standard_normal((n, d))


class TestAlignmentKind:
    def test_parse_names(self):
        for name in ("mse", "cosine", "gcsa", "rcsa", "contrastive"):
            assert AlignmentKind.parse(name).name == name

    def test_parse_rejects_unknown(self):
        with pytest.raises(ContractError):
            AlignmentKind.parse("l2")

    def test_temperature_positive(self):
        with pytest.raises(ContractError):
            AlignmentKind.parse("contrastive", temperature=0.0)

    def test_structural_flag(self):
        assert AlignmentKind.parse("gcsa").is_structural
        assert AlignmentKind.parse("rcsa").is_structural
        assert not AlignmentKind.parse("mse").is_structural


class TestMse:
    def test_identical_inputs_zero(self):
        a, _ = _pair(0, 4, 3)
        res = _mse(a, a)
        assert res.value == 0.0
        np.testing.assert_allclose(res.grad, 0.0, atol=0)

    def test_hand_value(self):
        assert _mse([[1.0, 0.0]], [[0.0, 1.0]]).value == pytest.approx(2.0, abs=0)

    def test_grad_closed_form(self):
        a, b = _pair(1, 5, 3)
        np.testing.assert_allclose(_mse(a, b).grad, 2.0 * (a - b) / 5, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            _mse(np.ones((2, 3)), np.ones((3, 3)))

    def test_gradient_check(self):
        a, b = _pair(2, 3, 4)
        report = check_gradient("mse", a, b, tolerance=1e-6)
        assert report.passed, report


class TestCosine:
    def test_identical_inputs_zero(self):
        a, _ = _pair(3, 4, 3)
        assert _cosine(a, a).value == pytest.approx(0.0, abs=1e-15)

    def test_antipodal_row_gives_two(self):
        assert _cosine([[1.0, 2.0]], [[-1.0, -2.0]]).value == pytest.approx(2.0, abs=1e-12)

    def test_hand_value(self):
        expected = 1.0 - 1.0 / np.sqrt(2.0)
        assert _cosine([[1.0, 0.0]], [[1.0, 1.0]]).value == pytest.approx(expected, abs=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            _cosine([[0.0, 0.0]], [[1.0, 1.0]])

    def test_gradient_check(self):
        a, b = _pair(4, 4, 3)
        report = check_gradient("cosine", a, b, tolerance=1e-4)
        assert report.passed, report


class TestGcsa:
    def test_identical_inputs_zero(self):
        p, _ = _pair(5, 5, 4)
        assert loss_gcsa(p, p).value == pytest.approx(0.0, abs=1e-12)

    def test_similarity_invariance(self):
        # q = alpha * p R + 1 b^T with alpha = 2.5 leaves the value at zero
        p, _ = _pair(6, 6, 4)
        r = random_orthogonal(4, seed=60)
        b = np.random.default_rng(61).standard_normal(4)
        q = 2.5 * p @ r + b
        assert loss_gcsa(p, q).value <= 1e-10

    def test_value_nonnegative(self):
        p, q = _pair(7, 5, 3)
        assert loss_gcsa(p, q).value >= 0.0

    def test_identical_rows_rejected(self):
        p = np.ones((4, 3))
        q, _ = _pair(8, 4, 3)
        with pytest.raises(DegenerateInputError):
            loss_gcsa(p, q)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            loss_gcsa(np.ones((3, 2)) + np.eye(3, 2), np.eye(4, 2))

    def test_gram_norm_too_large_to_cube_is_degenerate(self):
        # ||P_c^T P_c|| ~ 1e120 is finite, but its cube overflows a double
        p, q = _pair(10, 5, 3)
        with pytest.raises(DegenerateInputError, match="too large to cube"):
            loss_gcsa(1e60 * p, q)

    def test_gradient_check(self):
        p, q = _pair(9, 5, 8)
        report = check_gradient("gcsa", p, q, tolerance=1e-4)
        assert report.passed, report

    # prototype- and instance-level desk shapes, a large batch, unequal widths
    @pytest.mark.parametrize("n,d,dq", [(3, 8, 8), (32, 8, 8), (256, 16, 16), (6, 3, 7)])
    def test_feature_space_matches_gram_form(self, n, d, dq):
        rng = np.random.default_rng(n * d)
        p = rng.standard_normal((n, d)) + rng.standard_normal(d)
        q = rng.standard_normal((n, dq)) @ rng.standard_normal((dq, dq))
        value, grad = gcsa_gram_form(p, q)
        res = loss_gcsa(p, q)
        assert res.value == pytest.approx(value, rel=1e-12)
        assert np.max(np.abs(res.grad - grad)) <= 1e-12 * np.max(np.abs(grad))


class TestRcsa:
    def test_identical_inputs_zero(self):
        p, _ = _pair(10, 5, 4)
        assert loss_rcsa(p, p).value == pytest.approx(0.0, abs=1e-12)

    def test_rotation_invariance(self):
        p, _ = _pair(11, 6, 4)
        r = random_orthogonal(4, seed=110)
        assert loss_rcsa(p, p @ r).value <= 1e-10

    def test_translation_sensitivity(self):
        p, _ = _pair(12, 6, 4)
        b = np.random.default_rng(120).standard_normal(4)
        assert loss_rcsa(p, p + b).value > 1e-6

    # unequal widths: each side's descriptor on its own, against the loop oracle
    @pytest.mark.parametrize("n,d,dq", [(5, 3, 7), (8, 7, 3), (4, 1, 6), (12, 8, 2)])
    def test_unequal_widths_match_the_loop_oracle(self, n, d, dq):
        rng = np.random.default_rng(n * d + dq)
        p, q = rng.standard_normal((n, d)), rng.standard_normal((n, dq))
        assert loss_rcsa(p, q).value == pytest.approx(rcsa_loss_loop(p, q), rel=1e-12, abs=1e-14)
        assert loss_rcsa(q, p).value == pytest.approx(rcsa_loss_loop(q, p), rel=1e-12, abs=1e-14)
        report = check_gradient("rcsa", p, q, tolerance=1e-4)
        assert report.passed, report

    def test_identical_normalized_rows_rejected(self):
        # rows are positive multiples of one direction: RDM vector is zero
        base = np.array([[1.0, 2.0, 2.0]])
        p = np.vstack([base, 2.0 * base, 3.0 * base])
        q, _ = _pair(13, 3, 3)
        with pytest.raises(DegenerateInputError):
            loss_rcsa(p, q)

    def test_gradient_check(self):
        p, q = _pair(14, 5, 8)
        report = check_gradient("rcsa", p, q, tolerance=1e-4)
        assert report.passed, report


class TestContrastive:
    def test_single_class_cancels(self):
        rng = np.random.default_rng(15)
        z = rng.standard_normal((4, 3))
        protos = rng.standard_normal((1, 3))
        parts = loss_contrastive(z, protos, [0, 0, 0, 0], temperature=0.5)
        assert parts.total.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(parts.total.grad, 0.0, atol=1e-12)

    def test_decomposition_identity(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((6, 4))
            protos = rng.standard_normal((3, 4))
            labels = rng.integers(0, 3, size=6)
            parts = loss_contrastive(z, protos, labels, temperature=0.5)
            total = parts.alignment.value + parts.uniformity.value
            assert parts.total.value == pytest.approx(total, abs=1e-9)

    def test_large_temperature_limit(self):
        # total -> log C + O(1/tau)
        rng = np.random.default_rng(16)
        z = rng.standard_normal((5, 4))
        protos = rng.standard_normal((4, 4))
        labels = rng.integers(0, 4, size=5)
        parts = loss_contrastive(z, protos, labels, temperature=1e6)
        assert parts.total.value == pytest.approx(np.log(4.0), abs=1e-4)

    def test_label_out_of_range_rejected(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ContractError):
            loss_contrastive(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)), [0, 2], 0.5)

    def test_gradient_check(self):
        rng = np.random.default_rng(18)
        z = rng.standard_normal((5, 4))
        protos = rng.standard_normal((3, 4))
        labels = rng.integers(0, 3, size=5)
        report = check_gradient(
            AlignmentKind.parse("contrastive", temperature=0.7), z, protos, labels,
            tolerance=1e-4,
        )
        assert report.passed, report


class TestProcrustes:
    def test_identical_inputs(self):
        p, _ = _pair(19, 5, 3)
        dec = procrustes_decompose(p, p)
        assert dec.l_coord == pytest.approx(0.0, abs=1e-12)
        assert dec.l_shape == pytest.approx(0.0, abs=1e-12)
        assert dec.l_rigid == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(dec.rotation, np.eye(3), atol=1e-9)

    def test_rotated_input_is_pure_rigid(self):
        p, _ = _pair(20, 6, 4)
        r0 = random_orthogonal(4, seed=200)
        dec = procrustes_decompose(p @ r0, p)
        assert dec.l_shape <= 1e-9
        assert dec.l_rigid == pytest.approx(dec.l_coord, abs=1e-9)

    def test_additivity_and_rigid_sign(self):
        for seed in range(10):
            z, p = _pair(21 + seed, 5, 3)
            dec = procrustes_decompose(z, p)
            assert dec.l_coord == pytest.approx(dec.l_shape + dec.l_rigid, abs=1e-9)
            assert dec.l_rigid >= -1e-12

    def test_zero_row_rejected(self):
        p, _ = _pair(31, 3, 3)
        z = p.copy()
        z[1] = 0.0
        with pytest.raises(DegenerateInputError):
            procrustes_decompose(z, p)


class TestPairwiseDispatcher:
    def test_dispatches_by_name(self):
        a, b = _pair(32, 4, 3)
        assert pairwise_loss("gcsa", a, b).value == loss_gcsa(a, b).value
        assert pairwise_loss(AlignmentKind.parse("rcsa"), a, b).value == loss_rcsa(a, b).value

    def test_rejects_contrastive(self):
        a, b = _pair(33, 4, 3)
        with pytest.raises(ContractError):
            pairwise_loss("contrastive", a, b)


# The reasons a loss refuses an input, word for word: the training loop logs
# them as skips, and the public losses raise them.  Where both sides are
# degenerate the first check wins: first matrix before second, embeddings
# before prototypes.
_P = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0], [2.0, 1.0, 0.0], [-1.0, 3.0, 1.0]])
_ZERO_ROW = np.where(np.arange(4)[:, None] == 2, 0.0, _P)
_TINY_ROW = np.where(np.arange(4)[:, None] == 1, [1e-13, 0.0, 0.0], _P)
_SAME = np.ones((4, 3))
_RAY = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
_IDENTICAL = "rows are (numerically) identical: centered norm 0.000e+00 vs scale"
# a row whose entries square past float64 has norm inf, and no unit row
_HUGE = np.array([[1e200, 1.0], [1.0, 2.0]])
_PLAIN = np.array([[1.0, 0.5], [0.3, 2.0]])


@pytest.mark.parametrize("call, message", [
    (lambda: _cosine(_ZERO_ROW, _P), "first matrix row 2 has norm 0.000e+00 <= 1e-12"),
    (lambda: _cosine(_P, _ZERO_ROW), "second matrix row 2 has norm 0.000e+00 <= 1e-12"),
    (lambda: _cosine(_TINY_ROW, _ZERO_ROW), "first matrix row 1 has norm 1.000e-13 <= 1e-12"),
    (lambda: loss_rcsa(_ZERO_ROW, _P), "first matrix row 2 has norm 0.000e+00 <= 1e-12"),
    (lambda: loss_rcsa(_P, _ZERO_ROW), "second matrix row 2 has norm 0.000e+00 <= 1e-12"),
    (lambda: loss_rcsa(_ZERO_ROW, _TINY_ROW), "first matrix row 2 has norm 0.000e+00 <= 1e-12"),
    (lambda: loss_rcsa(_RAY, _P), "first matrix distance descriptor collapsed (|u|=0.000e+00)"),
    (lambda: loss_rcsa(_P, _RAY), "second matrix distance descriptor collapsed (|v|=0.000e+00)"),
    (lambda: loss_rcsa(_RAY, 2.0 * _RAY),
     "first matrix distance descriptor collapsed (|u|=0.000e+00)"),
    (lambda: loss_gcsa(_SAME, _P), f"first matrix {_IDENTICAL} 3.464e+00"),
    (lambda: loss_gcsa(_P, 2.0 * _SAME), f"second matrix {_IDENTICAL} 6.928e+00"),
    (lambda: loss_gcsa(_SAME, 2.0 * _SAME), f"first matrix {_IDENTICAL} 3.464e+00"),
    (lambda: loss_gcsa(1e60 * _P, _P), "first matrix Gram norm 9.877e+120 is too large to cube"),
    (lambda: loss_gcsa(1e155 * _P, _P),
     "first matrix norm overflows: centered norm inf vs scale inf"),
    (lambda: loss_gcsa(_P, 1e155 * _P),
     "second matrix norm overflows: centered norm inf vs scale inf"),
    (lambda: loss_gcsa(1e100 * _P, _P), "first matrix Gram norm overflows to inf"),
    (lambda: loss_gcsa(_P, 1e100 * _P), "second matrix Gram norm overflows to inf"),
    (lambda: loss_gcsa(_P[:1], _P[:1]), "need >= 2 rows, got 1"),
    (lambda: loss_rcsa(_P[:1], _P[:1]), "need >= 2 rows, got 1"),
    (lambda: loss_contrastive(_ZERO_ROW, _P[:3], [0, 1, 2, 0], 0.5),
     "embedding row 2 has norm 0.000e+00 <= 1e-12"),
    (lambda: loss_contrastive(_P, _ZERO_ROW[:3], [0, 1, 2, 0], 0.5),
     "prototypes row 2 has norm 0.000e+00 <= 1e-12"),
    (lambda: loss_contrastive(_ZERO_ROW, _ZERO_ROW[:3], [0, 1, 2, 0], 0.5),
     "embedding row 2 has norm 0.000e+00 <= 1e-12"),
    (lambda: normalize_rows(_ZERO_ROW), "matrix row 2 has norm 0.000e+00 <= 1e-12"),
    (lambda: normalize_rows(_TINY_ROW, "z"), "z row 1 has norm 1.000e-13 <= 1e-12"),
    (lambda: normalize_rows(_HUGE), "matrix row 0 has norm inf"),
    (lambda: _cosine(_HUGE, _PLAIN), "first matrix row 0 has norm inf"),
    (lambda: _cosine(_PLAIN, _HUGE), "second matrix row 0 has norm inf"),
    (lambda: loss_rcsa(_HUGE, _PLAIN), "first matrix row 0 has norm inf"),
    (lambda: loss_rcsa(_PLAIN, _HUGE), "second matrix row 0 has norm inf"),
    (lambda: loss_contrastive(_HUGE, _PLAIN, [0, 1], 0.5), "embedding row 0 has norm inf"),
    (lambda: loss_contrastive(_PLAIN, _HUGE, [0, 1], 0.5), "prototypes row 0 has norm inf"),
], ids=["cosine-first", "cosine-second", "cosine-both", "rcsa-zero-first", "rcsa-zero-second",
        "rcsa-zero-both", "rcsa-collapsed-first", "rcsa-collapsed-second", "rcsa-collapsed-both",
        "gcsa-identical-first", "gcsa-identical-second", "gcsa-identical-both", "gcsa-cube",
        "gcsa-overflow-first", "gcsa-overflow-second", "gcsa-gram-inf-first",
        "gcsa-gram-inf-second",
        "gcsa-one-row", "rcsa-one-row", "contrastive-embedding", "contrastive-prototype",
        "contrastive-both", "normalize-rows", "normalize-rows-named", "normalize-rows-inf",
        "cosine-inf-first", "cosine-inf-second", "rcsa-inf-first", "rcsa-inf-second",
        "contrastive-inf-embedding", "contrastive-inf-prototype"])
def test_degenerate_input_messages(call, message):
    with pytest.raises(DegenerateInputError) as exc:
        call()
    assert str(exc.value) == message


def test_rcsa_pair_tables_are_cached_and_read_only():
    tables = _pair_tables(5)
    assert _pair_tables(5) is tables
    rows, cols, upper = tables
    want_rows, want_cols = np.triu_indices(5, k=1)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert np.array_equal(upper, want_rows * 5 + want_cols)
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 1

