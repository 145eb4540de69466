"""MLP zoo: construction, and the forward, cross-entropy and backprop
kernels on a stack of one model."""

import copy

import numpy as np
import pytest

from fedstruct.data import DatasetShard
from fedstruct.errors import ContractError
from fedstruct.federation import RoundConfig
from fedstruct.losses import AlignmentKind, numerical_gradient
from fedstruct.models import (
    ArchitectureSpec,
    ClientModel,
    Layer,
    _backward_and_step,
    _forward,
    _softmax_cross_entropy,
    build_model,
)
from solo import run_one, stack_of_one

# Regression values frozen from the first run whose forward pass was verified
# entry-by-entry against an independent loop implementation (max diff 2.2e-16).
GOLDEN_EMB_SUM = 5.852072881408361
GOLDEN_EMB_SQ_SUM = 4.058541786977654
GOLDEN_LOGIT_SUM = -6.162817954421227


def _forward_one(model, batch):
    """(embeddings, logits, layer inputs) of one model on (n, input_dim) rows,
    the layer inputs as the stack of one that _step_one takes."""
    emb, logits, layers, failed = _forward(stack_of_one(model), batch[None])
    assert not failed
    return emb[0], logits[0], layers


def _cross_entropy_one(logits, labels):
    """Mean softmax cross-entropy of (n, C) logits and its gradient."""
    values, grad = _softmax_cross_entropy(np.asarray(logits, dtype=np.float64)[None], labels)
    return float(values[0]), grad[0]


def _step_one(model, layers, grad_logits, grad_embeddings, learning_rate):
    """The step of one model in place; its failures."""
    return _backward_and_step(stack_of_one(model), layers, grad_logits[None],
                              grad_embeddings[None], learning_rate)


def _run_rejects(message, features=None, labels=None):
    """A run rejects a second client whose train rows are `features` and
    `labels` before any kernel sees them: the kernels trust their inputs."""
    x = np.random.default_rng(5).standard_normal((6, 4))
    y = np.array([0, 1, 2] * 2)
    shards = [DatasetShard(0, x, y, x, y),
              DatasetShard(1, x if features is None else features, y if labels is None else labels,
                           x, y)]
    with pytest.raises(ContractError, match=message):
        run_one(shards, [ArchitectureSpec((), 3)], RoundConfig(AlignmentKind.parse("gcsa")),
                rounds=1, seed=0, num_classes=3)


def _golden_model_and_batch():
    model = build_model(ArchitectureSpec((4,), 3), input_dim=5, num_classes=4, seed=2024)
    batch = np.random.default_rng(77).standard_normal((6, 5))
    return model, batch


class TestBuildModel:
    def test_no_hidden_layers_is_single_linear_map(self):
        model = build_model(ArchitectureSpec((), 4), input_dim=6, num_classes=3, seed=0)
        assert len(model.extractor) == 1
        assert model.extractor[0].weights.shape == (6, 4)
        assert model.extractor[0].activation == "linear"

    def test_same_seed_is_bitwise_identical(self):
        spec = ArchitectureSpec((8, 4), 3)
        a = build_model(spec, 5, 3, seed=42)
        b = build_model(spec, 5, 3, seed=42)
        for la, lb in zip(a.extractor, b.extractor):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
        np.testing.assert_array_equal(a.classifier_weights, b.classifier_weights)
        np.testing.assert_array_equal(a.classifier_bias, b.classifier_bias)

    def test_rejects_single_class(self):
        with pytest.raises(ContractError):
            build_model(ArchitectureSpec((), 3), input_dim=4, num_classes=1, seed=0)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ContractError):
            ArchitectureSpec((0,), 3)


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        model = build_model(ArchitectureSpec((3,), 2), input_dim=4, num_classes=3, seed=0)
        for layer in model.extractor:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        model.classifier_weights[:] = 0.0
        model.classifier_bias[:] = 0.0
        _, logits, _ = _forward_one(model, np.random.default_rng(1).standard_normal((5, 4)))
        np.testing.assert_array_equal(logits, 0.0)

    def test_identity_extractor_passes_input_through(self):
        model = build_model(ArchitectureSpec((), 3), input_dim=3, num_classes=2, seed=0)
        model.extractor[0].weights[:] = np.eye(3)
        model.extractor[0].bias[:] = 0.0
        batch = np.random.default_rng(2).standard_normal((4, 3))
        emb, _, _ = _forward_one(model, batch)
        np.testing.assert_array_equal(emb, batch)

    def test_golden_embedding_checksum(self):
        model, batch = _golden_model_and_batch()
        emb, logits, _ = _forward_one(model, batch)
        assert float(emb.sum()) == pytest.approx(GOLDEN_EMB_SUM, rel=1e-12)
        assert float((emb * emb).sum()) == pytest.approx(GOLDEN_EMB_SQ_SUM, rel=1e-12)
        assert float(logits.sum()) == pytest.approx(GOLDEN_LOGIT_SUM, rel=1e-12)

    def test_batch_order_equivariance(self):
        model, batch = _golden_model_and_batch()
        perm = np.random.default_rng(3).permutation(batch.shape[0])
        emb, logits, _ = _forward_one(model, batch)
        emb_p, logits_p, _ = _forward_one(model, batch[perm])
        np.testing.assert_array_equal(emb[perm], emb_p)
        np.testing.assert_array_equal(logits[perm], logits_p)

    def test_wrong_width_rejected(self):
        _run_rejects("^client 1: train features have 7 columns, the first shard's 4$",
                     features=np.ones((6, 7)))


class TestLossSupervised:
    def test_uniform_logits_two_classes(self):
        value, _ = _cross_entropy_one(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_huge_correct_margin_vanishes(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        value, _ = _cross_entropy_one(logits, np.array([0, 1]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        _, grad = _cross_entropy_one(logits, labels)
        num = numerical_gradient(lambda x: _cross_entropy_one(x, labels)[0], logits)
        rel = np.max(np.abs(grad - num)) / max(np.max(np.abs(num)), 1e-12)
        assert rel <= 1e-6

    def test_label_out_of_range_rejected(self):
        _run_rejects(r"^client 1: train labels out of range \[0, 3\): got 3$",
                     labels=np.array([0, 3, 0, 1, 2, 1]))

    def test_float_labels_rejected(self):
        _run_rejects("^client 1: train labels must be integers, got float64$",
                     labels=np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0]))


class TestBackwardAndStep:
    def test_zero_gradients_leave_model_unchanged(self):
        model, batch = _golden_model_and_batch()
        before = copy.deepcopy(model)
        _, logits, cache = _forward_one(model, batch)
        _step_one(model, cache, np.zeros_like(logits), np.zeros((6, 3)), 0.5)
        np.testing.assert_array_equal(model.classifier_weights, before.classifier_weights)
        for la, lb in zip(model.extractor, before.extractor):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_zero_learning_rate_leaves_model_unchanged(self):
        model, batch = _golden_model_and_batch()
        before = copy.deepcopy(model)
        emb, logits, cache = _forward_one(model, batch)
        _step_one(model, cache, np.ones_like(logits), np.ones_like(emb), 0.0)
        np.testing.assert_array_equal(model.classifier_weights, before.classifier_weights)
        np.testing.assert_array_equal(
            model.extractor[0].weights, before.extractor[0].weights
        )

    def test_closed_form_update_on_linear_model(self):
        # 1-layer linear extractor; an MSE-style target loss on the logits has
        # grad 2(logits - target)/n, and plain SGD must then produce exactly:
        #   Wc' = Wc - lr z^T G,  bc' = bc - lr sum(G)
        #   We' = We - lr x^T (G Wc^T),  be' = be - lr sum(G Wc^T)
        x = np.array([[1.0, 2.0], [0.0, 1.0]])
        we = np.array([[0.5, -0.25], [0.1, 0.3]])
        be = np.array([0.05, -0.1])
        wc = np.array([[0.2, -0.1], [0.4, 0.3]])
        bc = np.array([0.0, 0.1])
        model = ClientModel(
            extractor=[Layer(we.copy(), be.copy(), "linear")],
            classifier_weights=wc.copy(),
            classifier_bias=bc.copy(),
        )
        emb, logits, cache = _forward_one(model, x)
        target = np.array([[0.1, -0.3], [0.2, 0.0]])
        g = 2.0 * (logits - target) / 2.0
        g_emb = g @ wc.T
        lr = 0.3
        _step_one(model, cache, g, g_emb, lr)
        np.testing.assert_array_equal(model.classifier_weights, wc - lr * (emb.T @ g))
        np.testing.assert_array_equal(model.classifier_bias, bc - lr * g.sum(axis=0))
        np.testing.assert_array_equal(
            model.extractor[0].weights, we - lr * (x.T @ g_emb)
        )
        np.testing.assert_array_equal(model.extractor[0].bias, be - lr * g_emb.sum(axis=0))

    def test_non_finite_gradient_aborts_without_mutation(self):
        model, batch = _golden_model_and_batch()
        before = copy.deepcopy(model)
        emb, logits, cache = _forward_one(model, batch)
        bad = np.full_like(emb, np.inf)
        with np.errstate(invalid="ignore", over="ignore"):
            failed = _step_one(model, cache, np.zeros_like(logits), bad, 0.1)
        assert failed == {0: "non-finite parameter gradient; step aborted"}
        np.testing.assert_array_equal(model.classifier_weights, before.classifier_weights)
        for la, lb in zip(model.extractor, before.extractor):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_heterogeneous_specs_have_incompatible_shapes(self):
        a = build_model(ArchitectureSpec((16,), 8), 16, 10, seed=0)
        b = build_model(ArchitectureSpec((32, 16), 8), 16, 10, seed=0)
        shapes_a = [l.weights.shape for l in a.extractor]
        shapes_b = [l.weights.shape for l in b.extractor]
        assert shapes_a != shapes_b

