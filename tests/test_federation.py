"""Client/server prototype protocol: local steps, rounds, aggregation, runs."""

import copy
import logging

import numpy as np
import pytest

from fedstruct import federation
from fedstruct.analysis import effective_dimensionality
from fedstruct.config import ExperimentConfig, ModelConfig, round_config
from fedstruct.data import DatasetShard, generate_mixture, partition_dirichlet
from fedstruct.errors import ContractError, NumericFailureError
from fedstruct.federation import (
    PrototypeSet,
    RoundConfig,
    _accuracy,
    _class_means,
    aggregate_prototypes,
    fixed_hypersphere_prototypes,
    run_experiments,
)
from fedstruct.losses import KNOWN_LOSSES, AlignmentKind, loss_contrastive, pairwise_loss
from fedstruct.models import (
    ArchitectureSpec,
    _backward_and_step,
    _forward,
    _softmax_cross_entropy,
    build_model,
)
from fedstruct.tensor import random_orthogonal
from solo import run_one, stack_of_one, train_step

# the run configuration's default zoo in a 4-dimensional feature space
ZOO = [ArchitectureSpec(tuple(widths), 4) for widths in ModelConfig().hidden_widths]


def _kind(name="gcsa", tau=0.5):
    return AlignmentKind.parse(name, temperature=tau)


def _cfg(**kw):
    defaults = dict(alignment=_kind(), lam=1.0, gamma=1.0, local_epochs=1,
                    batch_size=8, learning_rate=0.1)
    defaults.update(kw)
    return RoundConfig(**defaults)


def _models_equal(a, b):
    if not np.array_equal(a.classifier_weights, b.classifier_weights):
        return False
    if not np.array_equal(a.classifier_bias, b.classifier_bias):
        return False
    for la, lb in zip(a.extractor, b.extractor):
        if not (np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)):
            return False
    return True


def _loop_means(emb, labels, num_classes):
    """Per-class means and counts, one class at a time (the reference)."""
    vectors = np.zeros((num_classes, emb.shape[1]))
    counts = np.zeros(num_classes, dtype=np.int64)
    for c in range(num_classes):
        members = labels == c
        if members.any():
            vectors[c] = emb[members].mean(axis=0)
            counts[c] = members.sum()
    return vectors, counts


def _loop_aggregate(uploads, previous=None):
    """Count-weighted mean over the uploads holding each class, one class at
    a time, then stale classes from `previous` (the reference)."""
    num_classes, dim = uploads[0].vectors.shape
    vectors = np.zeros((num_classes, dim))
    counts = np.zeros(num_classes, dtype=np.int64)
    for c in range(num_classes):
        holders = [u for u in uploads if u.counts[c] >= 1]
        if holders:
            wts = np.array([u.counts[c] for u in holders], dtype=np.float64)
            stacked = np.stack([u.vectors[c] for u in holders])
            vectors[c] = (wts[:, None] * stacked).sum(axis=0) / wts.sum()
            counts[c] = int(wts.sum())
        elif previous is not None and previous.counts[c] >= 1:
            vectors[c] = previous.vectors[c]
            counts[c] = previous.counts[c]
    return vectors, counts


def _random_set(rng, num_classes, dim, absent_share=0.3):
    counts = rng.integers(1, 20, num_classes) * (rng.random(num_classes) >= absent_share)
    return PrototypeSet(rng.standard_normal((num_classes, dim)), counts)


class TestPrototypeSet:
    def test_set_validates_dim(self):
        with pytest.raises(ContractError):
            PrototypeSet(np.zeros((2, 3)), [1, 1, 1])  # counts longer than the rows
        with pytest.raises(ContractError):
            PrototypeSet(np.zeros(3), [1, 1, 1])  # vectors must be (C, d)

    def test_set_rejects_non_finite(self):
        with pytest.raises(ContractError):
            PrototypeSet([[np.inf, 1.0]], [1])

    def test_rejects_bad_counts(self):
        with pytest.raises(ContractError):
            PrototypeSet(np.zeros((2, 2)), [1, -1])
        with pytest.raises(ContractError):
            PrototypeSet(np.zeros((2, 2)), [1.0, 2.0])

    def test_stack_orders_and_validates(self):
        ps = PrototypeSet([[5.0, 5.0], [1.0, 0.0], [0.0, 0.0], [3.0, 0.0]], [0, 1, 0, 2])
        assert ps.classes() == [1, 3]
        np.testing.assert_array_equal(ps.present, [False, True, False, True])
        np.testing.assert_array_equal(ps.vectors[..., ps.present, :], [[1.0, 0.0], [3.0, 0.0]])
        np.testing.assert_array_equal(ps.slot, [-1, 0, -1, 1])
        np.testing.assert_array_equal(ps.vectors[0], [0.0, 0.0])  # absent rows read as zero
        assert (ps.num_classes, ps.dim) == (4, 2)
        assert not ps.is_empty and PrototypeSet(np.ones((2, 2)), [0, 0]).is_empty

    def test_is_immutable(self):
        source = np.array([[1.0, 2.0]])
        ps = PrototypeSet(source, [1])
        source[0, 0] = 9.0
        assert ps.vectors[0, 0] == 1.0
        with pytest.raises(ValueError):
            ps.vectors[0, 0] = 5.0

    def test_unit_rows_of_the_present_rows_are_read_only(self):
        ps = PrototypeSet([[3.0, 4.0], [7.0, 7.0], [0.0, 2.0]], [1, 0, 2])
        np.testing.assert_array_equal(ps.unit, [[0.6, 0.8], [0.0, 1.0]])
        np.testing.assert_array_equal(ps.norms, [5.0, 2.0])
        for cache in (ps.unit, ps.norms):
            with pytest.raises(ValueError):
                cache[0] = 1.0


class TestBatchPrototypes:
    """The per-class means of a batch (federation._class_means), on a stack of one."""

    def _means(self, emb, labels, num_classes):
        means, counts = _class_means(np.asarray(emb, dtype=np.float64)[None],
                                     np.asarray(labels), num_classes)
        return means[0], counts

    def test_singletons_equal_their_row(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0]])
        vectors, counts = self._means(emb, [5, 9], 10)
        np.testing.assert_array_equal(vectors[5], [1.0, 2.0])
        np.testing.assert_array_equal(vectors[9], [3.0, 4.0])
        assert np.flatnonzero(counts).tolist() == [5, 9]
        assert counts[5] == counts[9] == 1

    def test_identical_rows_average_to_the_row(self):
        vectors, _ = self._means([[1.0, 1.0], [1.0, 1.0]], [0, 0], 1)
        np.testing.assert_array_equal(vectors[0], [1.0, 1.0])

    def test_hand_mean(self):
        vectors, counts = self._means([[1.0, 0.0], [3.0, 0.0]], [2, 2], 3)
        np.testing.assert_array_equal(vectors[2], [2.0, 0.0])
        assert counts[2] == 2

    def test_num_classes_pads_absent_classes(self):
        vectors, counts = self._means(np.ones((2, 3)), [1, 1], num_classes=4)
        assert vectors.shape == (4, 3) and np.flatnonzero(counts).tolist() == [1]
        np.testing.assert_array_equal(vectors[[0, 2, 3]], 0.0)

    def test_bit_identical_to_per_class_loop(self):
        # d >= 2: numpy sums the rows of a one-column matrix pairwise, not in
        # order, so at d == 1 the loop's means may differ in the last bit
        rng = np.random.default_rng(40)
        for _ in range(200):
            n, d, classes = int(rng.integers(1, 65)), int(rng.integers(2, 17)), 10
            emb = rng.standard_normal((n, d)) * rng.uniform(0.01, 100.0)
            labels = rng.integers(0, classes, n)
            got, got_counts = self._means(emb, labels, classes)
            vectors, counts = _loop_means(emb, labels, classes)
            assert got.tobytes() == vectors.tobytes()
            np.testing.assert_array_equal(got_counts, counts)


class TestAggregatePrototypes:
    def _ps(self, entries, num_classes=8, dim=None):
        dim = dim or len(entries[0][1])
        vectors = np.zeros((num_classes, dim))
        counts = np.zeros(num_classes, dtype=np.int64)
        for c, v, n in entries:
            vectors[c], counts[c] = v, n
        return PrototypeSet(vectors, counts)

    def test_single_upload_identity(self):
        up = self._ps([(0, [1.0, 2.0], 4)])
        agg = aggregate_prototypes([up])
        np.testing.assert_array_equal(agg.vectors[0], [1.0, 2.0])
        assert agg.counts[0] == 4
        assert agg.classes() == [0]

    def test_symmetric_average(self):
        a = self._ps([(0, [0.0, 2.0], 5)])
        b = self._ps([(0, [2.0, 0.0], 5)])
        np.testing.assert_allclose(aggregate_prototypes([a, b]).vectors[0], [1.0, 1.0])

    def test_count_weighted_average(self):
        a = self._ps([(0, [0.0, 0.0], 1)])
        b = self._ps([(0, [4.0, 4.0], 3)])
        agg = aggregate_prototypes([a, b])
        np.testing.assert_allclose(agg.vectors[0], [3.0, 3.0])
        assert agg.counts[0] == 4

    def test_stale_class_retained_from_previous(self):
        prev = self._ps([(7, [9.0, 9.0], 2)])
        up = self._ps([(0, [1.0, 1.0], 1)])
        agg = aggregate_prototypes([up], previous=prev)
        np.testing.assert_array_equal(agg.vectors[7], [9.0, 9.0])
        assert agg.counts[7] == 2
        assert agg.classes() == [0, 7]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        ups = [
            self._ps([(c, rng.standard_normal(3), int(rng.integers(1, 9)))
                      for c in range(4)])
            for _ in range(5)
        ]
        a = aggregate_prototypes(ups)
        b = aggregate_prototypes(ups[::-1])
        np.testing.assert_allclose(a.vectors, b.vectors, atol=1e-12)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(1)
        ups = [self._ps([(0, rng.standard_normal(4), int(rng.integers(1, 5)))])
               for _ in range(4)]
        agg = aggregate_prototypes(ups).vectors[0]
        stacked = np.stack([u.vectors[0] for u in ups])
        assert np.all(agg >= stacked.min(axis=0) - 1e-12)
        assert np.all(agg <= stacked.max(axis=0) + 1e-12)

    def test_bit_identical_to_per_class_loop(self):
        rng = np.random.default_rng(41)  # dim >= 2, as in TestBatchPrototypes
        for _ in range(200):
            classes, dim = int(rng.integers(1, 12)), int(rng.integers(2, 17))
            ups = [_random_set(rng, classes, dim) for _ in range(int(rng.integers(1, 33)))]
            prev = _random_set(rng, classes, dim) if rng.random() < 0.7 else None
            agg = aggregate_prototypes(ups, previous=prev)
            vectors, counts = _loop_aggregate(ups, prev)
            assert agg.vectors.tobytes() == vectors.tobytes()
            np.testing.assert_array_equal(agg.counts, counts)

    def test_rejects_foreign_payloads(self):
        with pytest.raises(TypeError):
            aggregate_prototypes([{"weights": [1.0]}])

    def test_overflow_is_a_numeric_failure(self):
        s = PrototypeSet(np.full((2, 3), 1e308), [2, 2])
        with pytest.raises(NumericFailureError) as exc:
            aggregate_prototypes([s, s])
        assert str(exc.value) == "aggregation produced non-finite prototypes"

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ContractError):
            aggregate_prototypes([self._ps([(0, [1.0, 2.0], 1)]),
                                  self._ps([(0, [1.0, 2.0], 1)], num_classes=3)])
        with pytest.raises(ContractError):
            aggregate_prototypes([])


class TestFixedHypersphere:
    def test_two_classes_antipodal(self):
        ps = fixed_hypersphere_prototypes(2, 4, seed=0)
        assert ps.classes() == [0, 1]
        inner = float(ps.vectors[0] @ ps.vectors[1])
        assert inner <= -1.0 + 1e-6

    def test_unit_norms(self):
        ps = fixed_hypersphere_prototypes(6, 5, seed=1)
        for v in ps.vectors:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-10

    def test_tetrahedral_angle(self):
        ps = fixed_hypersphere_prototypes(4, 3, seed=2)
        mat = ps.vectors
        angles = []
        for i in range(4):
            for j in range(i + 1, 4):
                angles.append(np.degrees(np.arccos(np.clip(mat[i] @ mat[j], -1, 1))))
        assert min(angles) == pytest.approx(109.4712, abs=2.0)

    def test_deterministic(self):
        a = fixed_hypersphere_prototypes(5, 4, seed=3).vectors
        b = fixed_hypersphere_prototypes(5, 4, seed=3).vectors
        np.testing.assert_array_equal(a, b)

    def test_runs_share_one_anchor_set_per_process(self, monkeypatch):
        computed, got = [], []
        spread, anchors = federation.fixed_hypersphere_prototypes, federation._anchors
        monkeypatch.setattr(federation, "fixed_hypersphere_prototypes",
                            lambda *args: computed.append(args) or spread(*args))
        monkeypatch.setattr(federation, "_anchors",
                            lambda *args: got.append(anchors(*args)) or got[-1])
        anchors.cache_clear()
        shard = _shard_from(generate_mixture(3, 5, 12, 1.0, 0.5, seed=30))
        for _ in range(2):
            run_one([shard], [ArchitectureSpec((), 4)], _cfg(prototype_mode="fixed_hypersphere"),
                    rounds=1, seed=31, num_classes=3)
        assert len(computed) == 1 and got[0] is got[1]
        fresh = spread(3, 4, np.random.SeedSequence([31, 4]))
        np.testing.assert_array_equal(got[0].vectors, fresh.vectors)


class TestRoundConfig:
    def test_rejects_negative_weights(self):
        for lam in (-0.1, float("nan")):
            with pytest.raises(ContractError):
                _cfg(lam=lam)

    def test_rejects_tiny_batch(self):
        with pytest.raises(ContractError):
            _cfg(batch_size=1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ContractError):
            _cfg(prototype_mode="frozen")


class TestLocalTrainStep:
    """The engine's training step of one model (solo.train_step)."""

    def _batch(self, seed=0, n=12, d=5, classes=3):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, d)), rng.integers(0, classes, size=n)

    def test_zero_weights_match_pure_supervised(self):
        batch, labels = self._batch()
        model_a = build_model(ArchitectureSpec((6,), 4), 5, 3, seed=5)
        model_b = copy.deepcopy(model_a)
        protos = fixed_hypersphere_prototypes(3, 4, seed=6)
        cfg = _cfg(lam=0.0, gamma=0.0, learning_rate=0.2)
        train_step(model_a, batch, labels, protos, cfg)
        stack = stack_of_one(model_b)
        _, logits, cache, _ = _forward(stack, batch[None])
        _, grad_logits = _softmax_cross_entropy(logits, labels)
        _backward_and_step(stack, cache, grad_logits,
                           grad_logits @ stack.classifier_weights.swapaxes(1, 2), 0.2)
        assert _models_equal(model_a, model_b)

    def test_bootstrap_with_empty_set_is_supervised_only(self):
        batch, labels = self._batch(seed=7)
        model = build_model(ArchitectureSpec((), 4), 5, 3, seed=8)
        for protos in (None, PrototypeSet(np.zeros((3, 4)), np.zeros(3, dtype=np.int64))):
            (_, proto, inst, _), _, _ = train_step(model, batch, labels, protos, _cfg())
            assert proto == 0.0
            assert inst == 0.0

    def test_gcsa_proto_term_invariant_to_scaled_rotation(self):
        batch, labels = self._batch(seed=9, n=15, d=5, classes=4)
        model = build_model(ArchitectureSpec((8,), 4), 5, 4, seed=10)
        emb = _forward(stack_of_one(model), batch[None])[0]
        means, counts = _class_means(emb, labels, 4)
        rot = random_orthogonal(4, seed=11)
        protos = PrototypeSet(1.7 * (means[0] @ rot), (counts >= 1).astype(int))
        (_, proto, _, _), _, _ = train_step(model, batch, labels, protos, _cfg(gamma=0.0))
        assert proto <= 1e-8

    def test_breakdown_total_identity(self):
        batch, labels = self._batch(seed=12)
        model = build_model(ArchitectureSpec((6,), 4), 5, 3, seed=13)
        protos = fixed_hypersphere_prototypes(3, 4, seed=14)
        cfg = _cfg(alignment=_kind("mse"), lam=0.7, gamma=1.3)
        (sup, proto, inst, total), _, _ = train_step(model, batch, labels, protos, cfg)
        assert total == pytest.approx(sup + 0.7 * proto + 1.3 * inst, abs=1e-12)

    def test_missing_class_excluded_from_alignment_not_supervision(self):
        batch, labels = self._batch(seed=15, n=12, d=5, classes=3)
        model = build_model(ArchitectureSpec((6,), 4), 5, 3, seed=16)
        emb, logits, _, _ = _forward(stack_of_one(model), batch[None])
        anchors = fixed_hypersphere_prototypes(3, 4, seed=17)
        protos = PrototypeSet(anchors.vectors, [1, 1, 0])  # class 2 unknown globally
        cfg = _cfg(alignment=_kind("mse"), lam=0.0, gamma=1.0)
        (sup, _, inst, _), _, _ = train_step(copy.deepcopy(model), batch, labels, protos, cfg)
        known = np.isin(labels, [0, 1])
        targets = np.stack([protos.vectors[int(c)] for c in labels[known]])
        expected = float(np.mean(np.sum((emb[0][known] - targets) ** 2, axis=1)))
        assert inst == pytest.approx(expected, rel=1e-12)
        assert sup == pytest.approx(_softmax_cross_entropy(logits, labels)[0][0], rel=1e-12)

    def test_structural_skip_below_minimum_rows(self):
        batch, labels = self._batch(seed=18, n=10, d=5, classes=2)
        model = build_model(ArchitectureSpec((6,), 4), 5, 2, seed=19)
        protos = fixed_hypersphere_prototypes(2, 4, seed=20)
        (_, proto, _, _), skipped, _ = train_step(model, batch, labels, protos, _cfg(gamma=0.0))
        assert proto == 0.0
        assert skipped >= 1

    def test_skipped_terms_are_logged_with_their_reason(self, caplog):
        batch, _ = self._batch(seed=24, n=10)
        labels = np.array([0, 0, 1, 1, 1, 2, 2, 2, 1, 2])
        model = build_model(ArchitectureSpec((6,), 4), 5, 3, seed=25)
        anchors = fixed_hypersphere_prototypes(3, 4, seed=26)
        protos = PrototypeSet(anchors.vectors, [1, 0, 0])  # class 0 alone is known
        with caplog.at_level(logging.DEBUG, logger="fedstruct.federation"):
            _, skipped, _ = train_step(model, batch, labels, protos, _cfg())
        assert skipped == 2
        assert "proto term of gcsa skipped: 1 rows < 3" in caplog.messages
        assert "inst term of gcsa skipped: 2 rows < 3" in caplog.messages

    @pytest.mark.parametrize("loss, reason", [
        ("cosine", "second matrix row 1 has norm 0.000e+00 <= 1e-12"),
        ("rcsa", "second matrix row 1 has norm 0.000e+00 <= 1e-12"),
        ("contrastive", "prototypes row 1 has norm 0.000e+00 <= 1e-12"),
    ])
    def test_zero_aggregated_prototype_skip_names_its_row(self, caplog, loss, reason):
        batch, _ = self._batch(seed=32, n=9)
        labels = np.array([0, 1, 2] * 3)
        model = build_model(ArchitectureSpec((6,), 4), 5, 3, seed=33)
        vectors = np.random.default_rng(34).standard_normal((3, 4))
        # two uploads whose class-1 prototypes cancel in the weighted mean
        protos = aggregate_prototypes([PrototypeSet(vectors, [2, 3, 2]),
                                       PrototypeSet(vectors * [[1.0], [-1.0], [1.0]], [2, 3, 2])])
        assert protos.norms[1] == 0.0
        with caplog.at_level(logging.DEBUG, logger="fedstruct.federation"):
            (_, proto, inst, _), skipped, _ = train_step(model, batch, labels, protos,
                                                         _cfg(alignment=_kind(loss)))
        assert skipped == 2 and proto == inst == 0.0
        assert f"proto term of {loss} skipped: {reason}" in caplog.messages

    @pytest.mark.parametrize("loss, reason", [
        ("cosine", "second matrix row 1 has norm inf"),
        ("rcsa", "second matrix row 1 has norm inf"),
        ("contrastive", "prototypes row 1 has norm inf"),
    ])
    def test_global_prototype_too_large_to_measure_skips_its_terms(self, caplog, loss, reason):
        batch, _ = self._batch(seed=32, n=9)
        labels = np.array([0, 1, 2] * 3)
        model = build_model(ArchitectureSpec((6,), 4), 5, 3, seed=33)
        vectors = np.random.default_rng(34).standard_normal((3, 4))
        vectors[1, 0] = 1e200  # its squares overflow, so its norm is inf
        protos = PrototypeSet(vectors, [2, 3, 2])
        assert protos.norms[1] == np.inf
        with caplog.at_level(logging.DEBUG, logger="fedstruct.federation"):
            (_, proto, inst, _), skipped, _ = train_step(model, batch, labels, protos,
                                                         _cfg(alignment=_kind(loss)))
        assert skipped == 2 and proto == inst == 0.0
        for term in ("proto", "inst"):
            assert f"{term} term of {loss} skipped: {reason}" in caplog.messages

    @pytest.mark.parametrize("loss", KNOWN_LOSSES)
    def test_no_batch_class_in_global_set_is_a_supervised_step(self, loss):
        batch, _ = self._batch(seed=27)
        labels = np.array([0, 1] * 6)
        model = build_model(ArchitectureSpec((6,), 4), 5, 3, seed=28)
        anchors = fixed_hypersphere_prototypes(3, 4, seed=29)
        protos = PrototypeSet(anchors.vectors, [0, 0, 1])  # class 2 alone is known
        aligned = copy.deepcopy(model)
        (_, proto, inst, _), skipped, _ = train_step(aligned, batch, labels, protos,
                                                     _cfg(alignment=_kind(loss)))
        train_step(model, batch, labels, protos, _cfg(alignment=_kind(loss), lam=0.0, gamma=0.0))
        assert (proto, inst, skipped) == (0.0, 0.0, 0)
        assert _models_equal(aligned, model)


def _shard_from(ds, client_id=0):
    tr, te = np.nonzero(~ds.test_mask)[0], np.nonzero(ds.test_mask)[0]
    return DatasetShard(
        client_id=client_id,
        train_features=ds.features[tr],
        train_labels=ds.labels[tr],
        test_features=ds.features[te],
        test_labels=ds.labels[te],
    )


class TestClientRound:
    """A participant's local training within a run."""

    def _shard(self, seed=0):
        return _shard_from(generate_mixture(3, 5, 12, 1.0, 0.5, seed=seed))

    def test_empty_schedule_leaves_model_unchanged(self):
        # config validation forbids local_epochs=0, so exercise the engine's
        # empty-schedule tolerance directly: no steps -> zero loss terms and
        # the untrained model's accuracy in every round
        shard = self._shard()
        cfg = _cfg()
        object.__setattr__(cfg, "local_epochs", 0)
        reports = run_one([shard], [ArchitectureSpec((4,), 3)], cfg, rounds=2, seed=21,
                          num_classes=3)
        untrained = build_model(ArchitectureSpec((4,), 3), 5, 3, np.random.SeedSequence([21, 0, 0]))
        acc, _ = _accuracy(stack_of_one(untrained), shard.test_features[None], shard.test_labels)
        for rep in reports:
            assert rep.loss_terms == {0: dict.fromkeys(("sup", "proto", "inst", "total"), 0.0)}
            assert rep.per_client_accuracy == [acc[0]]

    def test_deterministic(self):
        shard = self._shard(seed=1)
        cfg = _cfg(prototype_mode="fixed_hypersphere")
        a, b = (run_one([shard], [ArchitectureSpec((4,), 3)], cfg, rounds=2, seed=99,
                        num_classes=3) for _ in range(2))
        assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]

    def test_upload_covers_exactly_train_classes(self, tmp_path):
        # one client whose train split lacks class 2: after round 0 the
        # global set is its upload alone, so the snapshot lists its classes
        shard = self._shard(seed=2)
        keep = shard.train_labels != 2
        shard.train_features = shard.train_features[keep]
        shard.train_labels = shard.train_labels[keep]
        run_experiments([shard], [ArchitectureSpec((4,), 3)], [_cfg()], rounds=1, seed=2,
                        num_classes=3, snapshot_dirs=[tmp_path])
        with open(tmp_path / "round_0.csv") as fh:
            classes = [int(line.split(",")[0]) for line in fh.read().splitlines()[1:]]
        assert classes == sorted(np.unique(shard.train_labels).tolist()) == [0, 1]

    def test_numeric_failure_carries_client_id(self):
        ds = generate_mixture(3, 5, 12, 1.0, 0.5, seed=3)
        shard = _shard_from(ds, client_id=7)
        shard.train_features = shard.train_features * 1e200
        cfg = _cfg(alignment=_kind("mse"), prototype_mode="fixed_hypersphere")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericFailureError, match="^round 0: client 7: "):
                run_one([shard], [ArchitectureSpec((), 3)], cfg, rounds=1, seed=0, num_classes=3)

    def test_tiny_shard_rejected(self):
        ds = generate_mixture(2, 4, 10, 1.0, 0.5, seed=4)
        shard = _shard_from(ds)
        shard.train_features = shard.train_features[:1]
        shard.train_labels = shard.train_labels[:1]
        with pytest.raises(ContractError, match="1 train rows"):
            run_one([shard], [ArchitectureSpec((), 3)], _cfg(), rounds=1, seed=0, num_classes=2)


def _no_test_rows(s):
    s.test_features, s.test_labels = s.test_features[:0], s.test_labels[:0]


def _set(name, index, value):
    def corrupt(s):
        array = getattr(s, name).copy()
        array[index] = value
        setattr(s, name, array)
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_no_test_rows, r"client 1: test features must be non-empty, got shape \(0, 5\)"),
    (_set("train_labels", 0, 3), r"client 1: train labels out of range \[0, 3\): got 3"),
    (lambda s: setattr(s, "train_features", s.train_features[:, :-1]),
     "client 1: train features have 4 columns, the first shard's 5"),
    (_set("test_labels", 0, 7), r"client 1: test labels out of range \[0, 3\): got 7"),
    (_set("train_features", (0, 0), np.nan), "client 1: train features contains non-finite"),
], ids=["no_test_rows", "train_label", "columns", "test_label", "nan"])
def test_run_checks_every_shard_before_training(corrupt, message):
    ds = generate_mixture(3, 5, 30, 1.0, 0.6, seed=0)
    shards = partition_dirichlet(ds, alpha=2.0, num_clients=2, seed=0)
    corrupt(shards[1])
    with pytest.raises(ContractError, match=message):
        run_one(shards, [ArchitectureSpec((), 3)], _cfg(), rounds=1, seed=0, num_classes=3)


def test_round_config_defaults_are_the_config_files():
    assert round_config(ExperimentConfig()) == RoundConfig(AlignmentKind.parse("gcsa", 0.5))


@pytest.mark.parametrize("change, message", [
    (dict(rounds=-1), "rounds must be >= 0"),
    (dict(archs=[]), "at least one architecture"),
    (dict(shards=[]), "at least one shard"),
    (dict(archs=[ArchitectureSpec((), 3), ArchitectureSpec((), 4)]), "share one feature_dim"),
    (dict(cfgs=[]), "at least one RoundConfig"),
    (dict(snapshot_dirs=[None, None]), "one snapshot directory per config"),
], ids=["rounds", "no_archs", "no_shards", "feature_dims", "no_cfgs", "snapshot_dirs"])
def test_run_experiments_rejects_bad_arguments(change, message):
    ds = generate_mixture(3, 5, 30, 1.0, 0.6, seed=0)
    args = dict(shards=partition_dirichlet(ds, alpha=2.0, num_clients=2, seed=0),
                archs=[ArchitectureSpec((), 3)], cfgs=[_cfg()], rounds=1, seed=0,
                num_classes=3)
    with pytest.raises(ContractError, match=message):
        run_experiments(**{**args, **change})


_ROWS = np.array([[1.0, 0.5], [0.3, 2.0], [-1.0, 0.2]])


@pytest.mark.parametrize("call, error, outcome", [
    (lambda: aggregate_prototypes([PrototypeSet(np.full((2, 3), 1e308), [2, 2])] * 2),
     NumericFailureError, "aggregation produced non-finite prototypes"),
    (lambda: pairwise_loss("mse", np.full((2, 2), 1e200), _ROWS[:2]).value, None, np.inf),
    (lambda: loss_contrastive(_ROWS, _ROWS, [0, 1, 2], 5e-324).total.value, None, np.nan),
], ids=["aggregate_prototypes", "pairwise_loss", "loss_contrastive"])
def test_public_wrappers_meet_overflow_without_warnings(call, error, outcome):
    # each input overflows inside the wrapper's kernel, which warns unless
    # the wrapper sets its error state; the suite turns warnings into
    # errors (pyproject.toml).  A wrapper ends in its documented error, or,
    # where it documents none, returns the non-finite value its caller checks
    if error is None:
        assert np.array_equal(call(), outcome, equal_nan=True)
    else:
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == outcome


def _numpy_stream(seed, round_index, client):
    return np.random.default_rng(np.random.SeedSequence([seed, 1, round_index, client]))


def _check_streams(seed, rounds, clients):
    # one pass seeds the (seed, 1, round, client) streams; each must hold the
    # PCG64 state, and so draw the permutations, of numpy's own
    # default_rng(SeedSequence([seed, 1, round, client]))
    words = federation._seed_states(*federation._entropy(
        seed, 1, np.array(rounds, dtype=np.uint64), np.array(clients, dtype=np.uint64)))
    rng = np.random.Generator(np.random.PCG64(0))
    for w, r, i in zip(words.tolist(), rounds, clients):
        want = _numpy_stream(seed, r, i)
        rng.bit_generator.state = federation._pcg64_state(w)
        assert rng.bit_generator.state == want.bit_generator.state, (seed, r, i)
        assert np.array_equal(rng.permutation(13), want.permutation(13)), (seed, r, i)


@pytest.mark.parametrize("seed, round_index, client", [
    (0, 0, 0), (7, 3, 31), (2**32, 1, 5), (2**64 + 3, 149, 2**32 - 1), (123456789012, 0, 2**33),
])
def test_batch_order_streams_are_their_seed_sequences(seed, round_index, client):
    _check_streams(seed, [round_index], [client])


def test_random_batch_streams_are_their_seed_sequences():
    # 1,000 streams, 25 per seed: seeds of 1 to 4 words, rounds and clients
    # mostly small, about 30% of them of 2 words
    rng = np.random.default_rng(2026)
    seeds = []
    for _ in range(40):
        seed = int(rng.integers(0, 2**62)) >> int(rng.integers(0, 62)) << int(rng.integers(0, 41))
        rounds = np.where(rng.random(25) < 0.3, rng.integers(2**32, 2**34, 25),
                          rng.integers(0, 200, 25))
        clients = np.where(rng.random(25) < 0.3, rng.integers(2**32, 2**35, 25),
                           rng.integers(0, 64, 25))
        _check_streams(seed, rounds.tolist(), clients.tolist())
        seeds.append(seed)
    assert max(seeds) >= 2**64


@pytest.mark.parametrize("seed", [3, 2**64 + 3])
def test_batch_orders_are_each_streams_permutations_across_a_block(seed):
    # the engine seeds a block of rounds at a time; rounds on both sides of
    # a block boundary, and a return to round 0, each give every client the
    # permutation(n) of every epoch from its (seed, 1, round, client) stream
    shards = TestRunExperiment()._shards(seed=0, clients=3)
    rounds = federation._STREAM_BLOCK // 3 + 2
    state = federation._Replicas(shards, ZOO, [_cfg(local_epochs=3)], rounds, seed, 4, "hetero",
                                 shards[0].train_features.shape[1])
    for r in (0, rounds - 3, rounds - 2, rounds - 1, 0):
        orders = state._batch_orders(r, [2, 0], [40, 0], 20)
        assert orders.shape == (2, 3, 20)
        for order, i, offset in zip(orders, [2, 0], [40, 0]):
            stream = _numpy_stream(seed, r, i)
            for epoch in order:
                assert np.array_equal(epoch, stream.permutation(20) + offset), (r, i)


def test_spectrum_normalises_on_request_and_falls_back_on_degenerate_stacks():
    # the round report's spectrum of the latest uploads: normalised, it is
    # the public diagnostic's with normalize_rows_first; a stack that has no
    # spectrum (a zero row to normalise, or no energy at all) reads (1, 1.0)
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((6, 4)) * np.array([100.0, 1.0, 3.0, 0.2, 1.0, 10.0])[:, None]
    want = effective_dimensionality(stack, normalize_rows_first=True)
    got = federation._spectrum(stack, True, 0)
    assert got == (want.threshold_dim, want.participation_ratio)
    assert got != federation._spectrum(stack, False, 0)
    zero_row = stack.copy()
    zero_row[2] = 0.0
    assert federation._spectrum(zero_row, True, 0) == (1, 1.0)
    assert federation._spectrum(zero_row, False, 0) != (1, 1.0)
    for normalize in (True, False):
        assert federation._spectrum(np.zeros((5, 4)), normalize, 0) == (1, 1.0)


class TestRunExperiment:
    def _shards(self, seed=0, classes=4, clients=3):
        ds = generate_mixture(classes, 5, 30, 1.0, 0.6, seed=seed)
        return partition_dirichlet(ds, alpha=2.0, num_clients=clients, seed=seed)

    def test_zero_rounds_is_empty(self):
        shards = self._shards()
        reports = run_one(shards, ZOO, _cfg(), rounds=0, seed=0, num_classes=4)
        assert reports == []

    def test_full_participation_lists_every_client(self):
        shards = self._shards(seed=1)
        reports = run_one(shards, ZOO, _cfg(), rounds=3, seed=1, num_classes=4)
        for rep in reports:
            assert rep.participants == [0, 1, 2]
            assert len(rep.per_client_accuracy) == 3

    def test_partial_participation_is_seeded_subset(self):
        shards = self._shards(seed=2, clients=4)
        cfg = _cfg(participation_fraction=0.5)
        a = run_one(shards, ZOO, cfg, rounds=4, seed=2, num_classes=4)
        b = run_one(shards, ZOO, cfg, rounds=4, seed=2, num_classes=4)
        for ra, rb in zip(a, b):
            assert ra.participants == rb.participants
            assert len(ra.participants) == 2
            assert set(ra.participants) <= {0, 1, 2, 3}

    def test_zero_weights_identical_across_alignment_kinds(self):
        shards = self._shards(seed=3)
        runs = {}
        for name in ("gcsa", "rcsa"):
            cfg = _cfg(alignment=_kind(name), lam=0.0, gamma=0.0)
            runs[name] = run_one(shards, ZOO, cfg, rounds=3, seed=3,
                                        num_classes=4)
        for ra, rb in zip(runs["gcsa"], runs["rcsa"]):
            assert ra.to_json_dict() == rb.to_json_dict()

    def test_report_invariants(self):
        shards = self._shards(seed=4)
        reports = run_one(shards, ZOO, _cfg(), rounds=4, seed=4, num_classes=4)
        best = 0.0
        for rep in reports:
            assert rep.mean_accuracy == pytest.approx(
                float(np.mean(rep.per_client_accuracy)), abs=1e-12
            )
            best = max(best, rep.mean_accuracy)
            assert rep.best_mean_accuracy == pytest.approx(best, abs=0)
            assert rep.effective_dimensionality >= 1
            assert rep.participation_ratio >= 1.0

    def test_structural_skips_surface_in_reports(self):
        ds = generate_mixture(2, 5, 30, 1.0, 0.6, seed=5)
        shards = partition_dirichlet(ds, alpha=2.0, num_clients=2, seed=5)
        cfg = _cfg(alignment=_kind("gcsa"), prototype_mode="fixed_hypersphere")
        reports = run_one(shards, ZOO, cfg, rounds=2, seed=5, num_classes=2)
        assert sum(r.skipped_structural_steps for r in reports) > 0

    def test_evaluation_failure_names_its_round(self):
        # the second client's test rows overflow the forward pass; training
        # on its finite train rows succeeds, so only the evaluation fails
        x = np.random.default_rng(0).standard_normal((12, 5))
        y = np.arange(12) % 3
        shards = [DatasetShard(0, x, y, x[:3], y[:3]),
                  DatasetShard(1, x, y, np.full((3, 5), 1.7e308), y[:3])]
        cfg = RoundConfig(_kind("mse"), lam=0.0, gamma=0.0, local_epochs=1, batch_size=4,
                          learning_rate=0.1)
        with pytest.raises(NumericFailureError,
                           match="^round 0: forward pass produced non-finite values$"):
            run_one(shards, [ArchitectureSpec((), 4)], cfg, rounds=1, seed=2,
                           num_classes=3)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ContractError):
            run_one(self._shards(), ZOO, _cfg(), rounds=1, seed=0,
                           num_classes=4, scenario="federated")

    def test_evaluate_accuracy_hand_case(self):
        model = build_model(ArchitectureSpec((), 2), 3, 2, seed=28)
        model.extractor[0].weights[:] = 0.0
        model.extractor[0].bias[:] = [1.0, 0.0]
        model.classifier_weights[:] = np.eye(2)
        model.classifier_bias[:] = 0.0
        feats = np.zeros((4, 3))
        accuracy, failed = _accuracy(stack_of_one(model), feats[None], np.array([0, 0, 0, 1]))
        assert accuracy.tolist() == [0.75] and failed == {}

    def test_evaluate_accuracy_rejects_features_that_are_not_rows(self):
        # the test rows a round evaluates are checked once, before training
        shards = self._shards()
        for features, labels, message in ((5.0, [0], "must be 2-D"),
                                          (np.zeros(3), [0], "must be 2-D"),
                                          (np.zeros((0, 5)), [], "must be non-empty")):
            shards[1].test_features = features
            shards[1].test_labels = np.array(labels, dtype=np.int64)
            with pytest.raises(ContractError, match=f"^client 1: test features {message}"):
                run_one(shards, ZOO, _cfg(), rounds=1, seed=0, num_classes=4)

    def test_evaluate_accuracy_rejects_labels_that_do_not_fit(self):
        shards = self._shards()
        shards[1].test_features = np.zeros((6, 5))
        for labels in ([0], [0, 1, 2, 0, 1, 7], [0, 1]):
            shards[1].test_labels = np.array(labels)
            with pytest.raises(ContractError, match="^client 1: test labels"):
                run_one(shards, ZOO, _cfg(), rounds=1, seed=0, num_classes=4)
