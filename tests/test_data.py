"""Synthetic mixtures and the two non-IID partitioners."""

import hashlib

import numpy as np
import pytest

from fedstruct.data import generate_mixture, partition_dirichlet, partition_domain_shift
from fedstruct.errors import ContractError, PartitionFailureError


def _row_set(features):
    return {row.tobytes() for row in np.asarray(features, dtype=np.float64)}


class TestGenerateMixture:
    def test_zero_noise_collapses_to_class_means(self):
        ds = generate_mixture(3, 4, 10, class_separation=2.0, noise_scale=0.0, seed=0)
        for c in range(3):
            block = ds.features[ds.labels == c]
            np.testing.assert_array_equal(block, np.broadcast_to(block[0], block.shape))
            assert np.linalg.norm(block[0]) == pytest.approx(2.0, rel=1e-12)

    def test_split_is_80_20_stratified(self):
        ds = generate_mixture(4, 3, 10, 1.0, 0.5, seed=1)
        for c in range(4):
            mask = ds.test_mask[ds.labels == c]
            assert mask.sum() == 2  # 20% of 10

    def test_wide_separation_nearest_mean_is_perfect(self):
        ds = generate_mixture(5, 8, 20, class_separation=100.0, noise_scale=0.01, seed=2)
        train, test = np.nonzero(~ds.test_mask)[0], np.nonzero(ds.test_mask)[0]
        means = np.stack(
            [ds.features[train][ds.labels[train] == c].mean(axis=0) for c in range(5)]
        )
        d2 = ((ds.features[test, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        predicted = d2.argmin(axis=1)
        assert np.array_equal(predicted, ds.labels[test])

    def test_deterministic_per_seed(self):
        a = generate_mixture(3, 4, 6, 1.5, 0.7, seed=3)
        b = generate_mixture(3, 4, 6, 1.5, 0.7, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.test_mask, b.test_mask)

    def test_every_class_present(self):
        ds = generate_mixture(6, 2, 2, 1.0, 1.0, seed=4)
        assert set(np.unique(ds.labels)) == set(range(6))

    def test_tiny_class_rejected(self):
        with pytest.raises(ContractError):
            generate_mixture(2, 3, 1, 1.0, 1.0, seed=0)


class TestPartitionDirichlet:
    def test_concentrated_alpha_is_nearly_iid(self):
        ds = generate_mixture(5, 3, 40, 1.0, 1.0, seed=5)
        shards = partition_dirichlet(ds, alpha=1e6, num_clients=4, seed=5)
        for shard in shards:
            fracs = np.bincount(shard.train_labels, minlength=5).astype(float)
            fracs /= fracs.sum()
            assert np.abs(fracs - 0.2).max() <= 0.05

    def test_sparse_alpha_starves_classes(self):
        # At alpha=0.1 with 8 clients and 10 classes, some client misses at
        # least 3 classes -- checked across five seeds.
        for seed in range(5):
            ds = generate_mixture(10, 4, 30, 1.0, 1.0, seed=seed)
            shards = partition_dirichlet(ds, alpha=0.1, num_clients=8, seed=seed)
            missing = max(10 - len(np.unique(s.train_labels)) for s in shards)
            assert missing >= 3, f"seed {seed}: max missing classes {missing}"

    def test_disjoint_and_covering(self):
        ds = generate_mixture(4, 5, 25, 1.0, 1.0, seed=6)
        shards = partition_dirichlet(ds, alpha=0.5, num_clients=3, seed=6)
        seen_train = [_row_set(s.train_features) for s in shards]
        seen_test = [_row_set(s.test_features) for s in shards]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (seen_train[i] & seen_train[j])
                assert not (seen_test[i] & seen_test[j])
        union = set().union(*seen_train, *seen_test)
        assert union == _row_set(ds.features)

    def test_heterogeneity_monotone_in_alpha(self):
        # mean total-variation distance from the global label distribution is
        # larger at alpha=0.1 than at alpha=1.0, averaged over >= 10 seeds
        def mean_tv(alpha):
            tvs = []
            for seed in range(10):
                ds = generate_mixture(6, 3, 30, 1.0, 1.0, seed=seed)
                shards = partition_dirichlet(ds, alpha=alpha, num_clients=4, seed=seed)
                global_frac = np.full(6, 1.0 / 6.0)
                for s in shards:
                    frac = np.bincount(s.train_labels, minlength=6).astype(float)
                    frac /= frac.sum()
                    tvs.append(0.5 * np.abs(frac - global_frac).sum())
            return float(np.mean(tvs))

        assert mean_tv(0.1) > mean_tv(1.0)

    def test_deterministic_per_seed(self):
        ds = generate_mixture(4, 3, 20, 1.0, 1.0, seed=7)
        a = partition_dirichlet(ds, 0.5, 3, seed=7)
        b = partition_dirichlet(ds, 0.5, 3, seed=7)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.train_features, sb.train_features)
            np.testing.assert_array_equal(sa.test_labels, sb.test_labels)

    def test_impossible_partition_fails_with_advice(self):
        ds = generate_mixture(2, 3, 3, 1.0, 1.0, seed=8)
        with pytest.raises(PartitionFailureError, match="alpha"):
            partition_dirichlet(ds, alpha=0.05, num_clients=8, seed=8)

    def test_bad_alpha_rejected(self):
        ds = generate_mixture(2, 3, 10, 1.0, 1.0, seed=9)
        with pytest.raises(ContractError):
            partition_dirichlet(ds, alpha=0.0, num_clients=2, seed=9)


class TestPartitionDomainShift:
    def test_zero_shift_identity_transform_is_iid_subset(self):
        ds = generate_mixture(3, 4, 20, 1.0, 1.0, seed=10)
        shards = partition_domain_shift(ds, 4, shift_scale=0.0, seed=10, rotate=False)
        union = set()
        for s in shards:
            union |= _row_set(s.train_features) | _row_set(s.test_features)
        assert union == _row_set(ds.features)

    def test_labels_preserved_under_transform(self):
        ds = generate_mixture(3, 4, 20, 1.0, 1.0, seed=11)
        plain = partition_domain_shift(ds, 4, 0.0, seed=11, rotate=False)
        shifted = partition_domain_shift(ds, 4, 3.0, seed=11, rotate=True)
        for a, b in zip(plain, shifted):
            np.testing.assert_array_equal(a.train_labels, b.train_labels)
            np.testing.assert_array_equal(a.test_labels, b.test_labels)

    def test_domain_distance_monotone_in_shift_scale(self):
        def mean_pairwise_distance(scale):
            dists = []
            for seed in range(5):
                ds = generate_mixture(3, 4, 20, 1.0, 1.0, seed=seed)
                shards = partition_domain_shift(ds, 4, scale, seed=seed)
                means = np.stack([s.train_features.mean(axis=0) for s in shards])
                for i in range(4):
                    for j in range(i + 1, 4):
                        dists.append(np.linalg.norm(means[i] - means[j]))
            return float(np.mean(dists))

        d0, d1, d2 = (mean_pairwise_distance(s) for s in (0.5, 2.0, 8.0))
        assert d0 < d1 < d2

    def test_too_many_clients_rejected(self):
        ds = generate_mixture(2, 3, 3, 1.0, 1.0, seed=12)
        with pytest.raises(PartitionFailureError):
            partition_domain_shift(ds, 10, 1.0, seed=12)


# (classes, input_dim, samples_per_class, clients): three shapes that partition
# (though at alpha 0.05 the Dirichlet draw fails on (4, 3, 10, 4) for most
# seeds), one with fewer test rows than clients and one with too few train rows
_DIGEST_SHAPES = [(3, 2, 5, 2), (4, 3, 10, 4), (10, 16, 100, 8), (3, 2, 5, 6), (2, 2, 3, 3)]
_DIGEST_ALPHAS = [0.05, 0.5, 1e3]
_DIGEST_SHIFTS = [(0.0, True), (1.5, True), (0.7, False)]  # (shift_scale, rotate)


def _partition_digest() -> str:
    """sha256 over every shard's bytes, shapes and dtypes (or the
    PartitionFailureError text) across seeds, shapes and settings."""
    h = hashlib.sha256()
    for seed in range(6):
        for classes, dim, per_class, clients in _DIGEST_SHAPES:
            ds = generate_mixture(classes, dim, per_class, 1.0, 0.5, seed=seed)
            calls = [lambda a=a: partition_dirichlet(ds, a, clients, seed) for a in _DIGEST_ALPHAS]
            calls += [lambda s=s, r=r: partition_domain_shift(ds, clients, s, seed, rotate=r)
                      for s, r in _DIGEST_SHIFTS]
            for call in calls:
                try:
                    shards = call()
                except PartitionFailureError as exc:
                    h.update(f"failure {exc}".encode())
                    continue
                for s in shards:
                    h.update(f"client {s.client_id}".encode())
                    for a in (s.train_features, s.train_labels, s.test_features, s.test_labels):
                        h.update(f"{a.dtype} {a.shape}".encode())
                        h.update(a.tobytes())
    return h.hexdigest()


def test_partitions_match_pinned_digest():
    # recorded from the chunk-list partitioners that the owner-array ones
    # replaced; any change to a draw, a row order or a transform moves it
    assert _partition_digest() == "3822c988f0ba8ed1c7fb652aef986183b42a857204ffad6534aac5b43ab2fd0c"
