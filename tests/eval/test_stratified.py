"""Tests for repro.eval.stratified."""

import numpy as np
import pytest

from repro.data.dataset import ImplicitDataset
from repro.data.interactions import InteractionMatrix
from repro.eval.stratified import popularity_buckets, stratified_recall


@pytest.fixture
def skewed_dataset():
    """10 users; item 0 very popular, items 1-2 mid, items 3-9 tail."""
    train_pairs = []
    for user in range(10):
        train_pairs.append((user, 0))
        if user < 6:
            train_pairs.append((user, 1))
        if user < 5:
            train_pairs.append((user, 2))
        train_pairs.append((user, 3 + user % 7))
    test_pairs = [(0, 4), (1, 0), (2, 5), (3, 1)]
    train = InteractionMatrix.from_pairs(set(train_pairs) - set(test_pairs), 10, 10)
    test = InteractionMatrix.from_pairs(test_pairs, 10, 10)
    return ImplicitDataset(train, test)


class TestPopularityBuckets:
    def test_bucket_count(self, skewed_dataset):
        buckets = popularity_buckets(skewed_dataset)
        assert buckets.shape == (10,)
        assert buckets.min() >= 0
        assert buckets.max() <= 2

    def test_most_popular_in_head(self, skewed_dataset):
        buckets = popularity_buckets(skewed_dataset)
        popularity = skewed_dataset.train.item_popularity
        assert buckets[np.argmax(popularity)] == buckets.max()

    def test_least_popular_in_tail(self, skewed_dataset):
        buckets = popularity_buckets(skewed_dataset)
        popularity = skewed_dataset.train.item_popularity
        assert buckets[np.argmin(popularity)] == 0

    def test_quantiles_validated(self, skewed_dataset):
        with pytest.raises(ValueError, match="increasing"):
            popularity_buckets(skewed_dataset, quantiles=(0.8, 0.5))
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            popularity_buckets(skewed_dataset, quantiles=(0.0, 0.5))

    def test_custom_bucket_count(self, skewed_dataset):
        buckets = popularity_buckets(skewed_dataset, quantiles=(0.25, 0.5, 0.75))
        assert buckets.max() <= 3


class TestStratifiedRecall:
    class OracleModel:
        def __init__(self, dataset):
            self.dataset = dataset

        def scores(self, user):
            scores = np.zeros(self.dataset.n_items)
            scores[self.dataset.test.items_of(user)] = 1.0
            return scores

    class AntiModel(OracleModel):
        def scores(self, user):
            return -super().scores(user)

    def test_oracle_perfect_everywhere(self, skewed_dataset):
        out = stratified_recall(
            self.OracleModel(skewed_dataset), skewed_dataset, k=5
        )
        for key, value in out.items():
            if not np.isnan(value):
                assert value == 1.0, key

    def test_anti_model_zero_at_small_k(self, skewed_dataset):
        out = stratified_recall(self.AntiModel(skewed_dataset), skewed_dataset, k=1)
        values = [v for v in out.values() if not np.isnan(v)]
        assert all(v == 0.0 for v in values)

    def test_bucket_names(self, skewed_dataset):
        out = stratified_recall(self.OracleModel(skewed_dataset), skewed_dataset, k=3)
        assert set(out) == {"recall@3/tail", "recall@3/mid", "recall@3/head"}

    def test_generalized_names(self, skewed_dataset):
        out = stratified_recall(
            self.OracleModel(skewed_dataset),
            skewed_dataset,
            k=3,
            quantiles=(0.5,),
        )
        assert set(out) == {"recall@3/bucket0", "recall@3/bucket1"}

    def test_empty_bucket_is_nan(self):
        """A bucket with no test items reports NaN, not a silent zero."""
        train = InteractionMatrix.from_pairs(
            [(0, 0), (0, 1), (1, 0), (1, 2)], 2, 4
        )
        test = InteractionMatrix.from_pairs([(0, 3)], 2, 4)  # tail item only
        dataset = ImplicitDataset(train, test)
        out = stratified_recall(self.OracleModel(dataset), dataset, k=2)
        assert np.isnan(out["recall@2/head"])

    def test_k_validated(self, skewed_dataset):
        with pytest.raises(ValueError):
            stratified_recall(self.OracleModel(skewed_dataset), skewed_dataset, k=0)

    @pytest.mark.parametrize("max_users", [0, -1])
    def test_non_positive_max_users_rejected(self, skewed_dataset, max_users):
        with pytest.raises(ValueError, match=f"max_users must be > 0, got {max_users}"):
            stratified_recall(
                self.OracleModel(skewed_dataset),
                skewed_dataset,
                k=3,
                max_users=max_users,
            )
