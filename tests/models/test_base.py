"""Tests for the ScoreModel base-class helpers."""

import numpy as np
import pytest

from repro.models.base import ScoreModel
from repro.models.mf import MatrixFactorization


class TestScoreMatrixDefault:
    def test_all_users(self):
        model = MatrixFactorization(4, 6, n_factors=3, seed=0)
        matrix = model.score_matrix()
        assert matrix.shape == (4, 6)
        for user in range(4):
            assert np.allclose(matrix[user], model.scores(user))

    def test_subset(self):
        model = MatrixFactorization(4, 6, n_factors=3, seed=0)
        matrix = model.score_matrix(np.asarray([2, 0]))
        assert matrix.shape == (2, 6)
        assert np.allclose(matrix[0], model.scores(2))
        assert np.allclose(matrix[1], model.scores(0))


class TestTripleValidation:
    def test_check_triple_arrays(self):
        model = MatrixFactorization(3, 3, n_factors=2, seed=0)
        users, pos, neg = model._check_triple_arrays([0], [1], [2])
        assert users.dtype == np.int64
        assert users.shape == pos.shape == neg.shape

    def test_mismatch_raises(self):
        model = MatrixFactorization(3, 3, n_factors=2, seed=0)
        with pytest.raises(ValueError, match="parallel"):
            model._check_triple_arrays([0, 1], [1], [2])


class TestAbstractContract:
    def test_cannot_instantiate_base(self):
        with pytest.raises(TypeError):
            ScoreModel()


class TestScoresBatch:
    def test_matmul_matches_per_user(self):
        from repro.models.biased_mf import BiasedMatrixFactorization

        for model in (
            MatrixFactorization(5, 7, n_factors=3, seed=1),
            BiasedMatrixFactorization(5, 7, n_factors=3, seed=1),
        ):
            users = np.array([4, 0, 2])
            block = model.scores_batch(users)
            assert block.shape == (3, 7)
            for row, user in enumerate(users):
                assert np.allclose(block[row], model.scores(int(user)))

    def test_lightgcn_matches_per_user(self, micro_dataset):
        from repro.models.lightgcn import LightGCN

        model = LightGCN(micro_dataset.train, n_factors=4, seed=2)
        users = np.array([1, 3])
        block = model.scores_batch(users)
        for row, user in enumerate(users):
            assert np.allclose(block[row], model.scores(int(user)))

    def test_empty_users(self):
        model = MatrixFactorization(4, 6, n_factors=3, seed=0)
        assert model.scores_batch(np.empty(0, dtype=np.int64)).shape == (0, 6)

    def test_out_of_range_rejected(self):
        model = MatrixFactorization(4, 6, n_factors=3, seed=0)
        with pytest.raises(IndexError):
            model.scores_batch(np.array([0, 4]))


class TestScoreMatrixChunking:
    def test_chunked_equals_single_call(self):
        model = MatrixFactorization(9, 5, n_factors=3, seed=0)
        users = np.array([8, 3, 3, 0, 5, 7, 1])
        full = model.score_matrix(users)
        chunked = model.score_matrix(users, chunk_size=2)
        # allclose, not array_equal: BLAS rounding differs across gemm shapes.
        assert full.shape == chunked.shape
        assert np.allclose(full, chunked)

    def test_invalid_chunk_size(self):
        model = MatrixFactorization(4, 6, n_factors=3, seed=0)
        with pytest.raises(ValueError, match="chunk_size"):
            model.score_matrix(chunk_size=0)


class TestTrainStepIdRanges:
    """train_step rejects ids outside the tables instead of letting numpy
    wrap a negative id onto the last rows."""

    @pytest.mark.parametrize(
        "users, pos, neg, match",
        [
            ([-1], [0], [1], "user ids"),
            ([4], [0], [1], "user ids"),
            ([0], [-1], [1], "item ids"),
            ([0], [0], [-2], "item ids"),
            ([0, 1], [0, 6], [1, 2], "item ids"),
        ],
    )
    @pytest.mark.parametrize("name", ["mf", "biased_mf", "lightgcn"])
    def test_out_of_range_ids_raise_and_train_nothing(
        self, name, users, pos, neg, match
    ):
        from repro.data.interactions import InteractionMatrix
        from repro.models.biased_mf import BiasedMatrixFactorization
        from repro.models.lightgcn import LightGCN
        from repro.train.optimizer import SGD

        model = {
            "mf": lambda: MatrixFactorization(4, 6, n_factors=3, seed=0),
            "biased_mf": lambda: BiasedMatrixFactorization(4, 6, n_factors=3, seed=0),
            "lightgcn": lambda: LightGCN(
                InteractionMatrix(4, 6, np.array([0, 1, 2]), np.array([0, 3, 5])),
                n_factors=3,
                seed=0,
            ),
        }[name]()
        before = (model.user_factors.copy(), model.item_factors.copy())
        with pytest.raises(IndexError, match=match):
            model.train_step(users, pos, neg, SGD(0.1), 0.0)
        assert np.array_equal(model.user_factors, before[0])
        assert np.array_equal(model.item_factors, before[1])
