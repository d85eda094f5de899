"""Checkpoint dtype metadata (format v2) and its load guards."""

import numpy as np
import pytest

from repro.data.interactions import InteractionMatrix
from repro.models.biased_mf import BiasedMatrixFactorization
from repro.models.lightgcn import LightGCN
from repro.models.mf import MatrixFactorization
from repro.models.persistence import load_model, save_model
from repro.serve.service import RankingService
from repro.utils.rng import make_rng


@pytest.fixture()
def interactions():
    rng = make_rng(5)
    return InteractionMatrix(
        12, 30, rng.integers(12, size=80), rng.integers(30, size=80)
    )


def _models(interactions, **kwargs):
    return [
        MatrixFactorization(12, 30, 4, seed=3, **kwargs),
        BiasedMatrixFactorization(12, 30, 4, seed=3, **kwargs),
        LightGCN(interactions, n_factors=4, n_layers=1, seed=3, **kwargs),
    ]


class TestMetadataRoundTrip:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_dtype_round_trips(self, tmp_path, interactions, dtype):
        for model in _models(interactions, dtype=dtype):
            path = tmp_path / f"{type(model).__name__}.npz"
            save_model(model, path)
            with np.load(path, allow_pickle=False) as archive:
                assert str(archive["dtype"]) == dtype
                assert "backend" not in archive
                assert int(archive["version"]) == 2
            loaded = load_model(path)
            assert loaded.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(
                loaded.user_factors, model.user_factors
            )

    def test_explicit_matching_dtype_accepted(self, tmp_path, interactions):
        model = MatrixFactorization(12, 30, 4, seed=3, dtype="float32")
        path = tmp_path / "m.npz"
        save_model(model, path)
        loaded = load_model(path, dtype="float32")
        assert loaded.dtype == np.dtype(np.float32)


class TestMismatchGuards:
    def test_float32_checkpoint_cannot_warm_start_float64(self, tmp_path):
        model = MatrixFactorization(12, 30, 4, seed=3, dtype="float32")
        path = tmp_path / "m.npz"
        save_model(model, path)
        with pytest.raises(ValueError, match="float32.*float64"):
            load_model(path, dtype="float64")

    def test_float64_checkpoint_cannot_warm_start_float32(self, tmp_path):
        model = MatrixFactorization(12, 30, 4, seed=3)
        path = tmp_path / "m.npz"
        save_model(model, path)
        with pytest.raises(ValueError, match="float64.*float32"):
            load_model(path, dtype="float32")

    def test_serving_passthrough_enforces_the_guard(
        self, tmp_path, interactions
    ):
        model = LightGCN(
            interactions, n_factors=4, n_layers=1, seed=3, dtype="float32"
        )
        path = tmp_path / "m.npz"
        save_model(model, path)
        with pytest.raises(ValueError, match="float32"):
            RankingService.from_checkpoint(path, dtype="float64")
        service = RankingService.from_checkpoint(path, dtype="float32")
        assert service.model.dtype == np.dtype(np.float32)

    def test_corrupted_dtype_array_rejected(self, tmp_path):
        model = MatrixFactorization(12, 30, 4, seed=3, dtype="float32")
        path = tmp_path / "m.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as archive:
            payload = dict(archive)
        # Claim float64 while the arrays stay float32: the per-array
        # validation must catch the inconsistency.
        payload["dtype"] = "float64"
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="user_factors"):
            load_model(path)


class TestLegacyArchives:
    def test_v1_archive_loads_as_float64_numpy(self, tmp_path):
        model = MatrixFactorization(12, 30, 4, seed=3)
        path = tmp_path / "m.npz"
        # A v1 archive: no dtype key at all.
        np.savez(
            path,
            kind="mf",
            version=1,
            user_factors=model.user_factors,
            item_factors=model.item_factors,
        )
        loaded = load_model(path)
        assert loaded.dtype == np.dtype(np.float64)
        np.testing.assert_array_equal(loaded.user_factors, model.user_factors)

    @pytest.mark.parametrize("recorded", ["numpy", "torch"])
    def test_v2_archive_with_backend_key_loads(
        self, tmp_path, interactions, recorded
    ):
        # Earlier v2 writers recorded the compute backend's name; the
        # parameters were host arrays either way, so the key is ignored.
        for model in _models(interactions, dtype="float32"):
            path = tmp_path / f"{type(model).__name__}.npz"
            save_model(model, path)
            with np.load(path, allow_pickle=False) as archive:
                payload = dict(archive)
            payload["backend"] = recorded
            np.savez(path, **payload)
            loaded = load_model(path, dtype="float32")
            assert type(loaded) is type(model)
            np.testing.assert_array_equal(
                loaded.scores_batch(np.arange(12)), model.scores_batch(np.arange(12))
            )

    def test_backend_argument_rejected(self, tmp_path, interactions):
        model = LightGCN(interactions, n_factors=4, n_layers=1, seed=3)
        path = tmp_path / "m.npz"
        save_model(model, path)
        with pytest.raises(TypeError, match="backend"):
            load_model(path, backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            RankingService.from_checkpoint(path, backend="numpy")

    def test_v1_archive_rejects_float32_expectation(self, tmp_path):
        model = MatrixFactorization(12, 30, 4, seed=3)
        path = tmp_path / "m.npz"
        np.savez(
            path,
            kind="mf",
            version=1,
            user_factors=model.user_factors,
            item_factors=model.item_factors,
        )
        with pytest.raises(ValueError, match="float64"):
            load_model(path, dtype="float32")
