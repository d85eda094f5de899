"""``train_triple`` is ``train_step`` on one triple, bit for bit.

The per-triple kernel of ``batch_size=1`` training calls
:meth:`ScoreModel.train_triple`.  Twin models (same seed) take the same
sequence of triples, one through each entry point; the returned info, every
parameter table and the optimizer state must stay bitwise equal after
every step.  The sequence repeats users and items and includes
``pos == neg`` triples, which take ``train_step``'s row-summing path.
"""

import numpy as np
import pytest

from repro.data.interactions import InteractionMatrix
from repro.models.biased_mf import BiasedMatrixFactorization
from repro.models.lightgcn import LightGCN
from repro.models.mf import MatrixFactorization
from repro.train.optimizer import SGD, Adam

N_USERS, N_ITEMS = 12, 30


def _interactions():
    rng = np.random.default_rng(4)
    return InteractionMatrix(
        N_USERS, N_ITEMS, rng.integers(N_USERS, size=80), rng.integers(N_ITEMS, size=80)
    )


MODELS = {
    "mf": lambda: MatrixFactorization(N_USERS, N_ITEMS, 8, seed=1),
    "biased_mf": lambda: BiasedMatrixFactorization(N_USERS, N_ITEMS, 8, seed=1),
    "lightgcn": lambda: LightGCN(_interactions(), n_factors=8, n_layers=2, seed=1),
}
OPTIMIZERS = {"sgd": lambda: SGD(0.3), "adam": lambda: Adam(0.05)}


def _tables(model, optimizer):
    tables = [model.user_factors, model.item_factors]
    tables += [np.asarray(v) for v in vars(model).values() if isinstance(v, np.ndarray)]
    if isinstance(optimizer, Adam):
        for state in (optimizer._m, optimizer._v, optimizer._steps):
            tables += [state[name] for name in sorted(state)]
    return [t.tobytes() for t in tables]


def _triples(n, seed):
    rng = np.random.default_rng(seed)
    users = rng.integers(N_USERS, size=n)
    pos = rng.integers(N_ITEMS, size=n)
    neg = rng.integers(N_ITEMS, size=n)
    neg[::7] = pos[::7]  # the i == j fallback
    return zip(users.tolist(), pos.tolist(), neg.tolist())


@pytest.mark.parametrize("opt", sorted(OPTIMIZERS))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_train_triple_equals_train_step(name, opt):
    one, ref = MODELS[name](), MODELS[name]()
    opt_one, opt_ref = OPTIMIZERS[opt](), OPTIMIZERS[opt]()
    for reg in (0.01, 0.0):
        for user, pos, neg in _triples(60, seed=int(reg * 100)):
            got = one.train_triple(user, pos, neg, opt_one, reg)
            want = ref.train_step([user], [pos], [neg], opt_ref, reg)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == want.tobytes()
            assert _tables(one, opt_one) == _tables(ref, opt_ref)


def test_saturated_scores_match():
    """Large scores drive info to exactly 0 or 1 (exp under/overflow)."""
    one, ref = MODELS["mf"](), MODELS["mf"]()
    for model in (one, ref):
        model.user_factors[0] = 30.0
        model.item_factors[1] = 30.0
        model.item_factors[2] = -30.0
    opt_one, opt_ref = SGD(1e-9), SGD(1e-9)
    for pos, neg in [(1, 2), (2, 1)]:
        got = one.train_triple(0, pos, neg, opt_one, 0.0)
        want = ref.train_step([0], [pos], [neg], opt_ref, 0.0)
        assert got in (0.0, 1.0)
        assert np.float64(got).tobytes() == want.tobytes()
        assert _tables(one, opt_one) == _tables(ref, opt_ref)


def test_subclass_train_step_is_honoured():
    """train_triple means train_step on one triple, also for a subclass
    that changes train_step."""

    class FrozenItems(MatrixFactorization):
        def train_step(self, users, pos_items, neg_items, optimizer, reg):
            items = self.item_factors.copy()
            info = super().train_step(users, pos_items, neg_items, optimizer, reg)
            self.item_factors[:] = items
            return info

    model = FrozenItems(N_USERS, N_ITEMS, 8, seed=1)
    before = model.item_factors.copy()
    model.train_triple(0, 1, 2, SGD(0.3), 0.01)
    assert np.array_equal(model.item_factors, before)


def test_transparent_wrapper_keeps_fast_path(monkeypatch):
    import functools

    calls = []
    original = MatrixFactorization.train_step

    @functools.wraps(original)
    def traced(self, *args):
        calls.append("traced")
        return original(self, *args)

    def replaced(self, *args):
        calls.append("replaced")
        return original(self, *args)

    model = MODELS["mf"]()
    monkeypatch.setattr(MatrixFactorization, "train_step", traced)
    model.train_triple(0, 1, 2, SGD(0.3), 0.01)
    assert calls == []
    monkeypatch.setattr(MatrixFactorization, "train_step", replaced)
    model.train_triple(0, 1, 2, SGD(0.3), 0.01)
    assert calls == ["replaced"]
