"""Per-triple parity: ``sample_one`` is ``sample_for_user`` on one positive.

``batch_size=1`` training calls :meth:`NegativeSampler.sample_one` once per
triple.  For every registered sampler (and BNS under each CDF estimator)
it must return exactly ``sample_for_user(user, [pos], scores)[0]`` and
leave the sampler — generator, estimator caches, memories — in exactly
the state that call leaves it.  Two twin set-ups (same model seed, same
sampler seed) run the same triple sequence, one through each entry
point, training their models identically between draws so that score-
and staleness-dependent state moves as it does in a real epoch.
"""

import numpy as np
import pytest

from repro.data.dataset import ImplicitDataset
from repro.models.base import ScoreModel
from repro.models.mf import MatrixFactorization
from repro.samplers.base import ScoreRequest
from repro.samplers.bns import BayesianNegativeSampler, PosteriorOnlySampler
from repro.samplers.variants import _FACTORIES, make_sampler
from repro.train.optimizer import SGD


def _state(value, seen=None):
    """A comparable snapshot of a sampler's mutable state (recursive)."""
    seen = set() if seen is None else seen
    if isinstance(value, np.random.Generator):
        return ("rng", repr(value.bit_generator.state))
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (ImplicitDataset, ScoreModel)):
        return ("bound",)  # shared collaborators, compared separately
    if isinstance(value, dict):
        return ("dict", sorted((repr(k), _state(v, seen)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return ("seq", [_state(v, seen) for v in value])
    if hasattr(value, "__dict__") and not isinstance(value, type):
        if id(value) in seen:
            return ("cycle",)
        seen.add(id(value))
        return (type(value).__name__, _state(vars(value), seen))
    return ("value", repr(value))


def _twin(factory, dataset, seed):
    model = MatrixFactorization(dataset.n_users, dataset.n_items, n_factors=6, seed=3)
    sampler = factory()
    sampler.bind(dataset, model, seed=seed)
    return model, sampler


def _triples(dataset, n, seed):
    rng = np.random.default_rng(seed)
    users, items = dataset.train.pairs()
    rows = rng.integers(users.size, size=n)
    return users[rows].tolist(), items[rows].tolist()


def assert_sample_one_parity(factory, dataset, *, seed=5, epochs=(0,), n=40):
    model_a, one = _twin(factory, dataset, seed)
    model_b, ref = _twin(factory, dataset, seed)
    opt_a, opt_b = SGD(0.5), SGD(0.5)
    for epoch in epochs:
        one.on_epoch_start(epoch)
        ref.on_epoch_start(epoch)
        full = one.score_request is ScoreRequest.FULL_BLOCK
        for user, pos in zip(*_triples(dataset, n, seed + epoch)):
            got = one.sample_one(user, pos, model_a.scores(user) if full else None)
            want = ref.sample_for_user(
                user, np.array([pos]), model_b.scores(user) if full else None
            )[0]
            assert isinstance(got, int)
            assert got == want
            model_a.train_step([user], [pos], [got], opt_a, 0.01)
            model_b.train_step([user], [pos], [want], opt_b, 0.01)
        assert _state(one) == _state(ref)
        assert np.array_equal(model_a.item_factors, model_b.item_factors)


@pytest.mark.parametrize("name", sorted(_FACTORIES))
def test_registry_sampler_parity(name, tiny_dataset):
    # Epoch 12 puts BNS-2 past its warm-up and moves BNS-1's λ.
    assert_sample_one_parity(
        lambda: make_sampler(name), tiny_dataset, epochs=(0, 12)
    )


@pytest.mark.parametrize("cdf", ["exact", "subsampled:16", "cached:3"])
@pytest.mark.parametrize("cls", [BayesianNegativeSampler, PosteriorOnlySampler])
def test_cdf_estimator_parity(cls, cdf, tiny_dataset):
    assert_sample_one_parity(lambda: cls(cdf=cdf), tiny_dataset, epochs=(0, 1), n=60)


@pytest.mark.parametrize("cls", [BayesianNegativeSampler, PosteriorOnlySampler])
def test_full_candidate_set_parity(cls, tiny_dataset):
    assert_sample_one_parity(lambda: cls(n_candidates=None), tiny_dataset)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_micro_dataset_parity(seed, micro_dataset):
    """Few negatives per user: candidate ties and repeated draws abound."""
    assert_sample_one_parity(
        lambda: make_sampler("bns"), micro_dataset, seed=seed, n=30
    )


def test_bns_requires_scores_in_full_block_mode(tiny_dataset):
    _, sampler = _twin(lambda: make_sampler("bns"), tiny_dataset, 0)
    with pytest.raises(ValueError, match="score vector"):
        sampler.sample_one(0, int(tiny_dataset.train.items_of(0)[0]), None)


def test_subclass_sample_for_user_is_honoured(tiny_dataset):
    """sample_one means sample_for_user on one positive, also for a
    subclass that changes sample_for_user."""

    class FirstCandidate(BayesianNegativeSampler):
        def sample_for_user(self, user, pos_items, scores):
            return self.candidate_matrix(user, np.size(pos_items), 5)[:, 0]

    model, sampler = _twin(FirstCandidate, tiny_dataset, 0)
    _, reference = _twin(FirstCandidate, tiny_dataset, 0)
    for user, pos in zip(*_triples(tiny_dataset, 20, 0)):
        scores = model.scores(user)
        want = reference.sample_for_user(user, np.array([pos]), scores)[0]
        assert sampler.sample_one(user, pos, scores) == want


def test_transparent_wrapper_keeps_fast_path(tiny_dataset, monkeypatch):
    """A functools.wraps wrapper (instrumentation) leaves sample_one on
    its own path; a plain replacement is called instead."""
    import functools

    calls = []
    original = BayesianNegativeSampler.sample_for_user

    @functools.wraps(original)
    def traced(self, *args):
        calls.append("traced")
        return original(self, *args)

    def replaced(self, *args):
        calls.append("replaced")
        return original(self, *args)

    model, sampler = _twin(lambda: make_sampler("bns"), tiny_dataset, 0)
    user, pos = 0, int(tiny_dataset.train.items_of(0)[0])
    monkeypatch.setattr(BayesianNegativeSampler, "sample_for_user", traced)
    sampler.sample_one(user, pos, model.scores(user))
    assert calls == []
    monkeypatch.setattr(BayesianNegativeSampler, "sample_for_user", replaced)
    sampler.sample_one(user, pos, model.scores(user))
    assert calls == ["replaced"]
