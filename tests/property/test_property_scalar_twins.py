"""The float twins of Eq. 4/15/31–32 equal their array versions bit for bit.

The per-triple sampler and ``MatrixFactorization.train_triple`` evaluate
the sigmoid (as ``info = 1 − σ``, Eq. 4), ``unbias``, the conditional
risk and its argmin on Python floats.  Bitwise parity of whole training
runs rests on these twins rounding exactly like the numpy functions, so
they are compared on arbitrary doubles — NaN, ±inf, ±0 and ``exp``
overflow included — by their bytes, not by ``==``.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.risk import (
    argmin_floats,
    conditional_sampling_risk,
    conditional_sampling_risk_float,
    optimal_sample_index,
)
from repro.core.unbiasedness import unbias, unbias_float
from repro.train.loss import informativeness, informativeness_float

any_float = st.floats(allow_nan=True, allow_infinity=True)
pairs = st.lists(st.tuples(any_float, any_float), min_size=1, max_size=8)
#: Values an argmin over Eq. 31 risks meets in practice, plus edge cases.
risk_inputs = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, float("nan"), float("inf")]),
)


def vectorized(fn, rows):
    """The numpy reference on the rows' float64 columns; overflow and NaN
    warnings are part of the input space here, not failures."""
    columns = (np.array(column, dtype=np.float64) for column in zip(*rows))
    with np.errstate(all="ignore"):
        return fn(*columns)


def same_bits(floats, array):
    """Bytewise equality of a float list and a float64 array."""
    return np.asarray(floats, dtype=np.float64).tobytes() == np.asarray(
        array, dtype=np.float64
    ).tobytes()


@given(pairs)
@example([(0.0, -0.0), (-0.0, 0.0)])  # x = ±0 take sigmoid's x >= 0 branch
@example([(0.0, 710.0), (0.0, -710.0), (745.2, 0.0), (-745.2, 0.0)])  # exp limits
@example([(1e308, -1e308), (-1e308, 1e308)])  # the difference overflows
@example([(float("inf"), 0.0), (float("-inf"), 0.0), (float("nan"), 0.0)])
@example([(-float("nan"), 1.0), (0.0, float("nan"))])
def test_informativeness_twin(rows):
    got = [informativeness_float(pos, neg) for pos, neg in rows]
    assert same_bits(got, vectorized(informativeness, rows))


@given(pairs)
@example([(1.0, 0.0), (0.0, 1.0)])  # the 0/0 corners
@example([(-0.0, 0.3), (0.3, -0.0), (-0.5, 1.5), (2.0, -1.0)])  # clips
@example([(float("nan"), 0.2), (0.2, float("nan"))])
def test_unbias_twin(rows):
    got = [unbias_float(cdf, prior) for cdf, prior in rows]
    assert same_bits(got, vectorized(unbias, rows))


@given(
    st.lists(st.tuples(risk_inputs, risk_inputs), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=50.0),
)
@example([(0.5, 0.2), (0.5, 0.2)], 5.0)  # tie: the first wins
@example([(0.1, 0.9), (float("nan"), 0.1), (0.2, 0.0)], 5.0)  # NaN wins
@example([(float("nan"), 0.1), (float("nan"), 0.3)], 5.0)  # the first NaN
@example([(0.0, 1.0), (-0.0, 1.0)], 0.0)  # -0.0 ties +0.0
def test_risk_twin_and_argmin(rows, weight):
    risks = [conditional_sampling_risk_float(i, u, weight) for i, u in rows]
    expected = vectorized(lambda i, u: conditional_sampling_risk(i, u, weight), rows)
    assert same_bits(risks, expected)
    assert argmin_floats(risks) == vectorized(
        lambda i, u: optimal_sample_index(i, u, weight), rows
    )


def test_argmin_of_nothing_rejected():
    with pytest.raises(ValueError, match="empty"):
        argmin_floats([])
