"""Stacked points for the broadcasting tests: a hypothesis strategy for
arrays of one leading shape, and the row-by-row comparison with
single-point calls."""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

# leading shapes of stacked points: (M,) and (M, K)
LEADING = st.one_of(
    st.tuples(st.integers(1, 5)), st.tuples(st.integers(1, 4), st.integers(1, 3))
)


@st.composite
def stacked(draw, *widths):
    """Arrays of one leading shape with the given trailing widths."""
    lead = draw(LEADING)
    elements = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    return [draw(arrays(float, lead + (w,), elements=elements)) for w in widths]


def assert_rows_are_single_calls(evaluate, *arrays_):
    """Each row of evaluate(*arrays_) equals, bit for bit, evaluate on that
    row's point alone; evaluate returns a dict of results."""
    lead = arrays_[0].shape[:-1]
    stacked_out = evaluate(*arrays_)
    for idx in np.ndindex(lead):
        single = evaluate(*(a[idx] for a in arrays_))
        for name, value in single.items():
            assert stacked_out[name].shape == lead + np.shape(value), name
            assert stacked_out[name][idx].tobytes() == np.asarray(value).tobytes(), (name, idx)
