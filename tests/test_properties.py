"""Property tests: the sweeps that take p < q on exactly symmetric
distances return the ordered-pair reference's value and pair on small
generated spaces, values with ties and NaN included."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import check_switched, ref_min_positive_distance  # noqa: E402
from lipkit import MetricSpace, PreconditionError  # noqa: E402

VALUES = st.sampled_from([0.0, 0.0, 1.0, 1.0, -2.0, 0.5, 3.25, math.nan])
COORDS = st.sampled_from([0.0, 0.0, 0.5, 1.0, -1.5, 2.0, 4.0])


@st.composite
def spaces(draw):
    """A point cloud, a grid, or a symmetric matrix (at times broken
    by one ulp, so that only the ordered sweep is sound), unvalidated:
    duplicates and zero distances stay in."""
    kind = draw(st.sampled_from(["points", "grid", "matrix"]))
    n = draw(st.integers(1, 7))
    if kind == "grid":
        step = draw(st.sampled_from([0.25, 0.5, 1.0, 0.1]))
        return MetricSpace.from_grid(0.0, step * (n - 1) + step / 2, step,
                                     validate=False)
    dim = draw(st.integers(1, 2))
    pts = np.array(draw(st.lists(st.lists(COORDS, min_size=dim, max_size=dim),
                                 min_size=n, max_size=n)))
    if kind == "points":
        return MetricSpace.from_points(pts, validate=False)
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        D[i, j] = np.nextafter(D[i, j], -1.0 if draw(st.booleans()) else 9.0)
    return MetricSpace.from_matrix(D, validate=False)


@settings(max_examples=150, deadline=None)
@given(spaces(), st.data())
def test_switched_sweeps_match_the_ordered_reference(space, data):
    v = np.array(data.draw(st.lists(VALUES, min_size=space.n,
                                    max_size=space.n)))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    check_switched(space, v, np.random.default_rng(seed))


@settings(max_examples=100, deadline=None)
@given(spaces())
def test_min_positive_distance_matches_the_upper_triangle(space):
    D = space.pairwise()
    if (D[np.triu_indices(space.n, 1)] > 0).any():
        assert space.min_positive_distance() == ref_min_positive_distance(D)
    else:
        with pytest.raises(PreconditionError):
            space.min_positive_distance()
