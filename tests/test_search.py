"""Search primitives: the array-based direction count against its loop
reference."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from secquant.search import count_direction_changes

import oracles

values = st.lists(
    st.one_of(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        st.sampled_from([0.0, 1e-13, -1e-13, math.nan]),
    ),
    max_size=60,
)


class TestCountDirectionChanges:
    @given(vals=values, floor=st.sampled_from([0.0, 1e-13, 1e-12, 0.3]))
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_reference(self, vals, floor):
        expected = oracles.count_direction_changes(vals, floor)
        assert count_direction_changes(vals, floor) == expected
        assert count_direction_changes(np.array(vals, dtype=float), floor) == expected

    def test_steps_at_the_floor_are_ignored(self):
        assert count_direction_changes([0.0, 1.0, 1.0 - 1e-12, 2.0], 1e-12) == 0
        assert count_direction_changes([0.0, 1.0, 0.5, 2.0], 1e-12) == 2

    def test_short_inputs(self):
        assert count_direction_changes([], 0.0) == 0
        assert count_direction_changes([1.0], 0.0) == 0
