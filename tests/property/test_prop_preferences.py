"""Property tests: ceteris-paribus preference selection is total,
deterministic, permutation-invariant and lexicographically sound."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.objectives.preference import (
    PREFERENCE_CRITERIA,
    parse_preference,
    select_index,
)

#: (k, 3) fronts matching the evaluator's objective layout.  float32
#: widths keep values exactly representable so permutations cannot
#: perturb comparisons.
fronts = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 32), st.just(3)),
    elements=st.floats(0, 1e6, allow_nan=False, width=32),
)

#: Random valid specs: a non-empty prefix of the criteria, one name per
#: objective column (the parser rejects duplicate columns).
_BY_COLUMN: dict[int, list[str]] = {}
for _name, _col in PREFERENCE_CRITERIA.items():
    _BY_COLUMN.setdefault(_col, []).append(_name)


@st.composite
def specs(draw):
    columns = draw(st.permutations(sorted(_BY_COLUMN)))
    length = draw(st.integers(1, len(columns)))
    names = [draw(st.sampled_from(sorted(_BY_COLUMN[c]))) for c in columns]
    return ">".join(names[:length])


@given(fronts, specs())
@settings(max_examples=80, deadline=None)
def test_selection_is_total_and_in_range(front, spec):
    idx = select_index(front, parse_preference(spec))
    assert 0 <= idx < front.shape[0]


@given(fronts, specs())
@settings(max_examples=80, deadline=None)
def test_selection_is_deterministic(front, spec):
    order = parse_preference(spec)
    assert order.select(front) == order.select(front.copy())
    assert select_index(front, order) == select_index(front, order)


@given(fronts, specs(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_selected_vector_is_permutation_invariant(front, spec, rng):
    order = parse_preference(spec)
    baseline = front[order.select(front)]
    permutation = list(range(front.shape[0]))
    rng.shuffle(permutation)
    shuffled = front[np.asarray(permutation)]
    np.testing.assert_array_equal(
        shuffled[order.select(shuffled)], baseline
    )


@given(fronts, specs())
@settings(max_examples=80, deadline=None)
def test_selected_row_is_the_lexicographic_minimum(front, spec):
    order = parse_preference(spec)
    chosen = order.key(front[order.select(front)])
    assert all(chosen <= order.key(row) for row in front)


@given(fronts)
@settings(max_examples=60, deadline=None)
def test_ideal_point_fallback_is_total_and_stable(front):
    idx = select_index(front, None)
    assert 0 <= idx < front.shape[0]
    assert select_index(front.copy(), None) == idx
