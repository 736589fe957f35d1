"""Unit tests for RNG plumbing, validators, timers and error types."""

import time

import numpy as np
import pytest

from repro import errors
from repro.errors import DimensionError, ValidationError
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.timers import Stopwatch, format_duration
from repro.utils.validation import (
    as_float_matrix,
    as_float_vector,
    check_fraction,
    check_nonnegative,
    check_positive_int,
    check_shape,
)


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a, b = as_generator(42), as_generator(42)
        assert a.integers(0, 1000) == b.integers(0, 1000)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_spawn_is_deterministic_and_independent(self):
        first = [g.integers(0, 10**9) for g in spawn_generators(7, 4)]
        second = [g.integers(0, 10**9) for g in spawn_generators(7, 4)]
        assert first == second
        assert len(set(first)) > 1  # streams differ from each other

    def test_spawn_prefix_stability(self):
        few = spawn_generators(3, 2)
        many = spawn_generators(3, 5)
        assert [g.integers(0, 10**9) for g in few] == [
            g.integers(0, 10**9) for g in many[:2]
        ]

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)


class TestValidation:
    def test_positive_int_accepts_numpy_ints(self):
        assert check_positive_int(np.int64(3), "x") == 3

    def test_positive_int_rejects_bool_and_zero(self):
        with pytest.raises(ValidationError):
            check_positive_int(True, "x")
        with pytest.raises(ValidationError):
            check_positive_int(0, "x")

    def test_nonnegative_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_nonnegative(np.array([1.0, np.nan]), "x")

    def test_fraction_strict_upper(self):
        check_fraction(np.array([0.0, 0.999]), "x")
        with pytest.raises(ValidationError):
            check_fraction(np.array([1.0]), "x")
        check_fraction(np.array([1.0]), "x", strict_upper=False)

    def test_shape_mismatch_is_dimension_error(self):
        with pytest.raises(DimensionError):
            check_shape(np.ones((2, 3)), (3, 2), "x")

    def test_matrix_vector_coercion(self):
        m = as_float_matrix([[1, 2], [3, 4]], 2, 2, "m")
        assert m.dtype == np.float64 and m.flags.c_contiguous
        v = as_float_vector([1, 2, 3], 3, "v")
        assert v.shape == (3,)
        with pytest.raises(DimensionError):
            as_float_vector([1, 2], 3, "v")


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as sw:
            time.sleep(0.01)
        assert 0.005 < sw.elapsed < 1.0

    def test_accumulates_across_restarts(self):
        sw = Stopwatch()
        sw.start()
        time.sleep(0.005)
        first = sw.stop()
        sw.start()
        time.sleep(0.005)
        second = sw.stop()
        assert second > first

    def test_reset(self):
        sw = Stopwatch().start()
        sw.reset()
        assert sw.elapsed == 0.0 and not sw.running

    def test_running_property(self):
        sw = Stopwatch()
        assert not sw.running
        sw.start()
        assert sw.running
        sw.stop()
        assert not sw.running


class TestFormatDuration:
    @pytest.mark.parametrize(
        "seconds,expect",
        [
            (90.0, "1 min 30.0 s"),
            (1.5, "1.50 s"),
            (0.25, "250.0 ms"),
            (5e-5, "50 us"),
        ],
    )
    def test_ranges(self, seconds, expect):
        assert format_duration(seconds) == expect

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            format_duration(-1.0)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_infeasible_is_solver_error(self):
        assert issubclass(errors.InfeasibleError, errors.SolverError)

    def test_dimension_is_model_error(self):
        assert issubclass(errors.DimensionError, errors.ModelError)
