"""Unit tests for RNG plumbing, timers and error types."""

import time

import numpy as np
import pytest

from repro import errors
from repro.utils import rng as rng_module
from repro.utils.rng import (
    as_generator,
    derive_sequence,
    install_stream,
    root_sequence,
)
from repro.utils.timers import Stopwatch


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a, b = as_generator(42), as_generator(42)
        assert a.integers(0, 1000) == b.integers(0, 1000)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    @pytest.mark.parametrize("pool_size", [4, 8])
    def test_derive_sequence_matches_spawn(self, pool_size):
        """Child i by coordinate is child i by spawn order, pool size included."""
        for i in range(3):
            spawned = np.random.SeedSequence(5, pool_size=pool_size).spawn(i + 1)[i]
            derived = derive_sequence(np.random.SeedSequence(5, pool_size=pool_size), i)
            assert derived.spawn_key == spawned.spawn_key
            assert derived.pool_size == spawned.pool_size
            assert derived.generate_state(8).tolist() == spawned.generate_state(8).tolist()


def _stream_roots():
    """Roots from None, ints (one above 64 bits), a generator, a spawned
    child (non-empty spawn key), and one entropy at two pool sizes."""
    return [
        root_sequence(None),
        root_sequence(0),
        root_sequence(2**70),
        root_sequence(np.random.default_rng(17)),
        np.random.SeedSequence(3).spawn(2)[1],
        np.random.SeedSequence(9),
        np.random.SeedSequence(9, pool_size=8),
    ]


class TestInstallStream:
    PATHS = [(0, 0), (0, 5), (3, 1), (12, 7), (12, 7)]

    @staticmethod
    def _assert_starts_like_derived(generator, root, path):
        fresh = np.random.default_rng(derive_sequence(root, *path))
        assert generator.bit_generator.state == fresh.bit_generator.state
        assert generator.integers(0, 2**62, size=4).tolist() == fresh.integers(
            0, 2**62, size=4
        ).tolist()
        assert generator.random() == fresh.random()

    @pytest.mark.parametrize("warm", [False, True])
    def test_installed_state_matches_derived_generator(self, warm):
        generator = np.random.default_rng(0)  # reused for every stream
        for root in _stream_roots():
            if warm:
                for path in self.PATHS:
                    install_stream(np.random.default_rng(1), root, *path)
            else:
                rng_module._STREAM_STATES.clear()
            for path in self.PATHS:
                assert install_stream(generator, root, *path) is generator
                self._assert_starts_like_derived(generator, root, path)

    def test_callers_cannot_change_remembered_states(self):
        """Drawing from or reseeding the reused generator afterwards
        leaves what a later install finds unchanged."""
        rng_module._STREAM_STATES.clear()
        root = root_sequence(4)
        generator = np.random.default_rng(0)
        install_stream(generator, root, 2, 3)
        generator.random(5)
        generator.bit_generator.state = np.random.default_rng(99).bit_generator.state
        generator.bit_generator.state["state"]["state"] = 1  # a copy, ignored
        install_stream(generator, root, 2, 3)
        self._assert_starts_like_derived(generator, root, (2, 3))

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_STREAM_MEMO_SIZE", 8)
        rng_module._STREAM_STATES.clear()
        root = root_sequence(6)
        generator = np.random.default_rng(0)
        for _ in range(2):  # the second pass re-derives evicted states
            for row in range(20):
                install_stream(generator, root, 1, row)
                self._assert_starts_like_derived(generator, root, (1, row))
                assert len(rng_module._STREAM_STATES) <= 8
        rng_module._STREAM_STATES.clear()


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


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_dimension_is_model_error(self):
        assert issubclass(errors.DimensionError, errors.ModelError)
