"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, seeds_for_runs, spawn_rngs


class TestAsRng:
    def test_accepts_none(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_accepts_int_seed_deterministically(self):
        a = as_rng(42).integers(0, 1000, size=5)
        b = as_rng(42).integers(0, 1000, size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_rng(1).integers(0, 10**6, size=8)
        b = as_rng(2).integers(0, 10**6, size=8)
        assert not np.array_equal(a, b)

    def test_passes_generator_through(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(as_rng(seq), np.random.Generator)

    def test_rejects_invalid_type(self):
        with pytest.raises(TypeError):
            as_rng("not-a-seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_are_independent(self):
        children = spawn_rngs(0, 2)
        a = children[0].integers(0, 10**6, size=10)
        b = children[1].integers(0, 10**6, size=10)
        assert not np.array_equal(a, b)

    def test_deterministic_given_seed(self):
        a = [g.integers(0, 10**6) for g in spawn_rngs(3, 4)]
        b = [g.integers(0, 10**6) for g in spawn_rngs(3, 4)]
        assert a == b

    def test_spawning_from_generator(self):
        gen = np.random.default_rng(0)
        children = spawn_rngs(gen, 3)
        assert len(children) == 3


class TestSeedsForRuns:
    def test_count_and_type(self):
        seeds = seeds_for_runs(0, 10)
        assert len(seeds) == 10
        assert all(isinstance(s, int) for s in seeds)

    def test_deterministic(self):
        assert seeds_for_runs(5, 6) == seeds_for_runs(5, 6)

    def test_distinct(self):
        seeds = seeds_for_runs(0, 20)
        assert len(set(seeds)) == 20

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            seeds_for_runs(0, -2)
