"""Tests for phase timings and the online profiler."""

import numpy as np
import pytest

from fedsim.profiling import (
    DEFAULT_BASE_TIMINGS,
    ClientProfile,
    PhaseTimings,
    measure,
    scale_timings,
)


class TestPhaseTimings:
    def test_sums(self):
        t = PhaseTimings(ff=0.1, fc=0.2, bc=0.3, bf=0.4)
        assert t.frozen_time == pytest.approx(0.6)
        assert t.full_time == pytest.approx(1.0)

    def test_default_base(self):
        assert DEFAULT_BASE_TIMINGS.full_time == pytest.approx(1.0)
        assert DEFAULT_BASE_TIMINGS.frozen_time == pytest.approx(0.35)
        assert DEFAULT_BASE_TIMINGS.bf == pytest.approx(0.65)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhaseTimings(ff=0.0, fc=0.1, bc=0.1, bf=0.1)
        with pytest.raises(ValueError):
            PhaseTimings(ff=0.1, fc=-0.2, bc=0.1, bf=0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PhaseTimings(ff=float("inf"), fc=0.1, bc=0.1, bf=0.1)


class TestScaleTimings:
    def test_halving_speed_doubles_times(self):
        slow = scale_timings(DEFAULT_BASE_TIMINGS, 0.5)
        assert slow.ff == DEFAULT_BASE_TIMINGS.ff / 0.5
        assert slow.full_time == pytest.approx(2.0)

    def test_full_speed_is_identity(self):
        same = scale_timings(DEFAULT_BASE_TIMINGS, 1.0)
        assert same == DEFAULT_BASE_TIMINGS

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            scale_timings(DEFAULT_BASE_TIMINGS, 0.0)
        with pytest.raises(ValueError):
            scale_timings(DEFAULT_BASE_TIMINGS, -1.0)


class TestClientProfile:
    def test_estimate_is_product(self):
        p = ClientProfile(
            client_id=3,
            timings=PhaseTimings(ff=0.2, fc=0.2, bc=0.2, bf=0.4),
            remaining_updates=7,
        )
        assert p.estimated_remaining_time() == pytest.approx(7.0)


class TestMeasure:
    def test_zero_noise_is_exact(self):
        truth = scale_timings(DEFAULT_BASE_TIMINGS, 0.37)
        profile = measure(0, truth, remaining_updates=14, profile_batches=2,
                          noise_sigma=0.0, rng=np.random.default_rng(123))
        assert profile.timings == truth
        assert profile.remaining_updates == 14

    def test_zero_noise_draws_nothing(self):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"rng.{name} used")

        truth = scale_timings(DEFAULT_BASE_TIMINGS, 0.37)
        for rng in (Untouchable(), None):
            profile = measure(0, truth, remaining_updates=11, profile_batches=3,
                              noise_sigma=0.0, rng=rng)
            assert profile.timings == truth
            assert profile.remaining_updates == 11

    @pytest.mark.parametrize("batches", [1, 2, 3, 7, 16, 100])
    def test_zero_noise_draw_would_give_the_truth(self, batches):
        # What a sigma-0 measurement drew before it stopped drawing: every
        # factor is 1.0 + 0.0 * z, so each mean and product is exact.
        factors = np.random.default_rng(batches).normal(1.0, 0.0, size=(batches, 4))
        means = np.maximum(factors, 1e-9).mean(axis=0)
        truth = scale_timings(DEFAULT_BASE_TIMINGS, 0.37)
        assert [truth.ff * means[0], truth.fc * means[1], truth.bc * means[2],
                truth.bf * means[3]] == [truth.ff, truth.fc, truth.bc, truth.bf]

    def test_noise_needs_an_rng(self):
        with pytest.raises(ValueError, match="rng"):
            measure(0, DEFAULT_BASE_TIMINGS, 16, 2, 0.1, rng=None)

    def test_awaiting_batches_reduce_remaining(self):
        # The caller's count already excludes the profiled batches and those
        # run while the schedule was computed; measure subtracts nothing more.
        truth = scale_timings(DEFAULT_BASE_TIMINGS, 0.5)
        for noise_sigma in (0.0, 0.1):
            profile = measure(0, truth, remaining_updates=9, profile_batches=2,
                              noise_sigma=noise_sigma, rng=np.random.default_rng(1))
            assert profile.remaining_updates == 9

    def test_budget_overrun_rejected(self):
        truth = scale_timings(DEFAULT_BASE_TIMINGS, 0.5)
        with pytest.raises(ValueError, match="remaining_updates"):
            measure(0, truth, remaining_updates=-1, profile_batches=2,
                    noise_sigma=0.0, rng=None)

    def test_reproducible_given_seed(self):
        truth = scale_timings(DEFAULT_BASE_TIMINGS, 0.8)
        a = measure(0, truth, 16, 4, 0.1, rng=np.random.default_rng(42))
        b = measure(0, truth, 16, 4, 0.1, rng=np.random.default_rng(42))
        assert a.timings == b.timings

    def test_noise_changes_with_seed(self):
        truth = scale_timings(DEFAULT_BASE_TIMINGS, 0.8)
        a = measure(0, truth, 16, 4, 0.1, rng=np.random.default_rng(42))
        b = measure(0, truth, 16, 4, 0.1, rng=np.random.default_rng(43))
        assert a.timings != b.timings

    def test_noisy_timings_stay_positive(self):
        truth = scale_timings(DEFAULT_BASE_TIMINGS, 0.8)
        for seed in range(50):
            profile = measure(0, truth, 200, 100, 2.0, rng=np.random.default_rng(seed))
            assert profile.timings.ff > 0
            assert profile.timings.bf > 0

    def test_validation(self):
        truth = DEFAULT_BASE_TIMINGS
        with pytest.raises(ValueError, match="profile_batches"):
            measure(0, truth, 16, 0, 0.0, rng=None)
        with pytest.raises(ValueError, match="noise_sigma"):
            measure(0, truth, 16, 2, -0.5, rng=None)

    def test_averaging_concentrates(self):
        # With sigma 0.05 over 100 profiled batches the per-phase mean has
        # standard error 0.005, so being within 1.5% of truth is a 3-sigma
        # event; demand 99% success over 1000 seeds.
        truth = scale_timings(DEFAULT_BASE_TIMINGS, 0.6)
        hits = 0
        for seed in range(1000):
            profile = measure(0, truth, 200, 100, 0.05, rng=np.random.default_rng(seed))
            rel = abs(profile.timings.full_time - truth.full_time) / truth.full_time
            if rel < 0.015:
                hits += 1
        assert hits >= 990
