"""Monotonic alignment: likelihood grids, search, durations, expansion."""

import numpy as np
import pytest

from pptts import align
from tests.test_kernels import assert_valid_alignment, brute_force_alignment


def direct_grid(mean, std, frames):
    """Per-element Gaussian log density, summed over channels (slow oracle)."""
    n, c = mean.shape
    t = frames.shape[0]
    out = np.zeros((n, t))
    for j in range(n):
        for i in range(t):
            for ch in range(c):
                resid = (frames[i, ch] - mean[j, ch]) / std[j, ch]
                out[j, i] += (
                    -0.5 * resid**2 - 0.5 * np.log(2 * np.pi) - np.log(std[j, ch])
                )
    return out


class TestLikelihoodGrid:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        mean = rng.normal(size=(3, 4))
        std = rng.uniform(0.5, 2.0, size=(3, 4))
        frames = rng.normal(size=(6, 4))
        grid = align.likelihood_grid(mean, std, frames)
        assert grid.shape == (3, 6)
        assert np.allclose(grid, direct_grid(mean, std, frames), atol=1e-9)

    def test_perfect_match_closed_form(self):
        # mu equals the frame, sigma = 1: density is -C/2 log(2 pi) exactly.
        rng = np.random.default_rng(1)
        frames = rng.normal(size=(1, 5))
        grid = align.likelihood_grid(frames, np.ones_like(frames), frames)
        assert np.allclose(grid[0, 0], -5 / 2 * np.log(2 * np.pi), atol=1e-12)

    def test_doubling_sigma_lowers_zero_residual_entries(self):
        frames = np.zeros((2, 3))
        mean = np.zeros((2, 3))
        g1 = align.likelihood_grid(mean, np.ones((2, 3)), frames)
        g2 = align.likelihood_grid(mean, 2 * np.ones((2, 3)), frames)
        assert np.all(g2 < g1)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            align.likelihood_grid(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((4, 3)))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            align.likelihood_grid(np.zeros((2, 3)), np.ones((2, 3)), np.zeros((4, 5)))


class TestSearch:
    def test_brute_force_equivalence(self, alignment_score):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4):
            for t in range(n, 9):
                for _ in range(25):
                    grid = rng.normal(size=(n, t))
                    a = align.monotonic_alignment_search([grid])[0]
                    assert_valid_alignment(a, n, t)
                    got = alignment_score(grid, a)
                    want, _ = brute_force_alignment(grid)
                    assert abs(got - want) < 1e-9

    def test_thousand_random_grids_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            t = int(rng.integers(n, 12))
            a = align.monotonic_alignment_search([rng.normal(size=(n, t))])[0]
            assert_valid_alignment(a, n, t)

    def test_sequence_of_grids_gives_one_path_each(self):
        rng = np.random.default_rng(5)
        grids = [rng.normal(size=shape) for shape in ((2, 9), (5, 5), (1, 3))]
        paths = align.monotonic_alignment_search(grids)
        assert isinstance(paths, list) and len(paths) == 3
        for grid, path in zip(grids, paths):
            assert np.array_equal(path, align.monotonic_alignment_search([grid])[0])
        assert align.monotonic_alignment_search(tuple(grids))[1].tolist() == list(range(5))


class TestDurations:
    def test_example(self):
        a = np.array([0, 0, 1, 2, 2, 2])
        assert align.alignment_to_durations(a, 3).tolist() == [2, 1, 3]

    def test_single_token(self):
        assert align.alignment_to_durations(np.zeros(4, dtype=np.int64), 1).tolist() == [4]

    def test_round_trip_via_prefix_sums(self, durations_to_assignment):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            t = int(rng.integers(n, 10))
            a = align.monotonic_alignment_search([rng.normal(size=(n, t))])[0]
            d = align.alignment_to_durations(a, n)
            assert d.sum() == t and np.all(d >= 1)
            assert np.array_equal(durations_to_assignment(d), a)

    def test_token_without_frames_rejected(self):
        with pytest.raises(ValueError):
            align.alignment_to_durations(np.array([0, 0, 2, 2]), 3)


class TestExpandPrior:
    def test_repeat_single_token(self):
        mean = np.array([[1.0, 2.0]])
        std = np.array([[0.5, 0.7]])
        m, s = align.expand_prior(mean, std, np.array([3]))
        assert m.shape == (3, 2)
        assert np.all(m == mean) and np.all(s == std)

    def test_example_two_tokens(self):
        mean = np.array([[1.0], [9.0]])
        std = np.ones((2, 1))
        m, _ = align.expand_prior(mean, std, np.array([2, 1]))
        assert m.ravel().tolist() == [1.0, 1.0, 9.0]

    def test_total_frames(self):
        rng = np.random.default_rng(5)
        mean = rng.normal(size=(4, 3))
        std = rng.uniform(0.1, 1.0, size=(4, 3))
        d = np.array([2, 0, 5, 1])
        m, s = align.expand_prior(mean, std, d)
        assert m.shape[0] == d.sum() == s.shape[0]

    def test_all_zero_durations_rejected(self):
        with pytest.raises(ValueError):
            align.expand_prior(np.zeros((2, 3)), np.ones((2, 3)), np.array([0, 0]))


class TestAlignmentLogPrior:
    def test_each_frame_is_a_distribution_over_tokens(self):
        for n, t in [(1, 1), (1, 7), (3, 3), (4, 10), (6, 41)]:
            prior = align.alignment_log_prior(n, t)
            assert prior.shape == (n, t)
            np.testing.assert_allclose(np.exp(prior).sum(axis=0), 1.0, rtol=1e-12)

    def test_mass_follows_the_diagonal(self):
        prior = align.alignment_log_prior(4, 40)
        peaks = prior.argmax(axis=0)
        assert peaks[0] == 0 and peaks[-1] == 3
        assert np.all(np.diff(peaks) >= 0)

    def test_flat_grid_aligns_near_diagonal(self):
        # A flat likelihood (an untrained, uniform prior) leaves the search
        # to break every tie; the static prior turns that into near-equal
        # durations instead of handing every spare frame to one token.
        n, t = 4, 53
        flat = np.zeros((n, t))
        collapsed = align.alignment_to_durations(
            align.monotonic_alignment_search([flat])[0], n
        )
        assert collapsed.max() == t - n + 1
        durations = align.alignment_to_durations(
            align.monotonic_alignment_search([flat + align.alignment_log_prior(n, t)])[0], n
        )
        assert np.all(np.abs(durations - t / n) <= 1.5)

    def test_read_only_and_cached(self):
        a = align.alignment_log_prior(3, 12)
        assert a is align.alignment_log_prior(3, 12)
        assert not a.flags.writeable

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            align.alignment_log_prior(0, 5)
