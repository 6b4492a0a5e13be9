"""K-means codebook, quantization, and run-length token handling."""

import dataclasses
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pptts import _kernels, pseudo
from pptts.config import AudioConfig
from pptts.features import FrameFeatures
from pptts.pseudo import (
    Codebook,
    codebook_hash,
    expand_runs,
    load_codebook,
    merge_runs,
    quantize,
    save_codebook,
    train_codebook,
)


def make_features(values):
    return FrameFeatures(
        values=np.asarray(values, dtype=np.float32),
        provider_id="test",
        frame_rate_hz=50.0,
    )


def blob_features(rng, k, per_cluster, dim, spread=0.02, separation=10.0):
    centers = rng.normal(scale=separation, size=(k, dim))
    points, labels = [], []
    for i in range(k):
        points.append(centers[i] + rng.normal(scale=spread, size=(per_cluster, dim)))
        labels.extend([i] * per_cluster)
    return np.vstack(points), np.array(labels), centers


def cluster_purity(assignments, labels, k):
    total = 0
    for c in range(k):
        members = labels[assignments == c]
        if members.size:
            total += np.bincount(members).max()
    return total / len(labels)


class TestTrainCodebook:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(0)
        points, labels, _ = blob_features(rng, k=8, per_cluster=40, dim=5)
        cb = train_codebook([make_features(points)], k=8, seed=1)
        ids = quantize(make_features(points), cb)
        assert cluster_purity(ids, labels, 8) >= 0.99

    def test_streaming_matches_single_batch(self):
        rng = np.random.default_rng(1)
        points, _, _ = blob_features(rng, k=4, per_cluster=30, dim=3)
        whole = train_codebook([make_features(points)], k=4, seed=2)
        parts = [make_features(points[:50]), make_features(points[50:])]
        split = train_codebook(parts, k=4, seed=2)
        assert np.allclose(whole.centroids, split.centroids)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(100, 4))
        a = train_codebook([make_features(points)], k=5, seed=7)
        b = train_codebook([make_features(points)], k=5, seed=7)
        assert np.array_equal(a.centroids, b.centroids)

    def test_fit_matches_broadcast_kernel(self, monkeypatch):
        rng = np.random.default_rng(4)
        points, _, _ = blob_features(rng, k=6, per_cluster=400, dim=7, spread=1.0, separation=2.0)
        feats = [make_features(points)]
        fast = train_codebook(feats, k=12, seed=3, max_iters=25, tol=0)
        calls = []

        def broadcast_nearest(frames, centroids):
            calls.append(len(frames))
            d2 = np.square(frames[:, None, :] - centroids[None, :, :]).sum(axis=2)
            ids = np.argmin(d2, axis=1)
            rows = np.arange(len(frames))
            best = d2[rows, ids]
            # Each other exact distance, less its rounding, bounds the
            # distance to that centroid from below.
            d2[rows, ids] = np.inf
            rel = _kernels.rounding_margin(frames.shape[1])
            low = d2.min(axis=1) * (1 - rel) - np.finfo(np.float64).tiny
            return ids, best, np.sqrt(np.maximum(low, 0.0))

        monkeypatch.setattr(_kernels, "nearest_centroids", broadcast_nearest)
        slow = train_codebook(feats, k=12, seed=3, max_iters=25, tol=0)
        assert calls
        assert codebook_hash(fast) == codebook_hash(slow)
        assert fast.inertia == slow.inertia

    def test_fewer_points_than_k(self):
        points = np.random.default_rng(3).normal(size=(4, 2))
        with pytest.raises(ValueError):
            train_codebook([make_features(points)], k=5, seed=0)

    def test_fewer_distinct_than_k(self):
        points = np.ones((50, 3))
        with pytest.raises(ValueError, match="distinct"):
            train_codebook([make_features(points)], k=2, seed=0)

    def test_kth_distinct_frame_last(self):
        # The prefix holds one distinct row, so the whole input is counted.
        points = np.ones((200, 3))
        points[-1] = 0.0
        cb = train_codebook([make_features(points)], k=2, seed=0)
        assert sorted(cb.centroids[:, 0].tolist()) == [0.0, 1.0]

    def test_inertia_recorded(self):
        points = np.random.default_rng(4).normal(size=(60, 3))
        cb = train_codebook([make_features(points)], k=4, seed=0)
        assert cb.inertia is not None and cb.inertia >= 0

    def test_k_one(self):
        points = np.random.default_rng(5).normal(size=(30, 2))
        cb = train_codebook([make_features(points)], k=1, seed=0)
        assert np.allclose(cb.centroids[0], points.mean(axis=0), atol=1e-9)

    @pytest.mark.parametrize("k, max_iters", [(0, 10), (-1, 10), (2, 0), (2, -2)])
    def test_k_and_passes_below_one_rejected(self, k, max_iters):
        points = np.random.default_rng(7).normal(size=(20, 2))
        name = "k" if k < 1 else "max_iters"
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            train_codebook([make_features(points)], k=k, seed=0, max_iters=max_iters)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_rejected(self, bad):
        points = np.random.default_rng(6).normal(size=(30, 3))
        points[17, 1] = bad
        parts = [make_features(points[:12]), make_features(points[12:])]
        with pytest.raises(ValueError, match=r"feature frame 17 \(frame 5 of feature item 1\) "
                           "holds a value that is not finite"):
            train_codebook(parts, k=4, seed=0)

    def test_provider_mismatch_rejected(self):
        a = make_features(np.zeros((10, 2)))
        b = FrameFeatures(np.ones((10, 2), np.float32) * np.arange(10)[:, None], "other", 50.0)
        with pytest.raises(ValueError, match="provider"):
            train_codebook([a, b], k=2, seed=0)


@st.composite
def fit_cases(draw):
    """Feature streams with exact ties, duplicates, underflowing spreads and
    large offsets, and a k up to their number of distinct rows."""
    d = draw(st.one_of(st.integers(1, 24), st.just(129)))
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1.0, -3e3, 1e6]))
    spread = draw(st.sampled_from([1e-160, 1e-3, 1.0, 50.0]))
    frames = offset + spread * rng.standard_normal((n, d))
    if draw(st.booleans()):  # duplicate frames
        frames = frames[rng.integers(0, max(1, n // 3), size=n)]
    if draw(st.booleans()):  # coarse grid: many exactly equal distances
        step = spread / 2
        frames = np.round(frames / step) * step
    # From one cluster up to one per distinct row, where clusters empty.
    share = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    k = 1 + round(share * (len(np.unique(frames, axis=0)) - 1))
    cut = draw(st.integers(0, n - 1))
    parts = [frames] if cut == 0 else [frames[:cut], frames[cut:]]
    stream = [FrameFeatures(part, "test", 50.0) for part in parts]
    return stream, k, draw(st.integers(0, 2**16))


def _stream(frames):
    return [FrameFeatures(frames, "test", 50.0)]


def _two_tight_groups():
    """Two groups of 10 frames, around 0 and around 1, whose distances
    inside a group square to 0. The third and fourth k-means++ seeds are
    drawn uniformly; at k = 4 two clusters empty at once and are reseeded
    to the same frame, so two centroids coincide (separation 0)."""
    rng = np.random.default_rng(0)
    return np.vstack([1e-170 * rng.standard_normal((10, 2)), 1 + 1e-170 * rng.standard_normal((10, 2))])


# (stream, k, seed) cases of ``fit_cases`` that each fit must meet.
FIT_EXAMPLES = [
    (_stream(_two_tight_groups()), 4, 0),
    # One centroid: no other one, so every separation is infinite.
    (_stream(np.random.default_rng(2).standard_normal((30, 3))), 1, 2),
    # |x|^2 dwarfs the distances: every bound and separation comes out 0.
    (_stream(1e6 + 1e-3 * np.random.default_rng(3).standard_normal((60, 4))), 5, 3),
]


class TestSeedingMatchesOracle:
    """The screened k-means++ seeding draws what updating every frame's
    exact distance draws, bit for bit."""

    @staticmethod
    def assert_same_seeds(seed_fn, frames, k, seed):
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = pseudo._kmeans_pp_init(frames, k, rng)
        want = seed_fn(frames, k, want_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(case=fit_cases())
    def test_matches_exact_seeding(self, kmeans_pp_seed, case):
        stream, k, seed = case
        frames, _ = pseudo._collect_frames(stream)
        self.assert_same_seeds(kmeans_pp_seed, frames, k, seed)

    def test_spans_several_blocks(self, monkeypatch, kmeans_pp_seed):
        monkeypatch.setattr(pseudo, "_SEED_BLOCK", 64)
        rng = np.random.default_rng(6)
        points, _, _ = blob_features(rng, k=5, per_cluster=80, dim=3, spread=1.0, separation=2.0)
        self.assert_same_seeds(kmeans_pp_seed, points, 16, 2)


class TestFitMatchesOracle:
    """The bounded Lloyd passes return what assigning every frame every pass
    returns, bit for bit."""

    @pytest.mark.parametrize("schedule", [dict(max_iters=32, tol=0.0), dict()])
    @settings(max_examples=150, deadline=None)
    @given(case=fit_cases())
    @example(case=FIT_EXAMPLES[0])
    @example(case=FIT_EXAMPLES[1])
    @example(case=FIT_EXAMPLES[2])
    def test_matches_every_frame_every_pass(self, lloyd_fit, schedule, case):
        stream, k, seed = case
        values = []
        fit = train_codebook(
            stream, k, seed, on_iteration=lambda i, v: values.append((i, v)), **schedule
        )
        want, want_values, _ = lloyd_fit(stream, k, seed, **schedule)
        assert codebook_hash(fit) == codebook_hash(want)
        assert fit.inertia == want.inertia
        assert values == want_values

    @pytest.mark.parametrize("seed", range(4))
    def test_large_offset_small_spread(self, lloyd_fit, seed):
        # |x|^2 is 1e13 times the distances here, so the GEMM scores hold
        # no digit of them: every bound must come out 0 and every frame be
        # rescanned.
        frames = 1e6 + 1e-3 * np.random.default_rng(seed).standard_normal((300, 5))
        stream = [FrameFeatures(frames, "test", 50.0)]
        fit = train_codebook(stream, 8, seed, max_iters=32, tol=0.0)
        assert codebook_hash(fit) == codebook_hash(lloyd_fit(stream, 8, seed, max_iters=32, tol=0.0)[0])

    def test_passes_send_fewer_frames(self, monkeypatch, lloyd_fit):
        rng = np.random.default_rng(5)
        points, _, _ = blob_features(rng, k=8, per_cluster=60, dim=6, spread=1.0, separation=3.0)
        feats = [make_features(points)]
        want, _, history = lloyd_fit(feats, 12, 4, max_iters=40, tol=0.0)
        calls = []
        nearest = _kernels.nearest_centroids

        def counting(frames, centroids):
            if frames is not centroids:  # not the separations of the centroids
                calls.append(len(frames))
            return nearest(frames, centroids)

        monkeypatch.setattr(_kernels, "nearest_centroids", counting)
        sent = []  # frames sent to the kernel by each pass

        def on_iteration(i, _):
            sent.append(sum(calls))
            calls.clear()

        fit = train_codebook(feats, 12, 4, max_iters=40, tol=0.0, on_iteration=on_iteration)
        assert codebook_hash(fit) == codebook_hash(want)
        n = len(points)
        assert sent[0] == n
        assert all(count < n for count in sent[1:])
        # Pass t assigns to history[t - 1]; it is still when that equals
        # what pass t - 1 assigned to.
        still = [t for t in range(2, len(sent)) if np.array_equal(history[t - 1], history[t - 2])]
        assert still, "the fit did not converge"
        assert all(sent[t] == 0 for t in still)
        # With the bound test alone the fit sent 1804 frames here; the
        # separation test keeps some of those on their centroid.
        assert sum(sent) < 1804

    def test_fit_calls_the_kernel_by_module_attribute(self, monkeypatch):
        # Profilers wrap ``_kernels.nearest_centroids`` by attribute, so the
        # fit must look it up there on every pass: once for the frames sent
        # to it and once for the separations of the centroids.
        rng = np.random.default_rng(5)
        points, _, _ = blob_features(rng, k=8, per_cluster=60, dim=6, spread=1.0, separation=3.0)
        kernel = _kernels.nearest_centroids
        calls = []

        def wrapped(frames, centroids):
            calls.append("separations" if frames is centroids else len(frames))
            return kernel(frames, centroids)

        monkeypatch.setattr(_kernels, "nearest_centroids", wrapped)
        passes = []

        def on_iteration(i, _):
            passes.append(list(calls))
            calls.clear()

        # This fit is still moving its centroids after 10 passes.
        train_codebook([make_features(points)], 12, 4, max_iters=10, tol=0.0,
                       on_iteration=on_iteration)
        assert len(passes) == 10
        assert passes[0] == [len(points)]
        for later in passes[1:]:
            assert later.count("separations") == 1

    def test_passes_sum_only_changed_clusters(self, monkeypatch, lloyd_fit, kmeans_pp_seed):
        rng = np.random.default_rng(5)
        points, _, _ = blob_features(rng, k=8, per_cluster=60, dim=6, spread=1.0, separation=3.0)
        feats = [make_features(points)]
        frames, _ = pseudo._collect_frames(feats)
        _, _, history = lloyd_fit(feats, 12, 4, max_iters=40, tol=0.0)
        seeds = kmeans_pp_seed(frames, 12, np.random.default_rng(4))
        # The ids each pass sums over: pass t assigns to history[t - 1].
        assigned = [_kernels.nearest_centroids(frames, c)[0] for c in [seeds] + history[:-1]]
        counted = []
        bincount = np.bincount

        def counting(x, weights=None, minlength=0):
            if weights is None:
                counted.append(len(x))
            return bincount(x, weights=weights, minlength=minlength)

        monkeypatch.setattr(np, "bincount", counting)
        summed = []  # frames handed to np.bincount by each pass

        def on_iteration(i, _):
            summed.append(sum(counted))
            counted.clear()

        train_codebook(feats, 12, 4, max_iters=40, tol=0.0, on_iteration=on_iteration)
        want = [len(frames)]
        for before, after in zip(assigned, assigned[1:]):
            switched = before != after
            changed = np.zeros(12, dtype=bool)
            changed[before[switched]] = changed[after[switched]] = True
            want.append(int(changed[after].sum()))
        assert summed == want
        assert 0 in summed and any(0 < count < len(frames) for count in summed)


class TestSeparationTest:
    """Every frame that ``pseudo._separated`` keeps on its centroid has
    every other centroid strictly farther, in exact arithmetic and in the
    kernel's exact expression."""

    @staticmethod
    def assert_kept_frames_separated(frames, centroids):
        ids, d2, _ = _kernels.nearest_centroids(frames, centroids)
        kept = pseudo._separated(centroids, ids, d2)
        computed = np.square(frames[:, None, :] - centroids[None, :, :]).sum(axis=2)
        for x, own, row in zip(frames[kept], ids[kept], computed[kept]):
            exact = [sum((Fraction(u) - Fraction(v)) ** 2 for u, v in zip(x, c)) for c in centroids]
            for j in range(len(centroids)):
                if j != own:
                    assert exact[j] > exact[own]
                    assert row[j] > row[own]
        return kept

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 6),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, 1.0, -3e3, 1e6]),
        spread=st.sampled_from([1e-160, 1e-3, 1.0, 50.0]),
        reach=st.sampled_from([0.0, 1e-3, 0.3, 1.0]),
        duplicates=st.booleans(),
    )
    def test_kept_frames_have_every_other_centroid_farther(
        self, d, k, seed, offset, spread, reach, duplicates
    ):
        rng = np.random.default_rng(seed)
        centroids = offset + spread * rng.standard_normal((k, d))
        if duplicates:
            centroids = centroids[rng.integers(0, max(1, k // 2), size=k)]
        # Frames near a centroid, at the midpoint of two (an exact tie when
        # it rounds to one), and just off that midpoint.
        near = centroids[rng.integers(0, k, size=6)] + reach * spread * rng.standard_normal((6, d))
        pairs = centroids[rng.integers(0, k, size=(4, 2))]
        mid = (pairs[:, 0] + pairs[:, 1]) / 2
        frames = np.vstack([near, mid, np.nextafter(mid, pairs[:, 0])])
        self.assert_kept_frames_separated(frames, centroids)

    def test_ties_and_near_ties_go_to_the_kernel(self):
        centroids = np.array([[0.0], [2.0]])
        frames = np.array([[1.0], [np.nextafter(1.0, 0.0)], [np.nextafter(1.0, 2.0)], [0.5], [1.5]])
        kept = self.assert_kept_frames_separated(frames, centroids)
        assert kept.tolist() == [False, False, False, True, True]

    def test_duplicated_centroids_keep_none_of_their_frames(self):
        centroids = np.array([[0.0, 0.0], [3.0, 1.0], [0.0, 0.0]])
        frames = np.array([[0.0, 0.0], [0.1, 0.0], [3.0, 1.1]])
        kept = self.assert_kept_frames_separated(frames, centroids)
        assert kept.tolist() == [False, False, True]

    def test_single_centroid_keeps_every_finite_frame(self):
        frames = np.random.default_rng(8).normal(size=(5, 3))
        ids, d2, _ = _kernels.nearest_centroids(frames, frames[:1])
        assert pseudo._separated(frames[:1], ids, d2).all()


class TestQuantize:
    def test_nearest(self):
        cb = Codebook(
            centroids=np.array([[0.0, 0.0], [10.0, 10.0]]), seed=0, provider_id="test",
        )
        feats = make_features([[0.1, -0.1], [9.5, 10.2], [0.2, 0.3]])
        assert quantize(feats, cb).tolist() == [0, 1, 0]

    def test_dim_mismatch(self):
        cb = Codebook(np.zeros((2, 3)), 0, "test")
        with pytest.raises(ValueError, match="dim"):
            quantize(make_features(np.zeros((5, 2))), cb)

    def test_all_ids_below_k(self):
        rng = np.random.default_rng(6)
        cb = train_codebook([make_features(rng.normal(size=(80, 4)))], k=6, seed=0)
        ids = quantize(make_features(rng.normal(size=(200, 4))), cb)
        assert ids.min() >= 0 and ids.max() < 6


class TestRuns:
    def test_merge_example(self):
        tokens, durations = merge_runs(np.array([3, 3, 5, 5, 5, 2]))
        assert tokens.tolist() == [3, 5, 2]
        assert durations.tolist() == [2, 3, 1]

    def test_no_adjacent_duplicates(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ids = rng.integers(0, 4, size=rng.integers(1, 40))
            tokens, _ = merge_runs(ids)
            assert np.all(np.diff(tokens) != 0)

    def test_empty(self):
        runs = merge_runs(np.array([], dtype=np.int64))
        assert len(runs[0]) == 0 and len(runs[1]) == 0
        assert expand_runs(runs).size == 0

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 9), min_size=0, max_size=60))
    def test_round_trip_identity(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        assert np.array_equal(expand_runs(merge_runs(ids)), ids)

    def test_durations_sum(self):
        ids = np.array([1, 1, 2, 2, 2, 1])
        _, durations = merge_runs(ids)
        assert durations.sum() == len(ids)


class TestCodebookIO:
    def _codebook(self):
        rng = np.random.default_rng(8)
        return train_codebook([make_features(rng.normal(size=(60, 3)))], k=4, seed=9)

    def test_round_trip(self, tmp_path):
        cb = self._codebook()
        path = tmp_path / "cb.txt"
        save_codebook(path, cb)
        back = load_codebook(path)
        assert np.array_equal(back.centroids, cb.centroids)
        assert (back.k, back.dim, back.seed) == (cb.k, cb.dim, cb.seed)
        assert back.provider_id == cb.provider_id

    def test_header_format(self, tmp_path):
        cb = self._codebook()
        path = tmp_path / "cb.txt"
        save_codebook(path, cb)
        first = path.read_text().splitlines()[0]
        assert first == "PPCB2 k=4 dim=3 seed=9 provider=test"

    def _with_front_end(self):
        rng = np.random.default_rng(10)
        audio = AudioConfig(
            sample_rate=8000, n_fft=256, hop_length=64, win_length=200, center=False,
            n_mels=3, fmin=31.7, fmax=3999.9, mel_floor=1.234567e-7,
        )
        return dataclasses.replace(
            self._codebook(),
            provider_id="builtin-mel",
            audio=audio,
            mean=rng.normal(scale=7.0, size=3).astype(np.float32),
            std=rng.uniform(1e-8, 3.0, size=3).astype(np.float32),
        )

    def test_front_end_round_trips_bit_for_bit(self, tmp_path):
        cb = self._with_front_end()
        path = tmp_path / "cb.txt"
        save_codebook(path, cb)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("PPCB2 k=4 dim=3 seed=9 provider=builtin-mel sample_rate=8000 ")
        assert lines[1].startswith("mean ") and lines[2].startswith("std ")
        back = load_codebook(path)
        assert back.audio == cb.audio
        for got, want in ((back.mean, cb.mean), (back.std, cb.std)):
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert back.centroids.tobytes() == cb.centroids.tobytes()
        assert codebook_hash(back) == codebook_hash(cb) != codebook_hash(self._codebook())

    def test_front_end_is_all_or_nothing(self, tmp_path):
        cb = dataclasses.replace(self._with_front_end(), std=None)
        with pytest.raises(ValueError, match="together"):
            save_codebook(tmp_path / "cb.txt", cb)

    def test_ppcb1_file_is_refused(self, tmp_path):
        cb = self._codebook()
        path = tmp_path / "cb.txt"
        save_codebook(path, cb)
        path.write_text(path.read_text().replace("PPCB2", "PPCB1", 1))
        with pytest.raises(ValueError, match="not a codebook file") as info:
            load_codebook(path)
        assert str(path) in str(info.value)

    def test_hash_is_pinned(self):
        # Checkpoint headers store this digest: a change to it orphans
        # every saved checkpoint.
        cb = Codebook(np.array([[0.0, -1.5, 2.25], [1e-3, 3.0, -0.125]]), 9, "test")
        assert codebook_hash(cb) == (
            "81f87c811340b36b0c7d7d68cff503b38b0b32ef136602fda6e4611210d58881"
        )
        digest = hashlib.sha256(
            b"PPCB1 k=2 dim=3 seed=9 provider=test\n" + cb.centroids.astype("<f8").tobytes()
        )
        assert codebook_hash(cb) == digest.hexdigest()
        audio = AudioConfig(
            sample_rate=8000, n_fft=256, hop_length=64, win_length=200, center=False,
            n_mels=3, fmin=31.7, fmax=3999.9, mel_floor=1.234567e-7,
        )
        front = dataclasses.replace(
            cb, provider_id="builtin-mel", audio=audio,
            mean=np.array([0.5, -2.0, 7.25], dtype=np.float32),
            std=np.array([1.0, 0.25, 3.0], dtype=np.float32),
        )
        assert codebook_hash(front) == (
            "e363ac7b92211005e749fd7a7e2e8492252e2885eafc7d13844a7b3e51f1e6bd"
        )

    @pytest.mark.parametrize(
        "line, row, message",
        [
            (1, "mean 0.5 1.0", "line 2 has 2 values, header dim is 3"),
            (1, "mean 0.5 x 1.0", "line 2 is not a row of numbers"),
            (1, "mean 0.5 1e39 1.0", "line 2 holds a value that is not a finite float32"),
            (1, "0.5 0.5 1.0", "line 2 is not the 'mean' row"),
            (2, "std 1.0 0.0 1.0", "line 3 holds a std <= 0"),
            (2, "std 1.0 -2.0 1.0", "line 3 holds a std <= 0"),
            (2, "std 1.0 1e-50 1.0", "line 3 holds a std <= 0"),
            (2, "std 1.0 nan 1.0", "line 3 holds a value that is not a finite float32"),
        ],
    )
    def test_malformed_stats_row(self, tmp_path, line, row, message):
        path = tmp_path / "cb.txt"
        save_codebook(path, self._with_front_end())
        lines = path.read_text().splitlines()
        lines[line] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            load_codebook(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("row", ["nan inf 0.0", "0.5 -inf 1.0", "1e309 0.0 0.0", "0.0 0.0 nan"])
    @pytest.mark.parametrize("front_end", [True, False])
    def test_non_finite_centroid_row(self, tmp_path, row, front_end):
        path = tmp_path / "cb.txt"
        save_codebook(path, self._with_front_end() if front_end else self._codebook())
        lines = path.read_text().splitlines()
        lines[-1] = row
        path.write_text("\n".join(lines) + "\n")
        message = f"line {len(lines)} holds a value that is not a finite float64"
        with pytest.raises(ValueError, match=message) as info:
            load_codebook(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "field, swap, message",
        [
            ("n_fft=256", "", "lacks the 'n_fft' field"),
            ("center=false", "center=maybe", "center='maybe' is not a value"),
            # Versions that let a config bool be a string wrote this header.
            ("center=false", 'center="False"', "center must be true or false, got 'False'"),
            pytest.param(
                "n_mels=3", "n_mels=0", r"\[feature\]: n_mels must be an integer >= 1, got 0",
                id="n_mels=3-n_mels=0-n_mels must be >= 1",
            ),
            ("win_length=200", "win_length=300", "win_length must be <= n_fft"),
            pytest.param(
                "hop_length=64", "hop_length=6.4",
                r"\[feature\]: hop_length must be an integer >= 1, got 6.4",
                id="hop_length=64-hop_length=6.4-hop_length must be an integer, got 6.4",
            ),
            ("fmin=31.7", 'fmin="low"', "fmin must be a finite number, got 'low'"),
            ("fmin=31.7", "fmin=NaN", "fmin must be a finite number, got nan"),
            ("fmin=31.7", "fmin=true", "fmin must be a finite number, got True"),
            ("fmax=3999.9", "fmax=4000.5", "fmin and fmax must satisfy 0 <= fmin < fmax"),
        ],
    )
    def test_malformed_audio_field(self, tmp_path, field, swap, message):
        path = tmp_path / "cb.txt"
        save_codebook(path, self._with_front_end())
        path.write_text(path.read_text().replace(field, swap, 1))
        with pytest.raises(ValueError, match=message) as info:
            load_codebook(path)
        assert str(path) in str(info.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "cb.txt"
        path.write_text("WRONG k=1 dim=1 seed=0 provider=x\n0.0\n")
        with pytest.raises(ValueError):
            load_codebook(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("PPCB2 k=1 dim=1 seed=0", "lacks the 'provider' field"),
            ("PPCB2 k=1 dim=1 provider=x", "lacks the 'seed' field"),
            ("PPCB2 k=1 dim=1 seed=0 provider=x junk", "malformed codebook header field 'junk'"),
            ("PPCB2 k=one dim=1 seed=0 provider=x", "k='one' is not an integer"),
            ("PPCB2 k=0 dim=1 seed=0 provider=x", "k=0 must be >= 1"),
        ],
    )
    def test_malformed_header(self, tmp_path, header, message):
        path = tmp_path / "cb.txt"
        path.write_text(header + "\n0.0\n")
        with pytest.raises(ValueError, match=message) as info:
            load_codebook(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("PPCB2 k=2 dim=2 seed=0 provider=x\n0.0 1.0\n2.0\n", "line 3 has 1 values"),
            ("PPCB2 k=1 dim=2 seed=0 provider=x\n0.0 abc\n", "line 2 is not a row of numbers"),
        ],
    )
    def test_malformed_body(self, tmp_path, text, message):
        path = tmp_path / "cb.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            load_codebook(path)
        assert str(path) in str(info.value)

    def test_row_count_mismatch(self, tmp_path):
        cb = self._codebook()
        path = tmp_path / "cb.txt"
        save_codebook(path, cb)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            load_codebook(path)

    def test_hash_stability_and_sensitivity(self, tmp_path):
        cb = self._codebook()
        h1 = codebook_hash(cb)
        path = tmp_path / "cb.txt"
        save_codebook(path, cb)
        assert codebook_hash(load_codebook(path)) == h1
        bumped = Codebook(cb.centroids + 1e-12, cb.seed, cb.provider_id)
        assert codebook_hash(bumped) != h1
