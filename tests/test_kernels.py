"""NumPy kernels against brute-force oracles."""

import importlib.util
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pptts import _kernels


def brute_force_alignment(grid):
    """Exhaustive optimum over every complete monotonic alignment."""
    n, t = grid.shape
    best_score, best_assign = -np.inf, None
    for cuts in itertools.combinations(range(1, t), n - 1):
        bounds = (0,) + cuts + (t,)
        assign = np.empty(t, dtype=np.int64)
        for j in range(n):
            assign[bounds[j] : bounds[j + 1]] = j
        score = grid[assign, np.arange(t)].sum()
        if score > best_score:
            best_score, best_assign = score, assign
    return best_score, best_assign


def cellwise_mas(grid):
    """The alignment DP written cell by cell in plain Python floats: Q[j, t]
    takes Q[j, t-1] when it is >= Q[j-1, t-1] (so a NaN comparison moves),
    token 0 never moves, and the backtrack starts at the last cell."""
    n, t_len = grid.shape
    q = [[-np.inf] * t_len for _ in range(n)]
    stay = [[True] * t_len for _ in range(n)]
    q[0][0] = float(grid[0, 0])
    for t in range(1, t_len):
        for j in range(n):
            if j == 0 or q[j][t - 1] >= q[j - 1][t - 1]:
                best = q[j][t - 1]
            else:
                best, stay[j][t] = q[j - 1][t - 1], False
            q[j][t] = float(grid[j, t]) + best
    out = [0] * t_len
    j = out[-1] = n - 1
    for t in range(t_len - 1, 0, -1):
        if not stay[j][t]:
            j -= 1
        out[t - 1] = j
    return np.array(out, dtype=np.int64)


def dp_matrix_levenshtein(a, b):
    """Classic full-matrix edit distance, kept deliberately naive."""
    la, lb = len(a), len(b)
    d = np.zeros((la + 1, lb + 1), dtype=np.int64)
    d[:, 0] = np.arange(la + 1)
    d[0, :] = np.arange(lb + 1)
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i, j] = min(d[i - 1, j] + 1, d[i, j - 1] + 1, d[i - 1, j - 1] + cost)
    return int(d[la, lb])


def broadcast_nearest(points, centroids):
    """The direct [n, k, d] form: the exact arithmetic the kernels must reproduce."""
    d2 = np.square(points[:, None, :] - centroids[None, :, :]).sum(axis=2)
    ids = np.argmin(d2, axis=1)
    return ids, d2[np.arange(len(points)), ids]


def masked_score_bound(points, centroids, ids):
    """Each point's best GEMM score over every centroid but ``ids``, plus
    ``|x|^2`` less the window, floored at 0 and square-rooted: the bound
    re-derived from a fresh scoring of the points."""
    bound = np.empty(len(points))
    for start, block, x_sq, score, window in _kernels._scored_blocks(points, centroids):
        rows = np.arange(len(block))
        score[rows, ids[start : start + len(block)]] = np.inf
        low = score[rows, np.argmin(score, axis=1)] + x_sq - window
        bound[start : start + len(block)] = np.sqrt(np.maximum(low, 0.0))
    return bound


def assert_same_as_broadcast(points, centroids):
    ids, d2, other = _kernels.nearest_centroids(points, centroids)
    want_ids, want_d2 = broadcast_nearest(points, centroids)
    assert np.array_equal(ids, want_ids)
    assert d2.tobytes() == want_d2.tobytes()
    want_other = masked_score_bound(
        np.asarray(points, np.float64), np.asarray(centroids, np.float64), want_ids
    )
    assert other.tobytes() == want_other.tobytes()


def assert_valid_alignment(assign, n, t):
    assert assign.shape == (t,)
    assert assign[0] == 0
    assert assign[-1] == n - 1
    steps = np.diff(assign)
    assert np.all((steps == 0) | (steps == 1))
    assert set(assign.tolist()) == set(range(n))


class TestMas:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for n in range(1, 5):
            for t in range(n, 9):
                for _ in range(20):
                    grid = rng.normal(size=(n, t))
                    assign = _kernels.mas_assignments([grid])[0]
                    assert_valid_alignment(assign, n, t)
                    got = grid[assign, np.arange(t)].sum()
                    want, _ = brute_force_alignment(grid)
                    assert abs(got - want) < 1e-9

    def test_single_token(self):
        grid = np.zeros((1, 5))
        assert _kernels.mas_assignments([grid])[0].tolist() == [0] * 5

    def test_square_grid_is_diagonal(self):
        grid = np.random.default_rng(1).normal(size=(3, 3))
        assert _kernels.mas_assignments([grid])[0].tolist() == [0, 1, 2]

    def test_tie_prefers_staying(self):
        # All-zero grid: every alignment scores 0; the tie rule keeps the
        # path on its current token, so advances happen as early as possible.
        assert _kernels.mas_assignments([np.zeros((2, 3))])[0].tolist() == [0, 1, 1]
        assert _kernels.mas_assignments([np.zeros((3, 5))])[0].tolist() == [0, 1, 2, 2, 2]

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            grid = rng.normal(size=(3, 7))
            a = _kernels.mas_assignments([grid])[0]
            b = _kernels.mas_assignments([grid + 17.25])[0]
            assert np.array_equal(a, b)

    def test_rejects_more_tokens_than_frames(self):
        with pytest.raises(ValueError):
            _kernels.mas_assignments([np.zeros((4, 3))])[0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            _kernels.mas_assignments([np.zeros((0, 3))])[0]


@st.composite
def mas_batches(draw):
    """1-6 ragged grids: Gaussian, tie-heavy integer, or Gaussian with -inf
    and NaN cells; n == t and 1-frame grids are drawn often."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 8))
        t = draw(st.one_of(st.just(n), st.integers(n, 40)))
        kind = draw(st.sampled_from(["normal", "ties", "non-finite"]))
        if kind == "ties":
            grid = rng.integers(-2, 2, size=(n, t)).astype(np.float64)
        else:
            grid = rng.normal(size=(n, t))
        if kind == "non-finite":
            cells = rng.random((n, t))
            grid[cells < 0.15] = -np.inf
            grid[cells > 0.95] = np.nan
        grids.append(grid)
    return grids


class TestMasBatch:
    """One search over a padded batch must give each grid's own path."""

    @settings(max_examples=300, deadline=None)
    @given(mas_batches())
    def test_matches_single_grids(self, grids):
        batch = _kernels.mas_assignments(grids)
        assert len(batch) == len(grids)
        for grid, got in zip(grids, batch):
            assert got.dtype == np.int64
            assert np.array_equal(got, _kernels.mas_assignments([grid])[0])
            assert np.array_equal(got, cellwise_mas(grid))

    def test_finite_paths_are_valid(self):
        rng = np.random.default_rng(20)
        shapes = [(1, 1), (3, 3), (1, 7), (8, 40), (5, 12)]
        grids = [rng.normal(size=shape) for shape in shapes]
        for (n, t), assign in zip(shapes, _kernels.mas_assignments(grids)):
            assert_valid_alignment(assign, n, t)

    def test_nan_grid_stays_in_range(self):
        grid = np.full((3, 6), np.nan)
        assign = _kernels.mas_assignments([grid])[0]
        assert assign.min() >= 0 and assign.max() <= 2

    def test_empty_batch(self):
        assert _kernels.mas_assignments([]) == []

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.zeros((4, 3)), r"grid 2: .*4 > 3"),
            (np.zeros((0, 3)), r"grid 2: empty grid"),
            (np.zeros(3), r"grid 2: expected \[n_tokens, n_frames\]"),
        ],
    )
    def test_shape_error_names_the_grid(self, bad, message):
        grids = [np.zeros((2, 5)), np.zeros((1, 1)), bad, np.zeros((3, 4))]
        with pytest.raises(ValueError, match=message):
            _kernels.mas_assignments(grids)


class TestLevenshtein:
    def test_known_cases(self):
        def ids(s):
            return np.array([ord(c) for c in s], dtype=np.int64)

        assert _kernels.levenshtein(ids("kitten"), ids("sitting")) == 3
        assert _kernels.levenshtein(ids("abc"), ids("abc")) == 0
        assert _kernels.levenshtein(ids(""), ids("abc")) == 3
        assert _kernels.levenshtein(ids("abcd"), ids("")) == 4
        assert _kernels.levenshtein(ids("flaw"), ids("lawn")) == 2

    def test_matches_dp_matrix(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.integers(0, 5, size=rng.integers(0, 12))
            b = rng.integers(0, 5, size=rng.integers(0, 12))
            assert _kernels.levenshtein(a, b) == dp_matrix_levenshtein(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.integers(0, 4, size=rng.integers(1, 10))
            b = rng.integers(0, 4, size=rng.integers(1, 10))
            assert _kernels.levenshtein(a, b) == _kernels.levenshtein(b, a)


class TestNearestCentroids:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(200, 7))
        centroids = rng.normal(size=(11, 7))
        ids, d2, _ = _kernels.nearest_centroids(points, centroids)
        want_d2 = np.square(points[:, None, :] - centroids[None, :, :]).sum(axis=2)
        assert np.allclose(d2, want_d2.min(axis=1), atol=1e-9)
        # Assignments must agree wherever the argmin gap is unambiguous.
        sorted_d = np.sort(want_d2, axis=1)
        clear = sorted_d[:, 1] - sorted_d[:, 0] > 1e-9
        assert np.array_equal(ids[clear], np.argmin(want_d2, axis=1)[clear])

    def test_tie_goes_to_lowest_index(self):
        points = np.array([[0.0, 0.0]])
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ids, d2, _ = _kernels.nearest_centroids(points, centroids)
        assert ids[0] == 0
        assert d2[0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _kernels.nearest_centroids(np.zeros((3, 2)), np.zeros((4, 3)))


@st.composite
def nearest_cases(draw):
    """Points and centroids built to produce exact and near ties."""
    d = draw(st.integers(1, 24))
    k = draw(st.integers(1, 40))
    n = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1.0, -3e3, 1e6]))
    spread = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    centroids = offset + spread * rng.standard_normal((k, d))
    if draw(st.booleans()):  # duplicate centroids
        centroids = centroids[rng.integers(0, max(1, k // 2), size=k)]
    points = offset + spread * rng.standard_normal((n, d))
    on_centroid = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    points[on_centroid] = centroids[rng.integers(0, k, size=on_centroid.sum())]
    if draw(st.booleans()):  # coarse grid: many exactly equal distances
        step = spread / 2
        points = np.round(points / step) * step
        centroids = np.round(centroids / step) * step
    return points, centroids


class TestNearestCentroidsBitIdentity:
    """The kernel must return the broadcast form's ids and distance bytes."""

    @settings(max_examples=300, deadline=None)
    @given(nearest_cases())
    def test_matches_broadcast(self, case):
        assert_same_as_broadcast(*case)

    @pytest.mark.parametrize("d", [1, 3])
    def test_single_centroid(self, d):
        rng = np.random.default_rng(10)
        assert_same_as_broadcast(rng.normal(size=(50, d)), rng.normal(size=(1, d)))

    def test_large_offset_small_spread(self):
        rng = np.random.default_rng(11)
        centroids = 1e6 + 1e-4 * rng.standard_normal((16, 4))
        points = 1e6 + 1e-4 * rng.standard_normal((500, 4))
        assert_same_as_broadcast(points, centroids)

    def test_spans_several_blocks(self, monkeypatch):
        # Ten copies of one centroid give each nearby point ten candidates,
        # more per block than one re-scoring slice holds.
        monkeypatch.setattr(_kernels, "_NEAREST_BLOCK", 64)
        rng = np.random.default_rng(12)
        copies = np.repeat(rng.normal(size=(1, 3)), 10, axis=0)
        centroids = np.vstack([copies, rng.normal(size=(5, 3))])
        points = np.vstack([rng.normal(size=(97, 3)), centroids, centroids[0] + 1e-9])
        assert_same_as_broadcast(points, centroids)

    def test_spans_several_blocks_at_default_size(self):
        rng = np.random.default_rng(13)
        centroids = rng.normal(size=(64, 4))
        n = 3 * _kernels._NEAREST_BLOCK // 64 + 5
        assert_same_as_broadcast(rng.normal(size=(n, 4)), centroids)

    def test_non_finite_inputs(self):
        points = np.array([[0.0, 1.0], [np.nan, 0.0], [np.inf, 0.0], [1e200, 0.0]])
        centroids = np.array([[0.0, 0.0], [1.0, 1.0], [np.inf, 0.0]])
        with np.errstate(invalid="ignore", over="ignore"):
            assert_same_as_broadcast(points, centroids)


class TestOtherCentroidBound:
    """The bound ``nearest_centroids`` returns is at most the distance to
    every centroid but a point's own."""

    @settings(max_examples=60, deadline=None)
    @given(nearest_cases())
    def test_below_every_other_distance(self, case):
        points, centroids = case
        points = points[:8]
        ids, _, bound = _kernels.nearest_centroids(points, centroids)
        # The square root may round up by half an ulp (see the docstring).
        slack = 1 + Fraction(2) ** -51
        for x, own, b in zip(points, ids, bound):
            for j, c in enumerate(centroids):
                if j != own:
                    exact = sum((Fraction(u) - Fraction(v)) ** 2 for u, v in zip(x, c))
                    assert Fraction(float(b)) ** 2 <= exact * slack

    def test_single_centroid_is_unbounded(self):
        points = np.random.default_rng(14).normal(size=(5, 3))
        _, _, bound = _kernels.nearest_centroids(points, points[:1])
        assert np.all(bound == np.inf)


def test_bench_kernels_script_runs():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_kernels.py")],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == [
        "mas_assignments", "mas_assignments", "mas_assignments", "levenshtein",
        "nearest_centroids", "quantize", "kmeans++", "train_codebook", "train_codebook", "post", "relu", "log-mel",
        "synthetic",
    ]
    assert all(float(row[-1]) > 0 for row in rows)


def test_graph_census_script_runs():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "graph_census.py")],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    rows = {row[0]: [int(n) for n in row[1:]] for row in map(str.split, proc.stdout.splitlines()[2:])}
    # Two upsampling stages (hop 64 = 8 * 8) per utterance, batch 4; the
    # frozen decoder never runs in a fine-tune step.
    assert rows["conv1d_upsampled"] == [8, 0]
    # Two flow blocks per utterance; the coupling chains stay fused.
    assert rows["coupling_net"] == [8, 8] and rows["kld_prior"] == [4, 4]
    assert not {"pad_cols", "frame_cols", "concat"} & set(rows)
    assert rows["total"] == [sum(col) for col in zip(*(v for k, v in rows.items() if k != "total"))]


def _ab_steps(root: Path):
    spec = importlib.util.spec_from_file_location("ab_steps", root / "benchmarks" / "ab_steps.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("stage", ["finetune", "pretrain"])
def test_ab_steps_script_runs_a_a(stage):
    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "ab_steps.py"), str(src), str(src),
         "--stage", stage, "--steps", "3", "--warmup", "1", "--utts", "8", "--k", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = dict(line.split() for line in proc.stdout.splitlines()[1:])
    assert rows["steps"] == "3"
    assert float(rows["a_ms_median"]) > 0 and float(rows["b_ms_median"]) > 0
    assert float(rows["ratio_q1"]) <= float(rows["ratio_b_over_a_median"]) <= float(rows["ratio_q3"])


def test_ab_steps_refuses_different_losses(tmp_path):
    root = Path(__file__).resolve().parents[1]
    ab = _ab_steps(root)
    for name in ("pptts_a", "pptts_b"):
        ab.load_tree(root / "src", name)
    ab.make_corpus("pptts_a", "finetune", tmp_path, seed=1, utts=0)
    a, b = (ab.Trainer(name, "finetune", tmp_path, seed=1, k=0) for name in ("pptts_a", "pptts_b"))
    b.run.optimizer.lr *= 2
    with pytest.raises(ValueError, match="step 2: losses differ"):
        ab.compare(a, b, steps=2, warmup=0)
