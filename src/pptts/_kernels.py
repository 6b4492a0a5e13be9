"""Hot numeric kernels in NumPy.

Monotonic alignment search, Levenshtein distance and nearest-centroid
assignment. Each is checked against a brute-force oracle in
``tests/test_kernels.py``; ``benchmarks/bench_kernels.py`` times them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def mas_assignments(grids: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Best monotonic complete alignment of each log-likelihood grid.

    Viterbi-style dynamic programming over each [tokens x frames] grid:
    Q[j, t] = grid[j, t] + max(Q[j, t-1], Q[j-1, t-1]), ties preferring to
    stay on the current token and token 0 never moving, then a backtrack of
    the best complete path from (0, 0) to (n_tokens-1, n_frames-1).

    The grids run through one loop over time on a ``[frames, grids,
    tokens]`` stack padded with ``-inf``. A padded cell lies below or right
    of every real cell of its grid, and Q only reads the cell above-left
    and the cell left, so padding never reaches a real cell: each path is
    the one the grid gives alone.

    Args:
        grids: [n_tokens, n_frames] float arrays, 1 <= n_tokens <= n_frames.

    Returns:
        One int64 array of length n_frames per grid, the token index per
        frame.
    """
    grids = [np.asarray(g, dtype=np.float64) for g in grids]
    for i, g in enumerate(grids):
        if g.ndim != 2:
            raise ValueError(f"grid {i}: expected [n_tokens, n_frames], got shape {g.shape}")
        n, t_len = g.shape
        if n == 0:
            raise ValueError(f"grid {i}: empty grid")
        if n > t_len:
            raise ValueError(
                f"grid {i}: alignment needs n_tokens <= n_frames, got {n} > {t_len}"
            )
    if not grids:
        return []
    n_max = max(g.shape[0] for g in grids)
    t_max = max(g.shape[1] for g in grids)
    batch = len(grids)
    stacked = np.full((t_max, batch, n_max), -np.inf)
    for b, g in enumerate(grids):
        stacked[: g.shape[1], b, : g.shape[0]] = g.T
    # stay[t, b, j]: the best path into (j, t) comes from (j, t-1).
    stay = np.empty((t_max, batch, n_max), dtype=bool)
    stay[:, :, 0] = True
    prev = np.full((batch, n_max), -np.inf)
    prev[:, 0] = stacked[0, :, 0]
    cur = np.empty_like(prev)
    for t in range(1, t_max):
        here = stay[t]
        np.greater_equal(prev[:, 1:], prev[:, :-1], out=here[:, 1:])
        cur[:, 1:] = prev[:, :-1]
        np.putmask(cur, here, prev)
        cur += stacked[t]
        prev, cur = cur, prev
    out = []
    for b, g in enumerate(grids):
        n, t_len = g.shape
        path = stay[:, b, :]
        assignment = np.empty(t_len, dtype=np.int64)
        j = assignment[-1] = n - 1
        for t in range(t_len - 1, 0, -1):
            if not path[t, j]:
                j -= 1
            assignment[t - 1] = j
        out.append(assignment)
    return out


def levenshtein(a: np.ndarray, b: np.ndarray) -> int:
    """Edit distance (insert/delete/substitute, unit costs)."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    if len(a) == 0:
        return len(b)
    if len(b) == 0:
        return len(a)
    lb = len(b)
    steps = np.arange(lb + 1, dtype=np.int64)
    prev = steps
    for i in range(1, len(a) + 1):
        cost = (a[i - 1] != b).astype(np.int64)
        cand = np.empty(lb + 1, dtype=np.int64)
        cand[0] = i
        cand[1:] = np.minimum(prev[1:] + 1, prev[:-1] + cost)
        # Insertions carry left-to-right: cur[j] = min_{i<=j}(cand[i] + j - i),
        # a running minimum of cand[i] - i shifted back by +j.
        prev = np.minimum.accumulate(cand - steps) + steps
    return int(prev[lb])


_NEAREST_BLOCK = 2**16  # elements per temporary in nearest_centroids


def rounding_margin(d: int) -> float:
    """Relative rounding margin of squared distances in ``d`` dimensions.

    ``|c|^2 - 2 x.c + |x|^2`` from one GEMM and the exact expression
    ``sum((x - c)^2)`` are each within ``(d + 2) eps (|x|^2 + |c|^2)`` of
    the true squared distance, up to second-order terms. This margin,
    ``4 (d + 4) eps``, is more than twice their sum plus the few roundings
    of applying it. Relative bounds fail under underflow, so every use adds
    the smallest normal number ``tiny``, which exceeds the ``d`` half
    subnormal spacings that underflow can lose.
    """
    return 4 * (d + 4) * np.finfo(np.float64).eps


def _scored_blocks(points: np.ndarray, centroids: np.ndarray):
    """Yield ``(start, block, x_sq, score, window)`` per block of rows.

    ``score[i, j]`` ranks centroid j for row i by ``|c_j|^2 - 2 x_i.c_j``,
    which differs from the squared distance by the row constant
    ``|x_i|^2``; ``window[i]`` is the rounding bound of the ranking plus
    ``|x_i|^2``, doubled (:func:`rounding_margin`). A NaN or infinite
    window makes every comparison with it fail.
    """
    n, d = points.shape
    k = centroids.shape[0]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    c_sq_max = c_sq.max()
    minus_2ct = -2.0 * centroids.T
    rel = rounding_margin(d)
    tiny = np.finfo(np.float64).tiny
    chunk = max(1, _NEAREST_BLOCK // max(k, d))
    for start in range(0, n, chunk):
        block = points[start : start + chunk]
        x_sq = np.einsum("ij,ij->i", block, block)
        score = block @ minus_2ct
        score += c_sq
        yield start, block, x_sq, score, rel * (x_sq + c_sq_max) + tiny


def _assign_block(block, score, window, centroids):
    """(ids, squared distances, runner-up scores) of one block of
    :func:`_scored_blocks`.

    Every centroid within the rounding window of a row's best score is
    re-scored with the exact expression ``sum((x - c)^2)``. Most rows have
    one such centroid: the fast path re-scores only that GEMM winner, in one
    vectorised pass over the block. Rows with another centroid inside the
    window, or with a NaN score or window, re-score every candidate. The
    runner-up is the best score of a centroid other than the row's id.
    """
    k, d = centroids.shape
    rows = np.arange(len(block))
    ids = np.argmin(score, axis=1)
    best = score[rows, ids]
    bound = best + window
    # The runner-up decides whether the winner is alone in its window.
    # (argmin and a gather take a third of the time of min(axis=1).)
    score[rows, ids] = np.inf
    runner_up = score[rows, np.argmin(score, axis=1)]
    crowded = np.flatnonzero(~(runner_up > bound))
    dist = np.square(block - centroids[ids]).sum(axis=1)
    if crowded.size:
        crowd_rows = np.arange(len(crowded))
        rivals = score[crowded]
        rivals[crowd_rows, ids[crowded]] = best[crowded]
        inside = ~(rivals > bound[crowded, None])
        cand_rows, cand_cols = np.divmod(np.flatnonzero(inside), k)
        exact = np.full(inside.shape, np.inf)
        pairs = max(1, _NEAREST_BLOCK // max(1, d))
        for s in range(0, len(cand_rows), pairs):
            r, c = cand_rows[s : s + pairs], cand_cols[s : s + pairs]
            exact[r, c] = np.square(block[crowded[r]] - centroids[c]).sum(axis=1)
        crowd_ids = np.argmin(exact, axis=1)
        ids[crowded] = crowd_ids
        dist[crowded] = exact[crowd_rows, crowd_ids]
        rivals[crowd_rows, crowd_ids] = np.inf
        runner_up[crowded] = rivals[crowd_rows, np.argmin(rivals, axis=1)]
    return ids, dist, runner_up


def nearest_centroids(points: np.ndarray, centroids: np.ndarray):
    """Assign each point to its nearest centroid (squared Euclidean), and
    bound its distance (not squared) to every centroid but that one.

    One GEMM per block ranks the centroids (:func:`_scored_blocks`), and
    near-ties are re-scored exactly (:func:`_assign_block`), so ids and
    distances are those of the direct [n, k, d] computation bit for bit.

    The bound comes from the same scores: the runner-up score plus
    ``|x|^2``, less the window, is at most the true squared distance to
    each other centroid, and its square root, floored at 0, is the bound.
    It may exceed a valid bound by the half ulp of that square root, which
    :func:`rounding_margin` covers where the bound is used. It is 0 or NaN
    where the point or a score is not finite, and +inf when there is no
    other centroid.

    Returns:
        (ids int64 [n], squared_distances float64 [n], other_bound float64
        [n]); ties resolve to the lowest centroid index.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    if points.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"dimension mismatch: points D={points.shape[1]}, "
            f"centroids D={centroids.shape[1]}"
        )
    n = len(points)
    out = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    other = np.empty(n, dtype=np.float64)
    for start, block, x_sq, score, window in _scored_blocks(points, centroids):
        stop = start + len(block)
        out[start:stop], dist[start:stop], runner_up = _assign_block(
            block, score, window, centroids
        )
        other[start:stop] = runner_up + x_sq - window
    np.maximum(other, 0.0, out=other)
    return out, dist, np.sqrt(other, out=other)
