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


def mas_assignment(grid: np.ndarray) -> np.ndarray:
    """:func:`mas_assignments` of one grid."""
    return mas_assignments([grid])[0]


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


def nearest_centroids(points: np.ndarray, centroids: np.ndarray):
    """Assign each point to its nearest centroid (squared Euclidean).

    Returns:
        (ids int64 [n], squared_distances float64 [n]); ties resolve to the
        lowest centroid index.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    if points.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"dimension mismatch: points D={points.shape[1]}, "
            f"centroids D={centroids.shape[1]}"
        )
    # One GEMM per block ranks centroids by |c|^2 - 2 x.c, which differs
    # from |x - c|^2 by the row constant |x|^2 up to rounding. Every
    # centroid within the rounding bound of the row minimum is re-scored
    # with the exact expression sum((x - c)^2), so ids and distances are
    # those of the direct [n, k, d] computation bit for bit.
    n, d = points.shape
    k = centroids.shape[0]
    out = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    c_sq_max = c_sq.max()
    minus_2ct = -2.0 * centroids.T
    # The ranking plus |x|^2, and the exact expression, are each within
    # (d + 2) eps (|x|^2 + |c|^2) of the true distance, up to second-order
    # terms; a window of twice their sum keeps every exact minimum and tie.
    # ``tiny`` covers underflow, where relative bounds do not hold. A NaN or
    # infinite bound makes the whole row a candidate, as does a NaN score.
    rel = 4 * (d + 4) * np.finfo(np.float64).eps
    tiny = np.finfo(np.float64).tiny
    chunk = max(1, _NEAREST_BLOCK // max(k, d))
    pairs = max(1, _NEAREST_BLOCK // max(1, d))
    for start in range(0, n, chunk):
        block = points[start : start + chunk]
        x_sq = np.einsum("ij,ij->i", block, block)
        score = block @ minus_2ct
        score += c_sq
        bound = score.min(axis=1) + (rel * (x_sq + c_sq_max) + tiny)
        rows, cols = np.divmod(np.flatnonzero(~(score > bound[:, None])), k)
        exact = score  # same buffer: candidates' exact distances, +inf elsewhere
        exact.fill(np.inf)
        for s in range(0, len(rows), pairs):
            r, c = rows[s : s + pairs], cols[s : s + pairs]
            exact[r, c] = np.square(block[r] - centroids[c]).sum(axis=1)
        ids = np.argmin(exact, axis=1)
        out[start : start + chunk] = ids
        dist[start : start + chunk] = exact[np.arange(len(block)), ids]
    return out, dist
