"""Pseudo-phoneme discovery: k-means codebook, quantization, run merging.

Frames are clustered with seeded k-means++ plus Lloyd passes in which
distance bounds spare most frames a rescan, with the result of rescanning
every frame every pass bit for bit; each frame's cluster index is its unit,
and maximal runs of equal indices merge into one token carrying the run
length as its duration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import _kernels
from .config import AudioConfig, ConfigError, _build_section
from .features import BuiltinMelProvider, FeatureProvider, FrameFeatures, PrecomputedProvider

# Inertia adds the sums of consecutive blocks of this many frames, in order.
# The fixed summation order keeps reported inertia reproducible bit for bit.
_INERTIA_BLOCK = 8192
_CODEBOOK_MAGIC = "PPCB2"


@dataclass
class Codebook:
    """K centroids over frame-feature space.

    A codebook fitted on builtin-mel features also holds the front end
    that made them: the ``AudioConfig`` and the per-bin float32 mean and
    std that standardized each log-mel. Those three are set together or
    not at all.
    """

    centroids: np.ndarray  # [k, dim] float64
    seed: int
    provider_id: str
    inertia: float | None = None
    audio: AudioConfig | None = None
    mean: np.ndarray | None = None  # [dim] float32
    std: np.ndarray | None = None  # [dim] float32, all > 0

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def _collect_frames(feature_stream: Iterable[FrameFeatures]) -> tuple[np.ndarray, str]:
    """The stream's frames as one float64 array, and its provider id.
    Every value must be finite: the first frame that is not is named."""
    blocks = []
    provider_id = None
    dim = None
    total = 0
    for item, feats in enumerate(feature_stream):
        if dim is None:
            dim = feats.values.shape[1]
            provider_id = feats.provider_id
        elif feats.values.shape[1] != dim:
            raise ValueError(
                f"inconsistent feature dims: {feats.values.shape[1]} vs {dim}"
            )
        elif feats.provider_id != provider_id:
            raise ValueError(
                f"mixed feature providers: {feats.provider_id!r} vs {provider_id!r}"
            )
        values = np.asarray(feats.values, dtype=np.float64)
        if not np.isfinite(values).all():
            row = int(np.argmin(np.isfinite(values).all(axis=1)))
            raise ValueError(
                f"feature frame {total + row} (frame {row} of feature item {item}) "
                "holds a value that is not finite"
            )
        blocks.append(values)
        total += len(values)
    if not blocks:
        raise ValueError("empty feature stream")
    return np.concatenate(blocks, axis=0), provider_id


# Elements per block of the exact distance updates of the seeding and the
# Lloyd passes. Reusing one cache-sized buffer avoids the page faults of
# fresh [n, d] temporaries, which cost more than the arithmetic.
_SEED_BLOCK = 2**16


def _exact_rows(frames, idx, centers, diff, dist) -> np.ndarray:
    """``np.square(frames[idx] - centers).sum(axis=1)`` for at most
    ``len(diff)`` rows, in the buffers ``diff`` and ``dist``: each row's
    distance is ``sum(axis=1)`` over a contiguous row of ``d`` squares, the
    reduction of the kernel's exact expression."""
    m = len(idx)
    np.take(frames, idx, axis=0, out=diff[:m], mode="clip")
    np.subtract(diff[:m], centers, out=diff[:m])
    np.square(diff[:m], out=diff[:m])
    return diff[:m].sum(axis=1, out=dist[:m])


def _kmeans_pp_init(frames: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next centroid is a frame drawn with
    probability proportional to its squared distance ``d2`` to the nearest
    centroid chosen so far.

    ``d2`` is the running minimum of exact expressions
    ``np.square(x - c).sum(axis=1)``, but a frame gets the exact expression
    for a new centroid ``c`` only when a screen cannot rule out that it
    lowers ``d2``. The screen is one GEMV: ``|x|^2 + |c|^2 - 2 x.c`` less
    the window ``rel (|x|^2 + |c|^2) + tiny``, ``rel =
    _kernels.rounding_margin(d)``. Each of the estimate and the exact
    expression is within ``(d + 2) eps (|x|^2 + |c|^2)`` of the true
    squared distance (the exact one's error is relative to that distance,
    at most ``2 (|x|^2 + |c|^2)``), plus ``d`` half subnormal spacings lost
    to underflow, which ``tiny`` exceeds. ``rel`` is more than twice the
    sum of the two relative errors plus the few roundings of applying it,
    so a screened value above ``d2`` proves the exact expression is above
    ``d2`` too and the minimum keeps ``d2``. A NaN or infinite screened value proves
    nothing (an overflowed estimate escapes its window), so those frames
    get the exact expression. ``d2``, every draw's probabilities and every
    draw are those of updating every frame exactly, bit for bit.
    """
    n, dim = frames.shape
    centroids = np.empty((k, dim), dtype=np.float64)
    rel = _kernels.rounding_margin(dim)
    # |x|^2 less its share of the window; |c|^2 less its share is added per centroid.
    base = np.einsum("ij,ij->i", frames, frames)
    base *= 1 - rel
    base -= np.finfo(np.float64).tiny
    rows = max(1, _SEED_BLOCK // dim)
    diff = np.empty((min(rows, n), dim))
    dist = np.empty(len(diff))
    d2 = np.full(n, np.inf)  # squared distance to the nearest chosen centroid so far
    low = np.empty(n)  # screened squared distance to the newest centroid
    p = np.empty(n)

    def choose(i: int, choice: int) -> None:
        c = centroids[i] = frames[choice]
        np.dot(frames, -2.0 * c, out=low)
        np.add(low, base, out=low)
        np.add(low, (1 - rel) * float(c @ c), out=low)
        near = np.flatnonzero(~((low > d2) & (low < np.inf)))
        for start in range(0, len(near), rows):
            idx = near[start : start + rows]
            d2[idx] = np.minimum(d2[idx], _exact_rows(frames, idx, c, diff, dist))

    choose(0, int(rng.integers(n)))
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining mass is on chosen points; fall back to uniform.
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=np.divide(d2, total, out=p)))
        choose(i, choice)
    return centroids


def _has_distinct(frames: np.ndarray, k: int) -> bool:
    """Whether ``frames`` holds at least ``k`` distinct rows.

    Distinct rows of a prefix are distinct rows of the whole, so a prefix
    with ``k`` of them settles it without sorting every frame.
    """
    head = frames[: 8 * k]
    if len(np.unique(head, axis=0)) >= k:
        return True
    return len(head) < len(frames) and len(np.unique(frames, axis=0)) >= k


def _separated(centroids: np.ndarray, ids: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Which frames Hamerly's separation test keeps on their centroid:
    those whose exact squared distance ``d2`` to centroid ``ids`` is
    provably below a quarter of the squared distance from that centroid to
    the nearest other one.

    ``_kernels.nearest_centroids(centroids, centroids)`` gives each
    centroid ``a`` a bound ``s`` on its distance to every centroid but its
    own id; when that id is not ``a`` (a duplicate, or a distance that
    underflows to 0), ``a`` itself is among them and ``s`` is 0. So ``s
    <= S (1 + u)``, ``S`` the true distance from ``a`` to the nearest other
    centroid, the factor being the square root's half ulp. With ``u = eps /
    2``, ``g = (d + 2) u`` and ``rel = rounding_margin(d) = 8 (d + 4) u``:

    - ``h = fl(s^2) (1 - rel) / 4 - tiny``, computed, is at most ``S^2 (1 -
      rel + 6u) / 4 - tiny``. Where the product before ``- tiny`` is below
      ``tiny``, it rounds to no more than ``tiny``, so ``h`` is at most 0
      and keeps no frame.
    - A frame keeps ``a`` where ``d2 < h``. Its true squared distance ``D``
      to ``a`` is at most ``(d2 + d 2^-1075) / (1 - g)`` (the rounding of
      the exact expression, as in :func:`_reassign`; ``tiny`` exceeds ``d
      2^-1075``), so ``t = sqrt(D)`` is ``theta S / 2`` with ``theta <= 1 -
      (rel - 6u - g) / 2 < 1``.
    - By the triangle inequality the true distance to any other centroid
      is at least ``S - t > t``, and its exact expression at least ``(S -
      t)^2 (1 - g) - d 2^-1075``. That exceeds ``d2 <= t^2 (1 + g) + d
      2^-1075`` by at least ``S^2 (1 - theta - g) - 2 d 2^-1075``, which is
      positive: ``1 - theta - g >= 2.5 (d + 4) u`` and ``S^2 > 4 tiny /
      (1 + 6u)``.

    Every other centroid's exact expression is then strictly above ``d2``,
    so the kernel would return the same id (a tie is never kept, since the
    kernel gives ties to the lowest index) and the same distance. A NaN
    bound or distance, or an infinite distance, keeps no frame; with one
    centroid ``s`` is +inf and every finite distance is kept.
    """
    rel = _kernels.rounding_margin(centroids.shape[1])
    _, _, sep = _kernels.nearest_centroids(centroids, centroids)
    with np.errstate(over="ignore"):  # a huge separation squares to +inf, still a bound
        half = np.square(sep) * (0.25 * (1 - rel)) - np.finfo(np.float64).tiny
    return d2 < half[ids]


def _reassign(frames, centroids, moved, shift, ids, d2, lower) -> np.ndarray:
    """Update ``ids``, ``d2`` and ``lower`` in place for ``centroids``, of
    which those flagged in ``moved`` moved, the farthest by ``shift``, and
    return which clusters gained or lost a frame.

    ``d2`` holds each frame's exact squared distance to its own centroid,
    as :func:`_kernels.nearest_centroids` computes it; frames whose centroid
    moved get it recomputed by the same expression. A frame keeps its id
    without a rescan when either of Hamerly's tests proves its centroid the
    unique exact minimum: the separation test of :func:`_separated`, or the
    bound test below. ``lower`` holds a lower bound ``L`` on each frame's
    distance (not squared) to every other centroid, and the triangle
    inequality lowers it by a ``step`` of at least the largest true shift.
    With ``u = eps / 2`` and ``rel = rounding_margin(d) = 8 (d + 4) u``:

    - ``d`` squares of rounded differences, summed, round a true squared
      distance ``D`` down to no less than ``D (1 - (d + 2) u) - d 2^-1075``;
      the second term is what squares lose to underflow.
    - ``shift`` is the square root of such a sum, so the true shift is at
      most ``(shift + sqrt(d 2^-1074)) (1 + rel)``, which is ``step``. A
      shift below ``sqrt(d) 2^-537.5`` can read 0; the absolute term
      covers it.
    - ``nextafter`` towards -inf puts each rounded ``L - step`` below the
      true difference. The bound from :func:`_kernels.nearest_centroids`
      may overshoot by half an ulp, a factor ``(1 + u)`` that lowering
      keeps, so the true squared distance to another centroid is at least
      ``L^2 (1 - 2u)``, and its exact expression at least
      ``L^2 (1 - (d + 4) u) - d 2^-1075``.
    - ``fl(L^2) (1 - rel) - tiny`` stays below that after its own
      roundings. Where it is above ``d2``, the frame's centroid is the
      unique exact minimum, so the kernel would return the same id and
      distance.

    Every other frame, including those whose bound or distance is not
    finite (both tests are then false), goes back to the kernel, whose one
    scored pass gives its id, distance and a fresh bound.
    """
    dim = frames.shape[1]
    rel = _kernels.rounding_margin(dim)
    step = (shift + np.sqrt(dim * np.finfo(np.float64).smallest_subnormal)) * (1 + rel)
    np.subtract(lower, step, out=lower)
    np.nextafter(lower, -np.inf, out=lower)
    own = np.flatnonzero(moved[ids])
    rows = max(1, _SEED_BLOCK // dim)
    diff, dist = np.empty((min(rows, len(own)), dim)), np.empty(min(rows, len(own)))
    for start in range(0, len(own), rows):
        idx = own[start : start + rows]
        d2[idx] = _exact_rows(frames, idx, centroids[ids[idx]], diff, dist)
    with np.errstate(over="ignore"):  # a huge bound squares to +inf, still a bound
        clear = np.square(np.maximum(lower, 0.0)) * (1 - rel) - np.finfo(np.float64).tiny > d2
    clear |= _separated(centroids, ids, d2)
    rescan = np.flatnonzero(~clear)
    changed = np.zeros(len(centroids), dtype=bool)
    if rescan.size:
        new_ids, d2[rescan], lower[rescan] = _kernels.nearest_centroids(frames[rescan], centroids)
        old_ids = ids[rescan]
        switched = new_ids != old_ids
        changed[old_ids[switched]] = True
        changed[new_ids[switched]] = True
        ids[rescan] = new_ids
    return changed


def train_codebook(
    feature_stream: Iterable[FrameFeatures],
    k: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    on_iteration: Callable[[int, float], None] | None = None,
) -> Codebook:
    """Lloyd's algorithm with seeded k-means++ initialization.

    Stops when the largest centroid shift drops below ``tol`` or after
    ``max_iters`` passes (at least 1). Assignment inertia is asserted
    non-increasing every iteration; empty clusters are reseeded to the
    point currently farthest from its assigned centroid. ``on_iteration``
    receives ``(iteration, inertia)`` after each assignment pass.

    After the first pass, a frame goes back to the kernel only when
    neither of Hamerly's tests can prove that its centroid is still the
    unique nearest (:func:`_reassign`); when no centroid moved, none does.
    Each cluster's frame count and coordinate sums are kept across passes,
    and only those of clusters whose member set changed are recomputed:
    ``np.bincount`` over just those clusters' frames, in frame order, from
    zero, which are the sums of a full recount. A pass in which no frame
    changed cluster sums nothing. Ids, distances, centroids and inertia
    are those of assigning every frame every pass, bit for bit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    frames, provider_id = _collect_frames(feature_stream)
    n = len(frames)
    if n < k:
        raise ValueError(f"need at least k={k} frames, got {n}")
    if not _has_distinct(frames, k):
        raise ValueError(f"fewer than k={k} distinct feature frames")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(frames, k, rng)
    columns = np.ascontiguousarray(frames.T)
    ids, d2, lower = _kernels.nearest_centroids(frames, centroids)
    counts = np.zeros(k, dtype=np.int64)
    sums = np.zeros((k, frames.shape[1]))
    changed = np.ones(k, dtype=bool)  # clusters whose member set changed
    prev_inertia = np.inf
    inertia = np.inf
    for iteration in range(max_iters):
        # bincount adds each cluster's frames in frame order starting from
        # zero, so the sums are exactly those of a sequential accumulation.
        members = np.flatnonzero(changed[ids])
        if members.size:
            member_ids = ids[members]
            counts[changed] = np.bincount(member_ids, minlength=k)[changed]
            sums[changed] = np.stack(
                [np.bincount(member_ids, weights=column[members], minlength=k)[changed]
                 for column in columns],
                axis=1,
            )
        inertia = 0.0
        for start in range(0, n, _INERTIA_BLOCK):
            inertia += float(d2[start : start + _INERTIA_BLOCK].sum())
        worst_idx = int(np.argmax(d2))
        # Lloyd reassignment can only lower the objective (tiny fp slack).
        if inertia > prev_inertia * (1 + 1e-9) + 1e-9:
            raise AssertionError(
                f"k-means inertia increased: {prev_inertia} -> {inertia}"
            )
        prev_inertia = inertia
        if on_iteration is not None:
            on_iteration(iteration, inertia)

        new_centroids = centroids.copy()
        filled = counts > 0
        new_centroids[filled] = sums[filled] / counts[filled, None]
        for empty in np.flatnonzero(~filled):
            new_centroids[empty] = frames[worst_idx]
        shift = float(np.sqrt(np.square(new_centroids - centroids).sum(axis=1)).max())
        moved = np.any(new_centroids != centroids, axis=1)
        centroids = new_centroids
        if shift < tol:
            break
        changed = np.zeros(k, dtype=bool)
        if iteration + 1 < max_iters and moved.any():
            changed = _reassign(frames, centroids, moved, shift, ids, d2, lower)

    return Codebook(centroids=centroids, seed=seed, provider_id=provider_id, inertia=inertia)


def quantize(features: FrameFeatures, codebook: Codebook) -> np.ndarray:
    """Nearest-centroid index per frame (ties go to the lowest index)."""
    values = np.asarray(features.values, dtype=np.float64)
    if values.shape[1] != codebook.dim:
        raise ValueError(
            f"feature dim {values.shape[1]} != codebook dim {codebook.dim}"
        )
    ids, _, _ = _kernels.nearest_centroids(values, codebook.centroids)
    return ids


def merge_runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse maximal runs of equal indices into int64 ``(tokens,
    durations)``: no two adjacent tokens are equal and every duration is
    at least 1."""
    ids = np.asarray(ids, dtype=np.int64)
    starts = np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1))
    return ids[starts], np.diff(starts, append=len(ids))


def expand_runs(runs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Inverse of merge_runs: repeat each token by its duration."""
    tokens, durations = runs
    return np.repeat(tokens, durations)


# ---------------------------------------------------------------------------
# Codebook serialization: a text header line, the ``mean`` and ``std`` rows
# of a codebook that records its front end, then one line per centroid.
# ---------------------------------------------------------------------------

_AUDIO_FIELDS = tuple(f.name for f in dataclasses.fields(AudioConfig))


def _identity(codebook: Codebook, magic: str) -> str:
    return (
        f"{magic} k={codebook.k} dim={codebook.dim} "
        f"seed={codebook.seed} provider={codebook.provider_id}"
    )


def _audio_fields(audio: AudioConfig) -> str:
    return " ".join(f"{name}={json.dumps(getattr(audio, name))}" for name in _AUDIO_FIELDS)


def _row(values: np.ndarray) -> str:
    # repr of a float64 reloads it exactly, and a float32 widens exactly.
    return " ".join(repr(float(v)) for v in values)


def save_codebook(path: str | Path, codebook: Codebook) -> None:
    """Write a ``PPCB2`` file: the header carries the ``AudioConfig``
    fields and ``mean``/``std`` rows follow it when the codebook records
    its front end."""
    front_end = [codebook.audio is not None, codebook.mean is not None, codebook.std is not None]
    if any(front_end) and not all(front_end):
        raise ValueError("a codebook records its audio config, mean and std together")
    header = _identity(codebook, _CODEBOOK_MAGIC)
    if codebook.audio is not None:
        header += (
            f" {_audio_fields(codebook.audio)}\n"
            f"mean {_row(codebook.mean)}\nstd {_row(codebook.std)}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in codebook.centroids:
            fh.write(_row(row) + "\n")


def _parse_header(path: str | Path, tokens: list[str]) -> tuple[int, int, int, dict[str, str]]:
    """(k, dim, seed, all fields) from the ``name=value`` tokens after the magic."""
    fields = {}
    for token in tokens:
        name, sep, value = token.partition("=")
        if not sep:
            raise ValueError(
                f"{path}: malformed codebook header field {token!r}, expected name=value"
            )
        fields[name] = value
    for name in ("k", "dim", "seed", "provider"):
        if name not in fields:
            raise ValueError(f"{path}: codebook header lacks the {name!r} field")
    ints = []
    for name in ("k", "dim", "seed"):
        try:
            ints.append(int(fields[name]))
        except ValueError:
            raise ValueError(
                f"{path}: codebook header field {name}={fields[name]!r} is not an integer"
            ) from None
    k, dim, seed = ints
    if k < 1:
        raise ValueError(f"{path}: codebook header field k={k} must be >= 1")
    return k, dim, seed, fields


def _parse_audio(path: str | Path, fields: dict[str, str]) -> AudioConfig | None:
    """The header's ``AudioConfig``, or None when it records none."""
    if not any(name in fields for name in _AUDIO_FIELDS):
        return None
    values = {}
    for name in _AUDIO_FIELDS:
        if name not in fields:
            raise ValueError(f"{path}: codebook header lacks the {name!r} field")
        try:
            values[name] = json.loads(fields[name])
        except ValueError:
            raise ValueError(
                f"{path}: codebook header field {name}={fields[name]!r} is not a value"
            ) from None
    try:
        return _build_section(AudioConfig, values, "feature")
    except ConfigError as exc:
        raise ConfigError(f"{path}: codebook audio config: {exc}") from None


def _parse_row(
    path: str | Path, number: int, values: list[str], dim: int, dtype=np.float64
) -> np.ndarray:
    """One row of ``dim`` finite ``dtype`` values; ``number`` is its line
    in the file."""
    try:
        row = np.array(values, dtype=np.float64)
    except ValueError:
        raise ValueError(f"{path}: line {number} is not a row of numbers") from None
    if row.size != dim:
        raise ValueError(
            f"{path}: line {number} has {row.size} values, header dim is {dim}"
        )
    if not np.all(np.abs(row) <= np.finfo(dtype).max):
        raise ValueError(
            f"{path}: line {number} holds a value that is not a finite {np.dtype(dtype).name}"
        )
    return row.astype(dtype, copy=False)


def _parse_stats(path: str | Path, number: int, line: str, name: str, dim: int) -> np.ndarray:
    """The float32 ``mean`` or ``std`` row; a std must be positive."""
    label, *values = line.split()
    if label != name:
        raise ValueError(f"{path}: line {number} is not the {name!r} row")
    row = _parse_row(path, number, values, dim, np.float32)
    if name == "std" and not np.all(row > 0):
        raise ValueError(f"{path}: line {number} holds a std <= 0")
    return row


def load_codebook(path: str | Path) -> Codebook:
    """Read a ``PPCB2`` file as :func:`save_codebook` writes it."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if not header or header[0] != _CODEBOOK_MAGIC:
            raise ValueError(f"{path}: not a codebook file")
        k, dim, seed, fields = _parse_header(path, header[1:])
        audio = _parse_audio(path, fields)
        lines = [(number, line) for number, line in enumerate(fh, start=2) if line.strip()]
    mean = std = None
    if audio is not None:
        if len(lines) < 2:
            raise ValueError(f"{path}: codebook lacks its mean and std rows")
        mean = _parse_stats(path, *lines[0], "mean", dim)
        std = _parse_stats(path, *lines[1], "std", dim)
        lines = lines[2:]
    rows = [_parse_row(path, number, line.split(), dim) for number, line in lines]
    if len(rows) != k:
        raise ValueError(f"{path}: expected {k} centroid rows, found {len(rows)}")
    return Codebook(
        centroids=np.vstack(rows), seed=seed, provider_id=fields["provider"],
        audio=audio, mean=mean, std=std,
    )


def codebook_provider(
    path: str | Path, codebook: Codebook, feature_dir: str | Path | None = None
) -> FeatureProvider:
    """The feature provider ``codebook`` (read from ``path``) was fitted
    with, standardized as in that fit, so a frame's unit depends only on the
    frame and the codebook. Precomputed features are read from
    ``feature_dir``."""
    if codebook.provider_id == "precomputed":
        if feature_dir is None:
            raise ValueError(f"{path}: precomputed features need codebook.feature_dir")
        return PrecomputedProvider(feature_dir)
    if codebook.provider_id != "builtin-mel":
        raise ValueError(f"{path}: unknown feature provider {codebook.provider_id!r}")
    if codebook.mean is None:
        raise ValueError(
            f"{path}: codebook records no audio config or feature standardization; "
            "re-run `pptts codebook` to write one that does"
        )
    provider = BuiltinMelProvider(codebook.audio)
    provider.mean, provider.std = codebook.mean, codebook.std
    return provider


def codebook_hash(codebook: Codebook) -> str:
    """SHA-256 over the identity line and the float64 centroids, then the
    audio fields and the float32 mean and std of a codebook that records
    them."""
    digest = hashlib.sha256()
    # Checkpoint headers store this hash, so it keeps the magic of the first
    # file format: a new magic would orphan every saved checkpoint.
    digest.update((_identity(codebook, "PPCB1") + "\n").encode())
    digest.update(np.ascontiguousarray(codebook.centroids, dtype="<f8").tobytes())
    if codebook.audio is not None:
        digest.update(_audio_fields(codebook.audio).encode())
    for stats in (codebook.mean, codebook.std):
        if stats is not None:
            digest.update(np.ascontiguousarray(stats, dtype="<f4").tobytes())
    return digest.hexdigest()
