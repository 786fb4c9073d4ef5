"""Similarity scoring and clustering: cosine and attentive pair similarity,
spectral clustering with eigengap speaker-count selection, agglomerative
clustering with a stop threshold, and overlap assignment between two fixed
speaker anchors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import PipelineConfig
from .errors import (
    DegenerateGraphError,
    DivergenceError,
    NumericError,
    ParameterError,
    ShapeError,
)

if TYPE_CHECKING:  # annotations only: segmenter imports this module
    from .segmenter import EmbeddedSegment

KMEANS_RESTARTS = 20


@dataclass
class Clustering:
    """Per-item cluster labels plus per-cluster mean vectors."""

    labels: np.ndarray
    centers: np.ndarray

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]


def _unit_rows(x) -> np.ndarray:
    """Rows scaled to unit length: the one normalisation behind every cosine
    between embeddings. A zero row has no direction and raises."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt(np.add.reduce(x * x, axis=1))  # np.linalg.norm(x, axis=1)
    if not norms.all():
        raise NumericError("cosine similarity of a zero vector")
    return x / norms[:, None]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    ua, ub = _unit_rows([a, b])
    return float(ua @ ub)


def cosine_similarity_matrix(embeddings: np.ndarray) -> np.ndarray:
    unit = _unit_rows(embeddings)
    return unit @ unit.T


def build_v2s_input(xs: list[np.ndarray] | np.ndarray, i: int) -> np.ndarray:
    """Rows [x_i ; x_j] for all j, pairing the anchor against the sequence."""
    x = np.asarray(xs, dtype=np.float64)
    if not 0 <= i < x.shape[0]:
        raise ParameterError(f"anchor index {i} outside 0..{x.shape[0] - 1}")
    anchor = np.broadcast_to(x[i], x.shape)
    return np.concatenate([anchor, x], axis=1)


def v2s_similarity_matrix(xs, scorer) -> np.ndarray:
    """Score every anchor against the sequence, then symmetrize (S + S^T)/2."""
    x = np.asarray(xs, dtype=np.float64)
    n = x.shape[0]
    rows = np.empty((n, n))
    for i in range(n):
        rows[i] = scorer.forward(build_v2s_input(x, i))
    return (rows + rows.T) / 2.0


def _kmeans_once(x: np.ndarray, k: int, rng: np.random.Generator):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = x[rng.integers(n)]
        else:
            centers[j] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))
    labels = np.zeros(n, dtype=int)
    for _ in range(100):
        dists = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = dists.argmin(axis=1)
        for j in range(k):
            members = x[new_labels == j]
            if members.size:
                centers[j] = members.mean(axis=0)
            else:
                centers[j] = x[dists.min(axis=1).argmax()]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    inertia = float(np.sum((x - centers[labels]) ** 2))
    return labels, inertia


def kmeans(x: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    best_labels, best_inertia = None, np.inf
    for r in range(KMEANS_RESTARTS):
        labels, inertia = _kmeans_once(x, k, np.random.default_rng(seed + r))
        if inertia < best_inertia - 1e-12:
            best_labels, best_inertia = labels, inertia
    return best_labels


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters by order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def spectral_cluster(
    s: np.ndarray,
    max_speakers: int = PipelineConfig.max_speakers,
    seed: int = 0,
) -> Clustering:
    """Normalized-Laplacian spectral clustering with eigengap count selection.

    The input must be symmetric with non-negative entries (cosine inputs are
    clipped at zero upstream). The cluster count k is the argmax of the gaps
    between consecutive ascending Laplacian eigenvalues, over 1..max_speakers.
    Rows of the k leading eigenvectors are length-normalized and clustered by
    seeded k-means (best inertia over restarts).
    """
    s = np.asarray(s, dtype=np.float64)
    n = s.shape[0]
    if s.ndim != 2 or s.shape[1] != n:
        raise ShapeError(f"similarity matrix must be square, got {s.shape}")
    if not np.allclose(s, s.T, atol=1e-8):
        raise ParameterError("similarity matrix must be symmetric")
    if s.min() < 0.0:
        raise ParameterError("similarity entries must be non-negative")
    degrees = s.sum(axis=1)
    if np.any(degrees <= 0.0):
        raise DegenerateGraphError("similarity graph has an isolated node")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    laplacian = np.eye(n) - s * np.outer(inv_sqrt, inv_sqrt)
    eigvals, eigvecs = np.linalg.eigh(laplacian)
    limit = min(max_speakers, n - 1)
    if limit < 1:
        k = 1
    else:
        gaps = eigvals[1 : limit + 1] - eigvals[:limit]
        k = int(np.argmax(gaps)) + 1
    rows = eigvecs[:, :k]
    norms = np.linalg.norm(rows, axis=1)
    rows = rows / np.maximum(norms, 1e-12)[:, None]
    if k == 1:
        labels = np.zeros(n, dtype=int)
    else:
        labels = _canonical_labels(kmeans(rows, k, seed=seed))
    centers = np.stack([rows[labels == j].mean(axis=0) for j in range(k)])
    return Clustering(labels, centers)


def ahc(
    segs: list[EmbeddedSegment], stop_threshold: float = PipelineConfig.ahc_stop_threshold
) -> Clustering:
    """Agglomerate segments bottom-up while the most similar pair of cluster
    centers stays at or above the stop threshold.

    Centers are the means of member embeddings; of the pairs within 1e-12 of
    the best score the first in row-major order merges, which makes the
    result deterministic. The cosines stay in one matrix, and a merge
    recomputes only the merged cluster's row and column.
    """
    if not segs:
        raise ParameterError("ahc needs at least one segment")
    embeddings = np.stack([e.embedding for e in segs])
    n = len(segs)
    members: list[list[int]] = [[i] for i in range(n)]
    centers = embeddings.copy()
    unit = _unit_rows(centers)
    # sims[a, b] for live clusters a < b; every other entry is -inf, so the
    # row-major order of the live pairs is that of the clusters kept in order.
    sims = unit @ unit.T
    sims[np.tril_indices(n)] = -np.inf
    alive = np.ones(n, dtype=bool)
    for _ in range(n - 1):
        flat = sims.ravel()
        best = int(np.argmax(flat >= flat.max() - 1e-12))
        if flat[best] < stop_threshold:
            break
        i, j = divmod(best, n)
        members[i] += members[j]
        alive[j] = False
        sims[j, :] = sims[:, j] = -np.inf
        centers[i] = embeddings[members[i]].mean(axis=0)
        unit[i] = _unit_rows(centers[i : i + 1])[0]
        row = np.where(alive, unit @ unit[i], -np.inf)
        sims[:i, i] = row[:i]
        sims[i, i + 1 :] = row[i + 1 :]
    # Merging j into i < j keeps the clusters in order of their first member.
    kept = np.flatnonzero(alive)
    labels = np.empty(n, dtype=int)
    for label, c in enumerate(kept):
        labels[members[c]] = label
    return Clustering(labels, centers[kept])


def select_two_speakers(labels: np.ndarray, durations: np.ndarray) -> tuple[int, int] | None:
    """The labels (a, b) of the two clusters with the largest total member
    duration, the larger first and ties to the lower label; None when there
    are fewer than two clusters.

    `labels[i]` is item i's cluster, 0..k-1, and `durations[i]` its seconds.
    Each total adds its members in item order.
    """
    total = np.bincount(labels, weights=durations)
    if total.size < 2:
        return None
    a, b = np.argsort(-total, kind="stable")[:2]
    return int(a), int(b)


def assign_with_overlap(
    segs: list[EmbeddedSegment],
    center_a: np.ndarray,
    center_b: np.ndarray,
    overlap_threshold: float = PipelineConfig.overlap_threshold,
):
    """Assign each segment to speaker a, speaker b, or both.

    A segment whose similarity to BOTH fixed centers exceeds the overlap
    threshold is treated as overlapped speech and added to both speakers;
    otherwise it goes to the more similar center (ties to a).
    """
    if not segs:
        return [], []
    sims = _unit_rows([s.embedding for s in segs]) @ _unit_rows([center_a, center_b]).T
    sim_a, sim_b = sims.T
    both = np.minimum(sim_a, sim_b) > overlap_threshold
    to_a = both | (sim_a >= sim_b)
    to_b = both | (sim_a < sim_b)
    return [s for s, t in zip(segs, to_a) if t], [s for s, t in zip(segs, to_b) if t]


def train_v2s_toy(scorer, dataset, lr: float = 0.01, epochs: int = 200):
    """SGD on BCE over scorer rows; returns the per-epoch mean loss trace.

    `dataset` items are (embeddings [n, 128], anchor index, labels [n]) with
    labels marking which positions share the anchor's speaker.
    """
    trace = []
    for _ in range(epochs):
        total = 0.0
        for xs, anchor, labels in dataset:
            m = build_v2s_input(np.asarray(xs, dtype=np.float64), anchor)
            loss, grads = scorer.loss_and_grad(m, np.asarray(labels, dtype=np.float64))
            if not np.isfinite(loss):
                raise DivergenceError(f"loss became non-finite ({loss}); try a smaller lr")
            scorer.apply_grads(grads, lr)
            total += loss
        trace.append(total / max(len(dataset), 1))
    return trace


def v2s_pair_accuracy(scorer, dataset) -> float:
    """Fraction of scored positions whose rounded score matches the label."""
    correct = 0
    total = 0
    for xs, anchor, labels in dataset:
        scores = scorer.forward(build_v2s_input(np.asarray(xs, dtype=np.float64), anchor))
        correct += int(np.sum((scores >= 0.5) == (np.asarray(labels) >= 0.5)))
        total += scores.size
    return correct / max(total, 1)
