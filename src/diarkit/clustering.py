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
    InsufficientSpeakersError,
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
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
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


def kmeans(x: np.ndarray, k: int, restarts: int = KMEANS_RESTARTS, seed: int = 0) -> np.ndarray:
    best_labels, best_inertia = None, np.inf
    for r in range(restarts):
        labels, inertia = _kmeans_once(x, k, np.random.default_rng(seed + r))
        if inertia < best_inertia - 1e-12:
            best_labels, best_inertia = labels, inertia
    return best_labels


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters by order of first appearance."""
    remap: dict[int, int] = {}
    out = np.empty_like(labels)
    for i, lab in enumerate(labels):
        if lab not in remap:
            remap[lab] = len(remap)
        out[i] = remap[lab]
    return out


def spectral_cluster(
    s: np.ndarray,
    max_speakers: int = PipelineConfig.max_speakers,
    k: int | None = None,
    seed: int = 0,
) -> Clustering:
    """Normalized-Laplacian spectral clustering with eigengap count selection.

    The input must be symmetric with non-negative entries (cosine inputs are
    clipped at zero upstream). When k is not given it is chosen as the argmax
    of the gaps between consecutive ascending Laplacian eigenvalues, over
    1..max_speakers. Rows of the k leading eigenvectors are length-normalized
    and clustered by seeded k-means (best inertia over restarts).
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
    if k is None:
        limit = min(max_speakers, n - 1)
        if limit < 1:
            k = 1
        else:
            gaps = eigvals[1 : limit + 1] - eigvals[:limit]
            k = int(np.argmax(gaps)) + 1
    if not 1 <= k <= n:
        raise ParameterError(f"cluster count {k} outside 1..{n}")
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
    result deterministic.
    """
    if not segs:
        raise ParameterError("ahc needs at least one segment")
    embeddings = np.stack([e.embedding for e in segs])
    members: list[list[int]] = [[i] for i in range(len(segs))]
    centers = embeddings.copy()
    while len(members) > 1:
        rows, cols = np.triu_indices(len(members), 1)
        sims = cosine_similarity_matrix(centers)[rows, cols]
        best = int(np.argmax(sims >= sims.max() - 1e-12))
        if sims[best] < stop_threshold:
            break
        i, j = rows[best], cols[best]
        members[i] += members.pop(j)
        centers[i] = embeddings[members[i]].mean(axis=0)
        centers = np.delete(centers, j, axis=0)
    # Merging j into i < j keeps the clusters in order of their first member.
    labels = np.empty(len(segs), dtype=int)
    for label, items in enumerate(members):
        labels[items] = label
    return Clustering(labels, centers)


def select_two_speakers(clustering: Clustering, segs: list[EmbeddedSegment]):
    """Pick the two clusters with the largest total member duration.

    Returns (center_a, center_b, member index lists for a and b, leftover
    segment indices to be handed to assign_with_overlap).
    """
    k = clustering.n_clusters
    if k < 2:
        raise InsufficientSpeakersError(f"need >= 2 clusters, got {k}")
    durations = np.zeros(k)
    for idx, seg in enumerate(segs):
        durations[clustering.labels[idx]] += seg.segment.duration
    ranked = sorted(range(k), key=lambda c: (-durations[c], c))
    a, b = ranked[0], ranked[1]
    idx_a = [i for i in range(len(segs)) if clustering.labels[i] == a]
    idx_b = [i for i in range(len(segs)) if clustering.labels[i] == b]
    rest = [i for i in range(len(segs)) if clustering.labels[i] not in (a, b)]
    return clustering.centers[a], clustering.centers[b], (idx_a, idx_b), rest


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


def diaconis_augment(
    xs: list[np.ndarray] | np.ndarray, seed: int, prob: float = 0.5
) -> np.ndarray:
    """With the given probability, apply one shared random rotation to every
    embedding in the sequence (pairwise cosine similarities are unchanged)."""
    x = np.asarray(xs, dtype=np.float64)
    if x.size == 0:
        raise ParameterError("empty embedding sequence")
    rng = np.random.default_rng(seed)
    if rng.random() >= prob:
        return x.copy()
    return x @ random_rotation(x.shape[1], rng)


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix: QR of a Gaussian with sign-fixed R."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diagonal(r))


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
