"""Monotonic alignment search over a phoneme-by-frame log-prior.

The DP finds the best nondecreasing surjective frame-to-phoneme assignment;
a brute-force enumerator over the same search space serves as its oracle on
small instances.  Ties are broken by staying on the current phoneme as time
advances (switch as late as possible), which selects the maximizer whose
reversed assignment is lexicographically smallest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

NEG_INF = -np.inf


class InfeasibleError(ValueError):
    """Fewer frames than phonemes."""


class InstanceTooLargeError(ValueError):
    """Brute-force oracle asked to enumerate too large an instance."""


@dataclass
class AlignmentResult:
    assignment: np.ndarray   # length F, phoneme index per frame
    durations: np.ndarray    # length P, frames per phoneme
    log_likelihood: float

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        self.durations = np.asarray(self.durations, dtype=np.int64)
        if np.any(np.diff(self.assignment) < 0):
            raise ValueError("assignment must be nondecreasing")
        if np.any(self.durations < 1):
            raise ValueError("every phoneme needs at least one frame")
        if self.durations.sum() != self.assignment.size:
            raise ValueError("durations must sum to the frame count")


def _durations_from_assignment(assignment: np.ndarray, n_phonemes: int) -> np.ndarray:
    return np.bincount(assignment, minlength=n_phonemes).astype(np.int64)


def _path_score(log_prior: np.ndarray, assignment) -> float:
    # accumulate in frame order so DP and oracle sum bit-identically
    s = 0.0
    for f, p in enumerate(assignment):
        s += float(log_prior[p, f])
    return s


def mas(log_prior: np.ndarray) -> AlignmentResult:
    """Best monotonic surjective alignment by dynamic programming."""
    log_prior = np.asarray(log_prior, dtype=np.float64)
    if log_prior.ndim != 2:
        raise ValueError("log_prior must be P x F")
    if not np.all(np.isfinite(log_prior)):
        raise ValueError("log_prior entries must be finite")
    n_p, n_f = log_prior.shape
    if n_p < 1 or n_f < n_p:
        raise InfeasibleError(f"need F >= P >= 1, got P={n_p}, F={n_f}")

    # frame-major with a -inf column in front: q[f, p + 1] is the best score at
    # phoneme p on frame f, so row f - 1 holds p's stay and move candidates
    q = np.full((n_f, n_p + 1), NEG_INF)
    q[0, 1] = log_prior[0, 0]
    lp_t = np.ascontiguousarray(log_prior.T)
    for f in range(1, n_f):
        np.add(lp_t[f], np.maximum(q[f - 1, 1:], q[f - 1, :-1]), out=q[f, 1:])

    assignment = np.empty(n_f, dtype=np.int64)
    p = n_p - 1
    assignment[n_f - 1] = p
    for f in range(n_f - 1, 0, -1):
        # ties switch phonemes as late as possible in forward time
        if q[f - 1, p] >= q[f - 1, p + 1]:
            p -= 1
        assignment[f - 1] = p

    durations = _durations_from_assignment(assignment, n_p)
    # the last cell sums the path's priors in frame order, as ``_path_score`` does
    return AlignmentResult(assignment, durations, float(q[n_f - 1, n_p]))


def brute_force_align(log_prior: np.ndarray) -> AlignmentResult:
    """Exhaustive oracle over all monotonic surjective assignments."""
    log_prior = np.asarray(log_prior, dtype=np.float64)
    n_p, n_f = log_prior.shape
    if n_p > 6 or n_f > 10:
        raise InstanceTooLargeError(f"P={n_p}, F={n_f} exceeds brute-force bounds")
    if n_p < 1 or n_f < n_p:
        raise InfeasibleError(f"need F >= P >= 1, got P={n_p}, F={n_f}")

    best_score = NEG_INF
    best_key = None
    best_assignment = None
    for switches in combinations(range(1, n_f), n_p - 1):
        assignment = np.zeros(n_f, dtype=np.int64)
        for s in switches:
            assignment[s:] += 1
        score = _path_score(log_prior, assignment)
        key = tuple(assignment[::-1])
        if score > best_score or (score == best_score and key < best_key):
            best_score, best_key, best_assignment = score, key, assignment
    durations = _durations_from_assignment(best_assignment, n_p)
    return AlignmentResult(best_assignment, durations, best_score)


def gaussian_log_prior(mu: np.ndarray, target: np.ndarray) -> np.ndarray:
    """-0.5 * squared distance between each target frame and each phoneme mean."""
    mu = np.asarray(mu, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if mu.ndim != 2 or target.ndim != 2 or mu.shape[1] != target.shape[1]:
        raise ValueError(f"feature dims disagree: {mu.shape} vs {target.shape}")
    # centring both on the target's per-bin mean moves no distance, but keeps
    # the norms small, so the expanded form below cancels little precision
    centre = target.mean(axis=0)
    mu = mu - centre
    target = target - centre
    # ||mu - x||^2 = ||mu||^2 - 2 mu.x + ||x||^2: one P x F product, updated in
    # place, where the difference tensor would be P x F x n_mels
    sq = mu @ target.T
    sq *= -2.0
    sq += np.einsum("pd,pd->p", mu, mu)[:, None]
    sq += np.einsum("fd,fd->f", target, target)
    np.maximum(sq, 0.0, out=sq)  # rounding can leave an exact match slightly above 0
    sq *= -0.5
    return sq
