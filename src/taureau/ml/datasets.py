"""Synthetic datasets for the serverless ML workloads (§5.2).

The generator takes an explicit numpy seed so training traces are
reproducible; its shape mirrors the binary-classification problems the
cited systems train.
"""

from __future__ import annotations

import typing

import numpy as np

__all__ = ["classification_dataset", "shard"]


def classification_dataset(
    n_samples: int,
    n_features: int,
    seed: int = 0,
    noise: float = 0.5,
) -> typing.Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A linearly separable-ish binary problem.

    Returns ``(X, y, true_weights)`` with labels in {0, 1}; the Bayes
    classifier is the sign of ``X @ true_weights``.
    """
    rng = np.random.default_rng(seed)
    true_weights = rng.standard_normal(n_features)
    features = rng.standard_normal((n_samples, n_features))
    logits = features @ true_weights + noise * rng.standard_normal(n_samples)
    labels = (logits > 0).astype(np.float64)
    return features, labels, true_weights


def shard(
    features: np.ndarray, labels: np.ndarray, workers: int
) -> typing.List[typing.Tuple[np.ndarray, np.ndarray]]:
    """Split a dataset into ``workers`` contiguous, near-equal shards."""
    if workers <= 0:
        raise ValueError("workers must be positive")
    feature_shards = np.array_split(features, workers)
    label_shards = np.array_split(labels, workers)
    return list(zip(feature_shards, label_shards))
