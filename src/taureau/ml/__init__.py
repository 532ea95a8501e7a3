"""Serverless machine-learning workloads (paper §5.2)."""

from taureau.ml.coded import StragglerModel, coded_matvec, uncoded_matvec
from taureau.ml.datasets import classification_dataset, shard
from taureau.ml.federated import FederatedAveraging, non_iid_shards
from taureau.ml.hyperparam import HyperparameterSearch, grid
from taureau.ml.inference import InferenceService, ModelCache
from taureau.ml.models import (
    LogisticModel,
    logistic_accuracy,
    logistic_gradient,
    logistic_loss,
    sigmoid,
)
from taureau.ml.parameter_server import (
    BlobParameterMedium,
    JiffyParameterMedium,
    ParameterMedium,
    ServerlessTrainingJob,
)

__all__ = [
    "StragglerModel",
    "coded_matvec",
    "uncoded_matvec",
    "classification_dataset",
    "shard",
    "FederatedAveraging",
    "non_iid_shards",
    "HyperparameterSearch",
    "grid",
    "InferenceService",
    "ModelCache",
    "LogisticModel",
    "logistic_accuracy",
    "logistic_gradient",
    "logistic_loss",
    "sigmoid",
    "ParameterMedium",
    "JiffyParameterMedium",
    "BlobParameterMedium",
    "ServerlessTrainingJob",
]
