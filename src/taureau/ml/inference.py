"""Serverless model serving (§5.2 "Inference").

Three cited observations shape the harness:

- Ishakian et al. [112]: warm serverless inference latency is
  acceptable; cold starts add significant overhead;
- Dakkak et al. [88] (TrIMS): a model store across a cache hierarchy
  cuts the cold-start model-load penalty;
- Bhattacharjee et al. [75] (BARISTA): forecasting demand and
  pre-warming capacity bounds tail latency.

:class:`InferenceService` deploys a predictor function whose cold
attempts pay a model-load cost determined by a :class:`ModelCache`
hierarchy, plus an optional EWMA-forecast pre-warmer.  Experiment E22
measures latency with/without the cache and pre-warming.
"""

from __future__ import annotations

import collections
import typing

import numpy as np

from taureau.core.calibration import DEFAULT_CALIBRATION, Calibration
from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform
from taureau.ml.models import LogisticModel
from taureau.sim import MetricRegistry

__all__ = ["ModelCache", "InferenceService"]


class ModelCache:
    """A TrIMS-style host-level model cache.

    On a cold sandbox the model must be materialized.  A cache hit
    costs only deserialization from host memory; a miss pays the full
    remote fetch (size / blob bandwidth) *plus* deserialization, then
    populates the cache (LRU within ``capacity_mb``).
    """

    def __init__(
        self,
        capacity_mb: float = 1024.0,
        calibration: Calibration = DEFAULT_CALIBRATION,
        deserialize_s_per_mb: float = 0.005,
    ):
        if capacity_mb <= 0:
            raise ValueError("capacity_mb must be positive")
        self.capacity_mb = capacity_mb
        self.calibration = calibration
        self.deserialize_s_per_mb = deserialize_s_per_mb
        self.metrics = MetricRegistry()
        self._resident: typing.MutableMapping[str, float] = collections.OrderedDict()

    def load_latency_s(self, model_id: str, size_mb: float) -> float:
        """The model-load cost for one cold attempt; updates the cache."""
        deserialize = size_mb * self.deserialize_s_per_mb
        if model_id in self._resident:
            self._resident.move_to_end(model_id)
            self.metrics.counter("hits").add()
            return deserialize
        self.metrics.counter("misses").add()
        fetch = self.calibration.blob_transfer_latency(size_mb)
        self._admit(model_id, size_mb)
        return fetch + deserialize

    def _admit(self, model_id: str, size_mb: float) -> None:
        while (
            self._resident
            and sum(self._resident.values()) + size_mb > self.capacity_mb
        ):
            self._resident.popitem(last=False)
        if size_mb <= self.capacity_mb:
            self._resident[model_id] = size_mb


class InferenceService:
    """A deployed model endpoint with optional pre-warming."""

    def __init__(
        self,
        platform: FaasPlatform,
        model: LogisticModel,
        cache: typing.Optional[ModelCache] = None,
        compute_s_per_request: float = 0.002,
        memory_mb: float = 1024.0,
    ):
        self.platform = platform
        self.model = model
        self.cache = cache
        self.endpoint = f"infer{next(platform.sim.ids('infer'))}"
        self._register(compute_s_per_request, memory_mb)

    def _register(self, compute_s_per_request: float, memory_mb: float) -> None:
        service = self

        def predictor(event, ctx):
            if ctx.cold_start:
                size = service.model.size_mb
                if service.cache is not None:
                    ctx.charge(service.cache.load_latency_s(
                        service.model.model_id, size))
                else:
                    # No cache: full remote fetch + deserialize every cold start.
                    calibration = service.platform.config.calibration
                    ctx.charge(
                        calibration.blob_transfer_latency(size) + size * 0.005
                    )
            ctx.charge(compute_s_per_request)
            features = np.asarray(event)
            return service.model.predict(features).tolist()

        self.platform.register(
            FunctionSpec(name=self.endpoint, handler=predictor, memory_mb=memory_mb)
        )

    # ------------------------------------------------------------------

    def predict(self, features) -> "typing.Any":
        """Asynchronous prediction; returns the invocation event."""
        return self.platform.invoke(self.endpoint, features)

    def prewarm(self, count: int = 1) -> None:
        """Proactively spin up ``count`` sandboxes (BARISTA-style).

        Issues no-op predictions so the platform provisions and then
        parks warm sandboxes; the next real burst starts warm.
        """
        zeros = np.zeros((1, len(self.model.weights)))
        for __ in range(count):
            self.platform.invoke(self.endpoint, zeros)

    def start_forecast_prewarmer(
        self,
        interval_s: float = 10.0,
        ewma_alpha: float = 0.3,
        headroom: float = 1.5,
    ):
        """A control loop forecasting arrivals and keeping warm capacity.

        Every ``interval_s`` it updates an EWMA of the arrival count and
        tops the warm pool up to ``headroom x forecast`` sandboxes.
        """
        platform = self.platform
        endpoint = self.endpoint
        state = {"last_count": 0.0, "ewma": 0.0}
        invocations = platform.metrics.counter("invocations")

        def loop():
            while True:
                yield platform.sim.timeout(interval_s)
                current = invocations.value
                arrivals = current - state["last_count"]
                state["last_count"] = current
                state["ewma"] = (
                    ewma_alpha * arrivals + (1.0 - ewma_alpha) * state["ewma"]
                )
                desired = int(state["ewma"] * headroom)
                deficit = desired - platform.warm_pool_size(endpoint)
                if deficit > 0:
                    self.prewarm(deficit)

        return platform.sim.process(loop())
