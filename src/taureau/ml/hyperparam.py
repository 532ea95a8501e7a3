"""Serverless hyperparameter search (§5.2, [186] Seneca).

"The system concurrently invokes functions for all combinations of the
hyperparameters specified and returns the configuration that results in
the best score."  The harness does exactly that — one training function
per configuration, all in flight at once — plus a successive-halving
extension for budget-bounded searches.
"""

from __future__ import annotations

import itertools
import typing

from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform

__all__ = ["grid", "HyperparameterSearch"]

def grid(**axes: typing.Sequence) -> list:
    """The cross product of named axes as a list of config dicts.

    >>> grid(lr=[0.1, 0.5], l2=[0.0, 1e-3])
    [{'lr': 0.1, 'l2': 0.0}, {'lr': 0.1, 'l2': 0.001}, ...]
    """
    names = sorted(axes)
    combos = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


class HyperparameterSearch:
    """Fan a trainer over configurations; keep the best score.

    ``train_fn(config, budget) -> score`` runs *real* training; its
    simulated cost is ``cost_fn(config, budget)`` seconds.  ``budget``
    lets successive halving train promising configs longer.
    """

    def __init__(
        self,
        platform: FaasPlatform,
        train_fn: typing.Callable[[dict, int], float],
        cost_fn: typing.Optional[typing.Callable[[dict, int], float]] = None,
        memory_mb: float = 1024.0,
    ):
        self.platform = platform
        self.train_fn = train_fn
        self.cost_fn = cost_fn or (lambda config, budget: 1.0 * budget)
        self.task_name = f"hptune{next(platform.sim.ids('hptune'))}"
        self.trials: list = []
        self._register(memory_mb)

    def _register(self, memory_mb: float) -> None:
        search = self

        def trial(event, ctx):
            config, budget = event["config"], event["budget"]
            ctx.charge(search.cost_fn(config, budget))
            return search.train_fn(config, budget)

        self.platform.register(
            FunctionSpec(
                name=self.task_name, handler=trial, memory_mb=memory_mb,
                timeout_s=3600,
            )
        )

    # ------------------------------------------------------------------

    def run_all(self, configs: typing.Sequence[dict], budget: int = 1):
        """Concurrently evaluate every config; returns (best_config, best)."""
        return self.platform.sim.run(
            until=self.platform.sim.process(self._drive_all(list(configs), budget))
        )

    def _drive_all(self, configs: list, budget: int):
        scores = yield from self._evaluate(configs, budget)
        best_index = max(range(len(configs)), key=lambda i: scores[i])
        return configs[best_index], scores[best_index]

    def run_successive_halving(
        self,
        configs: typing.Sequence[dict],
        initial_budget: int = 1,
        eta: int = 2,
    ):
        """Hyperband-style halving: double budget, keep the top 1/eta."""
        if eta < 2:
            raise ValueError("eta must be >= 2")
        return self.platform.sim.run(
            until=self.platform.sim.process(
                self._drive_halving(list(configs), initial_budget, eta)
            )
        )

    def _drive_halving(self, configs: list, budget: int, eta: int):
        scores: list = []
        while True:
            scores = yield from self._evaluate(configs, budget)
            if len(configs) == 1:
                break
            keep = max(1, len(configs) // eta)
            ranked = sorted(
                range(len(configs)), key=lambda i: scores[i], reverse=True
            )[:keep]
            configs = [configs[i] for i in ranked]
            budget *= eta
        return configs[0], scores[0]

    def _evaluate(self, configs: list, budget: int):
        events = [
            self.platform.invoke(
                self.task_name, {"config": config, "budget": budget}
            )
            for config in configs
        ]
        records = yield self.platform.sim.all_of(events)
        scores = []
        for config, record in zip(configs, records):
            if not record.succeeded:
                raise RuntimeError(f"trial {config} failed: {record.error!r}")
            self.trials.append(
                {"config": config, "budget": budget, "score": record.response}
            )
            scores.append(record.response)
        return scores
