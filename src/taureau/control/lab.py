"""PolicyLab: one seeded scenario, N policy stacks, one table.

The lab replays the *identical* workload — same master seed, same
scenario builder (which may install workload traces, chaos plans,
resilience policies and SLO monitoring) — once per candidate policy
stack plus a policy-free static baseline, on a fresh
:class:`~taureau.Platform` each time.  Because every platform is a pure
function of ``(seed, scenario, policies)``, the resulting comparison
table is byte-identical across same-seed runs — the property the
``control`` scenario of ``tests/test_golden.py`` pins.

Candidates are given as *factories* (zero-argument callables returning a
policy or an iterable of policies), never shared instances: policies
carry internal state across ticks, and reusing one instance across lab
runs would leak state between rows and break the determinism contract.
"""

from __future__ import annotations

import typing

from taureau.control.policies import Policy

__all__ = ["PolicyLab", "LabReport"]

_COLUMNS = (
    ("policy", "{}", 18),
    ("invocations", "{}", 12),
    ("slo_attainment", "{:.6f}", 14),
    ("cold_fraction", "{:.6f}", 13),
    ("cost_usd", "{:.6f}", 12),
    ("p99_latency_s", "{:.4f}", 13),
    ("throttles", "{}", 9),
    ("alerts", "{}", 6),
    ("actions", "{}", 7),
)


class LabReport:
    """The lab's output: ordered row dicts plus a deterministic table."""

    def __init__(self, rows: typing.List[dict], baseline: str):
        self.rows = rows
        self.baseline = baseline

    def row(self, policy: str) -> dict:
        for row in self.rows:
            if row["policy"] == policy:
                return row
        raise KeyError(f"no lab row for policy {policy!r}")

    def improvements(self) -> typing.List[dict]:
        """Candidates that beat the baseline on cold-start fraction or
        SLO attainment at equal-or-lower cost (the E40 acceptance bar)."""
        base = self.row(self.baseline)
        improved = []
        for row in self.rows:
            if row["policy"] == self.baseline:
                continue
            better_quality = (
                row["cold_fraction"] < base["cold_fraction"]
                or row["slo_attainment"] > base["slo_attainment"]
            )
            if better_quality and row["cost_usd"] <= base["cost_usd"]:
                improved.append(row)
        return improved

    def table(self) -> str:
        """One fixed-width text table; byte-identical for same-seed runs."""
        header = "  ".join(
            name.ljust(width) for name, __, width in _COLUMNS
        ).rstrip()
        lines = [header, "-" * len(header)]
        for row in self.rows:
            cells = []
            for name, fmt, width in _COLUMNS:
                cells.append(fmt.format(row[name]).ljust(width))
            lines.append("  ".join(cells).rstrip())
        return "\n".join(lines)


class PolicyLab:
    """Compare policy stacks on one seeded scenario.

    Parameters
    ----------
    scenario:
        ``scenario(app)`` — builds the workload on a fresh facade
        platform: register functions, install chaos/resilience/
        monitoring, schedule traffic.  Called once per candidate.
    candidates:
        ``{label: factory}`` where ``factory()`` returns a
        :class:`~taureau.control.Policy` or an iterable of them.
    seed:
        Master seed shared by every run.
    until:
        Optional horizon passed to ``app.run(until=...)``.
    interval_s:
        Control-loop tick period for candidate runs.
    platform_kwargs:
        Extra :class:`~taureau.Platform` constructor arguments (cluster
        size, config, ...).
    """

    BASELINE = "static"

    def __init__(self, scenario, candidates: typing.Dict[str, typing.Callable],
                 *, seed: int = 0, until: typing.Optional[float] = None,
                 interval_s: float = 5.0,
                 platform_kwargs: typing.Optional[dict] = None):
        if self.BASELINE in candidates:
            raise ValueError(
                f"candidate label {self.BASELINE!r} is reserved for the "
                f"policy-free baseline"
            )
        for label, factory in candidates.items():
            if not callable(factory):
                raise TypeError(
                    f"candidate {label!r} must be a zero-arg factory "
                    f"returning fresh Policy instances, not {factory!r}"
                )
        self.scenario = scenario
        self.candidates = dict(candidates)
        self.seed = seed
        self.until = until
        self.interval_s = interval_s
        self.platform_kwargs = dict(platform_kwargs or {})

    def run(self) -> LabReport:
        """Run baseline + every candidate; returns the comparison report."""
        from taureau.facade import Platform  # local: facade imports us

        rows = []
        entries = [(self.BASELINE, None)]
        entries.extend(self.candidates.items())
        for label, factory in entries:
            app = Platform(seed=self.seed, **self.platform_kwargs)
            self.scenario(app)
            if factory is not None:
                policies = factory()
                if isinstance(policies, Policy):
                    policies = [policies]
                app.with_control(policies=policies, interval_s=self.interval_s)
            app.run(until=self.until)
            rows.append(self._measure(label, app))
        return LabReport(rows, self.BASELINE)

    def _measure(self, label: str, app) -> dict:
        faas = app.faas
        metrics = faas.metrics
        starts = metrics.labeled_counter("starts_by", ("function", "start"))
        cold = 0.0
        total_starts = 0.0
        for (__, kind), child in starts.items():
            total_starts += child.value
            if kind == "cold":
                cold += child.value
        latency = metrics.distribution("e2e_latency_s")
        cost = (
            faas.total_cost_usd()
            + faas.provisioned_cost_usd()
            + faas.prewarm_cost_usd()
        )
        control = getattr(app, "control", None)
        monitor = getattr(app, "monitor", None)
        return {
            "policy": label,
            "invocations": int(metrics.counter("invocations").value),
            "slo_attainment": round(self._slo_attainment(app), 6),
            "cold_fraction": round(cold / total_starts if total_starts else 0.0, 6),
            "cost_usd": round(cost, 6),
            "p99_latency_s": round(
                latency.percentile(99) if latency.count else 0.0, 4
            ),
            "throttles": int(metrics.counter("throttles").value),
            "alerts": len(monitor.events) if monitor is not None else 0,
            "actions": len(control.actuator.actions) if control is not None else 0,
        }

    def _slo_attainment(self, app) -> float:
        """Worst whole-run attainment across the scenario's SLOs (1.0 when
        the scenario installs no monitor or no SLOs)."""
        monitor = getattr(app, "monitor", None)
        if monitor is None or not monitor.slos:
            return 1.0
        worst = 1.0
        for slo in monitor.slos:
            if slo.latency:
                hist = monitor._lookup(slo.latency)
                if hist is None or not hist.count:
                    continue
                attained = hist.count_at_or_below(slo.threshold_s) / hist.count
            else:
                good = monitor._lookup(slo.good)
                total = monitor._lookup(slo.total)
                if good is None or total is None or not total.value:
                    continue
                attained = good.value / total.value
            worst = min(worst, attained)
        return worst
