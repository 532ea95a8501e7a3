"""Trace generation: millions of tenants, one vectorized pass per phase.

Naively simulating a million tenants means a million tiny arrival
processes — exactly the per-event scalar trap the E35/E39 work removes.
This generator exploits the superposition property of Poisson processes
instead: the aggregate arrival process of a tenant class is itself a
(non-homogeneous) Poisson process whose rate is the class's share of the
global rate, so we

1. generate **one** thinned arrival vector per phase class (tenants in
   the same timezone class share a diurnal shape, shifted by
   ``period_s * p / phases``),
2. attribute each arrival to a tenant by a vectorized Zipf draw
   (``searchsorted`` over the class's cumulative popularity weights),
3. attribute a function within the tenant by a second Zipf draw.

Steps 2–3 are O(arrivals · log tenants) with numpy doing the work, so a
1M-tenant / 1e7-arrival trace generates in seconds.

Draw protocol: ``rng.spawn(phases + 1)`` — one child per phase class
(each consumed as candidate/thinning/assignment sub-streams in class
order) plus a final child for function popularity.  Phase classes are
independent streams, so adding a phase never perturbs another class's
arrivals.
"""

from __future__ import annotations

import math

import numpy

from taureau.core.workload import _thinned_poisson_vec
from taureau.workload.spec import WorkloadSpec
from taureau.workload.trace import Trace

__all__ = ["generate_trace"]


def _zipf_cumulative(count: int, exponent: float) -> numpy.ndarray:
    """Cumulative (unnormalized) Zipf weights for ranks 1..count."""
    ranks = numpy.arange(1, count + 1, dtype=numpy.float64)
    return numpy.cumsum(ranks**-exponent)


def _diurnal_shape(peak_to_mean: float) -> tuple:
    """Solve the diurnal modulation ``((1 + sin) / 2) ** k`` for its exponent.

    A clamped sinusoid cannot exceed a peak-to-mean ratio of ~π, far
    below the paper's "peak several times the mean"; raising the
    normalized sinusoid to a power ``k`` sharpens the peak without bound
    while troughs flatten toward zero (the "minimum often zero").
    Returns ``(k, mean_of_shape)`` with ``k`` bisected so that
    ``1 / mean == peak_to_mean`` — dividing by the mean then makes the
    modulation average exactly 1, so ``mean_rps`` is honored and the
    instantaneous rate peaks at ``peak_to_mean * mean_rps``.
    """
    if peak_to_mean <= 1.0:
        return 0.0, 1.0
    angles = numpy.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    base = (1.0 + numpy.sin(angles)) / 2.0

    def shape_mean(k: float) -> float:
        return float(numpy.mean(base**k))

    low, high = 0.0, 1.0
    while 1.0 / shape_mean(high) < peak_to_mean:
        high *= 2.0
        if high > 1e6:  # pragma: no cover - astronomically spiky specs
            break
    for _ in range(60):
        mid = (low + high) / 2.0
        if 1.0 / shape_mean(mid) < peak_to_mean:
            low = mid
        else:
            high = mid
    k = (low + high) / 2.0
    return k, shape_mean(k)


def _pick_by_weight(rng, cumulative: numpy.ndarray, n: int) -> numpy.ndarray:
    """Vectorized categorical draw: n indices into ``cumulative``."""
    uniforms = rng.random(n)
    picks = numpy.searchsorted(cumulative, uniforms * cumulative[-1], side="right")
    return numpy.minimum(picks, cumulative.size - 1)


def generate_trace(spec: WorkloadSpec, seed: int = 0) -> Trace:
    """Generate the :class:`~taureau.workload.Trace` a spec describes.

    Deterministic in ``(spec, seed)``: the same pair always yields the
    byte-identical trace (``tests/test_workload_engine.py`` holds this,
    including through a save/load round trip).
    """
    if spec.functions_per_tenant > numpy.iinfo(numpy.int16).max:
        raise ValueError("functions_per_tenant exceeds the int16 trace column")
    phases = min(spec.phases, spec.tenants)
    rng = numpy.random.default_rng(seed)
    children = rng.spawn(phases + 1)

    tenant_weights = numpy.arange(1, spec.tenants + 1, dtype=numpy.float64)
    tenant_weights **= -spec.tenant_zipf_s
    total_weight = float(numpy.sum(tenant_weights))

    shape_k, shape_mean = _diurnal_shape(spec.peak_to_mean)
    peak_modulation = 1.0 / shape_mean
    two_pi = 2.0 * math.pi

    time_columns = []
    tenant_columns = []
    for phase in range(phases):
        class_ids = numpy.arange(phase, spec.tenants, phases, dtype=numpy.int64)
        class_weights = tenant_weights[class_ids]
        class_share = float(numpy.sum(class_weights)) / total_weight
        class_mean_rps = spec.mean_rps * class_share
        if class_mean_rps <= 0.0:
            continue
        shift = spec.period_s * phase / phases

        def rate(t, mean=class_mean_rps, shift=shift):
            swing = (1.0 + numpy.sin(two_pi * (t + shift) / spec.period_s)) / 2.0
            return mean * (swing**shape_k / shape_mean)

        child = children[phase]
        times = _thinned_poisson_vec(
            child, rate, class_mean_rps * peak_modulation, spec.horizon_s
        )
        if times.size == 0:
            continue
        class_cumulative = numpy.cumsum(class_weights)
        picks = _pick_by_weight(child, class_cumulative, times.size)
        time_columns.append(times)
        tenant_columns.append(class_ids[picks].astype(numpy.int32))

    if time_columns:
        times = numpy.concatenate(time_columns)
        tenants = numpy.concatenate(tenant_columns)
        order = numpy.argsort(times, kind="stable")
        times = times[order]
        tenants = tenants[order]
        function_cumulative = _zipf_cumulative(
            spec.functions_per_tenant, spec.function_zipf_s
        )
        functions = _pick_by_weight(
            children[phases], function_cumulative, times.size
        ).astype(numpy.int16)
    else:
        times = numpy.empty(0, dtype=numpy.float64)
        tenants = numpy.empty(0, dtype=numpy.int32)
        functions = numpy.empty(0, dtype=numpy.int16)

    meta = spec.to_meta()
    meta["seed"] = int(seed)
    meta["arrivals"] = int(times.size)
    return Trace(times, tenants, functions, meta)
