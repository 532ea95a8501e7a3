"""The trace-driven workload engine (taureau.workload) end to end."""

import numpy
import pytest

import taureau
from taureau.sim import Simulation
from taureau.workload import Trace, WorkloadSpec, generate_trace, replay_trace


def small_spec(**overrides):
    base = dict(
        tenants=500,
        functions_per_tenant=4,
        horizon_s=120.0,
        mean_rps=25.0,
        period_s=120.0,
        phases=4,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestWorkloadSpec:
    def test_defaults_are_valid(self):
        spec = WorkloadSpec()
        assert spec.expected_arrivals == 360_000

    @pytest.mark.parametrize(
        "bad",
        [
            {"tenants": 0},
            {"functions_per_tenant": 0},
            {"horizon_s": 0.0},
            {"mean_rps": -1.0},
            {"peak_to_mean": 0.5},
            {"period_s": -3.0},
            {"phases": 0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            WorkloadSpec(**bad)

    def test_to_meta_round_trips_through_json(self):
        import json

        meta = small_spec().to_meta()
        assert json.loads(json.dumps(meta)) == meta


class TestGenerateTrace:
    def test_same_spec_and_seed_is_byte_identical(self):
        first = generate_trace(small_spec(), seed=5)
        second = generate_trace(small_spec(), seed=5)
        assert numpy.array_equal(first.times, second.times)
        assert numpy.array_equal(first.tenants, second.tenants)
        assert numpy.array_equal(first.functions, second.functions)
        assert first.meta == second.meta

    def test_different_seed_differs(self):
        first = generate_trace(small_spec(), seed=1)
        second = generate_trace(small_spec(), seed=2)
        assert not numpy.array_equal(first.times, second.times)

    def test_columns_are_well_formed(self):
        spec = small_spec()
        trace = generate_trace(spec, seed=3)
        assert trace.times.dtype == numpy.float64
        assert trace.tenants.dtype == numpy.int32
        assert trace.functions.dtype == numpy.int16
        assert bool(numpy.all(numpy.diff(trace.times) >= 0.0))
        assert float(trace.times[0]) >= 0.0
        assert float(trace.times[-1]) < spec.horizon_s
        assert int(trace.tenants.min()) >= 0
        assert int(trace.tenants.max()) < spec.tenants
        assert int(trace.functions.min()) >= 0
        assert int(trace.functions.max()) < spec.functions_per_tenant
        assert trace.meta["seed"] == 3
        assert trace.meta["arrivals"] == len(trace)

    def test_honors_mean_rate(self):
        spec = small_spec(mean_rps=50.0)
        trace = generate_trace(spec, seed=7)
        assert len(trace) == pytest.approx(spec.expected_arrivals, rel=0.05)

    def test_single_phase_peak_to_mean_tracks_spec(self):
        spec = small_spec(peak_to_mean=4.0, phases=1, mean_rps=60.0)
        stats = generate_trace(spec, seed=11).stats(bucket_s=5.0)
        assert stats["peak_to_mean"] == pytest.approx(4.0, rel=0.25)

    def test_zipf_concentrates_on_low_tenant_ids(self):
        trace = generate_trace(small_spec(tenant_zipf_s=1.3), seed=13)
        counts = numpy.bincount(trace.tenants, minlength=500)
        top_share = float(numpy.sort(counts)[::-1][:5].sum()) / len(trace)
        # Five of 500 tenants carry a disproportionate share...
        assert top_share > 0.15
        # ...and a long tail of tenants sees zero traffic ("minimum
        # often zero" at per-tenant granularity).
        assert int(numpy.sum(counts == 0)) > 50

    def test_adding_a_phase_does_not_perturb_others(self):
        # Phase classes draw from independent spawned children, so the
        # class-0 tenants' arrival *times* survive a phase-count change
        # in the other classes only if streams are truly independent.
        # (Class membership t % phases changes, so compare via phases
        # that keep tenant 0 in class 0 with identical share: tenants
        # multiple of both phase counts and uniform weights.)
        spec_a = small_spec(tenants=8, phases=2, tenant_zipf_s=0.0)
        spec_b = small_spec(tenants=8, phases=2, tenant_zipf_s=0.0,
                            functions_per_tenant=9)
        a = generate_trace(spec_a, seed=21)
        b = generate_trace(spec_b, seed=21)
        # Function popularity draws come from a dedicated final child, so
        # arrival times and tenant attribution are unaffected.
        assert numpy.array_equal(a.times, b.times)
        assert numpy.array_equal(a.tenants, b.tenants)

    def test_zero_rate_yields_empty_trace(self):
        trace = generate_trace(small_spec(mean_rps=0.0), seed=0)
        assert len(trace) == 0
        assert trace.stats()["arrivals"] == 0

    def test_more_phases_than_tenants_collapses(self):
        trace = generate_trace(small_spec(tenants=2, phases=16), seed=1)
        assert int(trace.tenants.max()) < 2


class TestTrace:
    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            Trace([1.0, 2.0], [0], [0, 0])

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            Trace([2.0, 1.0], [0, 0], [0, 0])

    def test_window_slices_by_time(self):
        trace = generate_trace(small_spec(), seed=2)
        cut = trace.window(30.0, 60.0)
        assert len(cut) > 0
        assert float(cut.times[0]) >= 30.0
        assert float(cut.times[-1]) < 60.0
        total = len(trace.window(0.0, 30.0)) + len(cut) + len(
            trace.window(60.0, numpy.inf)
        )
        assert total == len(trace)

    def test_repr_and_len(self):
        trace = generate_trace(small_spec(), seed=2)
        assert str(len(trace)) in repr(trace)

    def test_save_load_round_trip(self, tmp_path):
        trace = generate_trace(small_spec(), seed=4)
        path = trace.save(tmp_path / "trace")
        assert path.suffix == ".npz"
        loaded = Trace.load(path)
        assert numpy.array_equal(loaded.times, trace.times)
        assert numpy.array_equal(loaded.tenants, trace.tenants)
        assert numpy.array_equal(loaded.functions, trace.functions)
        assert loaded.meta == trace.meta

    def test_load_rejects_unknown_format_version(self, tmp_path):
        import json

        path = tmp_path / "bad.npz"
        empty = numpy.empty(0)
        numpy.savez_compressed(
            path,
            times=empty,
            tenants=empty.astype(numpy.int32),
            functions=empty.astype(numpy.int16),
            meta=numpy.array(json.dumps({"trace_format_version": 999})),
        )
        with pytest.raises(ValueError, match="version"):
            Trace.load(path)


class TestReplayTrace:
    def test_fires_every_arrival_in_order(self):
        trace = generate_trace(small_spec(mean_rps=5.0), seed=6)
        sim = Simulation()
        seen = []
        scheduled = replay_trace(sim, trace, seen.append, chunk_size=37)
        sim.run()
        assert scheduled == len(trace)
        assert seen == list(range(len(trace)))
        assert sim.now == pytest.approx(float(trace.times[-1]))

    def test_chunking_bounds_pending_entries(self):
        trace = generate_trace(small_spec(mean_rps=5.0), seed=6)
        sim = Simulation()
        high_water = 0

        def fire(_index):
            nonlocal high_water
            high_water = max(high_water, len(sim._heap))

        replay_trace(sim, trace, fire, chunk_size=10)
        sim.run()
        # One sorted run + one continuation at a time, never the full trace.
        assert high_water <= 12

    def test_empty_trace(self):
        sim = Simulation()
        assert replay_trace(sim, Trace([], [], []), lambda i: None) == 0
        assert not sim.has_work()

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError):
            replay_trace(Simulation(), Trace([], [], []), lambda i: None,
                         chunk_size=0)


class TestPlatformWithWorkload:
    def _app(self, **kwargs):
        app = taureau.Platform(seed=9, **kwargs)
        handled = []

        @app.function("handler")
        def handler(event, ctx):
            ctx.charge(0.001)
            handled.append((event["tenant"], event["function"]))
            return event

        return app, handled

    def test_spec_generates_and_invokes(self):
        app, handled = self._app()
        trace = app.with_workload(
            small_spec(mean_rps=5.0), function="handler"
        ).workload_trace
        assert app.workload_trace is trace
        app.run()
        assert len(handled) == len(trace)
        assert handled[0] == (int(trace.tenants[0]), int(trace.functions[0]))

    def test_trace_seed_comes_from_platform_seed(self):
        first, __ = self._app()
        second, __ = self._app()
        assert numpy.array_equal(
            first.with_workload(small_spec(), function="handler")
            .workload_trace.times,
            second.with_workload(small_spec(), function="handler")
            .workload_trace.times,
        )

    def test_prebuilt_trace_replayed_as_is(self):
        app, handled = self._app()
        trace = generate_trace(small_spec(mean_rps=2.0), seed=77)
        assert app.with_workload(trace, function="handler").workload_trace is trace
        app.run()
        assert len(handled) == len(trace)

    def test_custom_fire_bypasses_faas(self):
        app, handled = self._app()
        seen = []
        trace = app.with_workload(
            small_spec(mean_rps=2.0), fire=seen.append
        ).workload_trace
        app.run()
        assert seen == list(range(len(trace)))
        assert not handled

    def test_requires_function_or_fire(self):
        app, __ = self._app()
        with pytest.raises(ValueError):
            app.with_workload(small_spec())

    def test_verify_determinism_covers_workload_runs(self):
        app, __ = self._app()

        def scenario(platform):
            @platform.function("h")
            def h(event, ctx):
                ctx.charge(0.001)

            platform.with_workload(small_spec(mean_rps=5.0), function="h")

        assert app.verify_determinism(scenario).ok
