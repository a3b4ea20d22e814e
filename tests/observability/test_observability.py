"""Tests for the observability layer: timers, tracer, sinks, rendering."""

import json
import pickle

import pytest

from repro.core.instance import uniform_instance
from repro.core.ptas import ptas_schedule
from repro.observability import (
    NullSink,
    PhaseTimer,
    ProbeTrace,
    TraceRecorder,
    Tracer,
    as_tracer,
    current_tracer,
    events_to_json,
    render_profile,
)
from repro.observability import context as obs


def _probe(target=10, accepted=True) -> ProbeTrace:
    return ProbeTrace(
        target=target,
        accepted=accepted,
        machines_needed=3,
        k=4,
        dims=2,
        n_long=5,
        table_size=12,
        num_configs=7,
        phase_seconds={"dp": 0.25, "rounding": 0.75},
        cache_events={"dp": "hit"},
    )


class TestPhaseTimer:
    def test_accumulates_reentries(self):
        timer = PhaseTimer()
        for _ in range(3):
            with timer.phase("work"):
                pass
        assert timer.entries["work"] == 3
        assert timer.seconds["work"] >= 0.0

    def test_total_sums_phases(self):
        timer = PhaseTimer()
        timer.add("a", 1.0)
        timer.add("b", 0.5)
        assert timer.total == pytest.approx(1.5)

    def test_merge(self):
        a, b = PhaseTimer(), PhaseTimer()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.seconds == {"x": 3.0, "y": 3.0}
        assert a.entries["x"] == 2

    def test_accumulates_on_exception(self):
        timer = PhaseTimer()
        with pytest.raises(ValueError):
            with timer.phase("boom"):
                raise ValueError()
        assert timer.entries["boom"] == 1


class TestProbeTrace:
    def test_seconds_sums_phases(self):
        assert _probe().seconds == pytest.approx(1.0)

    def test_to_dict_round_trips_through_json(self):
        payload = json.loads(events_to_json([_probe()]))
        assert payload[0]["target"] == 10
        assert payload[0]["phase_seconds"]["dp"] == 0.25
        assert payload[0]["cache_events"] == {"dp": "hit"}


class TestSinks:
    def test_recorder_keeps_order_and_filters(self):
        rec = TraceRecorder()
        rec.record(_probe(target=5, accepted=False))
        rec.record(_probe(target=7, accepted=True))
        assert len(rec) == 2
        assert [e.target for e in rec.events] == [5, 7]
        assert [e.target for e in rec.accepted] == [7]
        assert rec.cache_hits == 2

    def test_null_sink_discards(self):
        sink = NullSink()
        sink.record(_probe())  # must not raise, must not retain


class TestTracer:
    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.count("x")
        tracer.count("x", 4)
        assert tracer.counters["x"] == 5

    def test_ambient_activation_is_scoped(self):
        tracer = Tracer()
        assert current_tracer() is None
        with tracer.activate():
            assert current_tracer() is tracer
            obs.count("inside")
        assert current_tracer() is None
        obs.count("outside")  # no-op, no tracer active
        assert tracer.counters == {"inside": 1}

    def test_nested_activation_restores_outer(self):
        outer, inner = Tracer(), Tracer()
        with outer.activate():
            with inner.activate():
                obs.count("deep")
            assert current_tracer() is outer
        assert inner.counters == {"deep": 1}
        assert "deep" not in outer.counters

    def test_probe_events_forward_to_sink(self):
        rec = TraceRecorder()
        tracer = Tracer(sink=rec)
        tracer.record_probe(_probe())
        assert len(rec.events) == 1
        assert tracer.probes == rec.events

    def test_report_is_json_serializable(self):
        tracer = Tracer()
        tracer.count("n", 2)
        tracer.timer.add("p", 0.1)
        tracer.record_probe(_probe())
        report = json.loads(json.dumps(tracer.report()))
        assert report["counters"]["n"] == 2
        assert report["phases"]["p"] == 0.1
        assert len(report["probes"]) == 1

    def test_pickle_round_trip_keeps_tallies_and_a_working_lock(self):
        # Forked batch workers send their request's tracer home.
        tracer = Tracer()
        tracer.count("n", 3)
        tracer.timer.add("p", 0.25)
        tracer.record_probe(_probe())
        copy = pickle.loads(pickle.dumps(tracer))
        assert copy.report() == tracer.report()
        assert copy.timer.entries == tracer.timer.entries
        copy.count("n")
        copy.timer.add("p", 0.25)
        assert copy.counters["n"] == 4 and copy.timer.seconds["p"] == 0.5
        assert tracer.counters["n"] == 3  # the copy shares no state


class TestAsTracer:
    def test_none_passthrough(self):
        assert as_tracer(None) is None

    def test_tracer_passthrough(self):
        tracer = Tracer()
        assert as_tracer(tracer) is tracer

    def test_sink_is_wrapped(self):
        rec = TraceRecorder()
        tracer = as_tracer(rec)
        assert isinstance(tracer, Tracer)
        assert tracer.sink is rec

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            as_tracer(42)


class TestPtasIntegration:
    @pytest.mark.parametrize("search", ["bisection", "quarter"])
    def test_sink_records_one_event_per_probe(self, search):
        inst = uniform_instance(20, 4, low=5, high=60, seed=11)
        rec = TraceRecorder()
        result = ptas_schedule(inst, eps=0.3, search=search, trace=rec)
        assert len(rec.events) == len(result.probes)
        assert [e.target for e in rec.events] == [p.target for p in result.probes]
        assert [e.accepted for e in rec.events] == [p.accepted for p in result.probes]

    def test_tracer_phases_and_counters_populated(self):
        inst = uniform_instance(20, 4, low=5, high=60, seed=11)
        tracer = Tracer()
        result = ptas_schedule(inst, eps=0.3, search="bisection", trace=tracer)
        assert tracer.counters["probe.count"] == len(result.probes)
        assert tracer.counters["search.iterations"] == result.iterations
        assert "probe.dp" in tracer.timer.seconds
        assert "probe.rounding" in tracer.timer.seconds

    def test_tracing_does_not_change_results(self):
        inst = uniform_instance(25, 5, low=3, high=80, seed=23)
        plain = ptas_schedule(inst, eps=0.3, search="quarter")
        traced = ptas_schedule(inst, eps=0.3, search="quarter", trace=Tracer())
        assert traced.final_target == plain.final_target
        assert traced.makespan == plain.makespan
        assert traced.schedule.assignment == plain.schedule.assignment


class TestRenderProfile:
    def test_renders_phases_counters_probes(self):
        tracer = Tracer()
        tracer.count("configs.enumerations", 3)
        tracer.timer.add("probe.dp", 0.5)
        tracer.record_probe(_probe())
        text = render_profile(tracer, title="unit")
        assert "== unit ==" in text
        assert "probe.dp" in text
        assert "configs.enumerations" in text
        assert "dp:hit" in text

    def test_empty_tracer_renders_header_only(self):
        assert render_profile(Tracer()) == "== profile =="
