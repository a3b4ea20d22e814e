"""The request paths' contract: certify at the lower bound, serve the best.

:func:`repro.service.pipeline.schedule_request` answers every
``BatchScheduler``, daemon and CLI ``schedule`` request.  It probes the
lower bound ``LB`` first and stops there when the probe accepts;
otherwise the configured search runs unchanged behind the rejected
probe.  The served schedule is the better of the PTAS schedule and the
model's baseline (polished on identical machines), so it is feasible,
within the PTAS guarantee, and never worse than either.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.baselines import best_baseline
from repro.core.bounds import makespan_bounds
from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import Instance
from repro.core.ptas import ptas_schedule
from repro.errors import InvalidInstanceError
from repro.models import verify_schedule
from repro.observability import Tracer
from repro.service import BatchScheduler
from repro.service.pipeline import schedule_request

MODELS = ("identical", "unrelated-few-types", "time-restricted")


def make_instance(model, times, machines, tight=True):
    """``times`` on ``machines`` under ``model``.

    Few-types fleets split into speeds 1 and 2; time-restricted caps sit
    at ``ceil(n/m)`` (``tight``) or one above, where LB often rejects.
    """
    n = len(times)
    if model == "unrelated-few-types":
        slow = max(1, machines // 2)
        return Instance(
            times=times,
            machines=machines,
            model=model,
            type_speeds=(1, 2),
            machines_per_type=(slow, machines - slow),
        )
    if model == "time-restricted":
        cap = -(-n // machines) + (0 if tight else 1)
        return Instance(times=times, machines=machines, model=model, max_jobs_per_machine=cap)
    return Instance(times=times, machines=machines)


@st.composite
def requests(draw, models=MODELS):
    model = draw(st.sampled_from(models))
    machines = draw(st.integers(2, 4))
    times = tuple(draw(st.lists(st.integers(1, 40), min_size=machines, max_size=14)))
    tight = draw(st.booleans())
    eps = draw(st.sampled_from((0.2, 0.3, 0.5)))
    search = draw(st.sampled_from(("bisection", "quarter")))
    return make_instance(model, times, machines, tight), eps, search


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=120)
@given(request=requests())
def test_certified_request_contract(request):
    instance, eps, search = request
    tracer = Tracer()
    result = schedule_request(instance, eps, dp_vectorized, search, trace=tracer)
    lower = makespan_bounds(instance).lower
    first = result.probes[0]
    assert first.target == lower
    assert len(tracer.probes) == len(result.probes)

    if first.accepted:
        assert len(result.probes) == 1 and result.iterations == 1
        assert result.final_target == lower
        assert result.makespan <= (1 + eps) * lower + 1e-9
    else:
        plain = ptas_schedule(instance, eps=eps, search=search)
        assert [p.target for p in result.probes[1:]] == [p.target for p in plain.probes]
        assert result.final_target == plain.final_target
        assert result.iterations == plain.iterations + 1

    verify_schedule(result.schedule)
    assert result.schedule.instance == instance
    searched = min(p.schedule.makespan for p in result.probes if p.accepted)
    assert result.makespan <= min(searched, best_baseline(instance)[0].makespan)
    assert result.makespan <= result.guarantee_bound() + 1e-9


class TestBothBranchesRun:
    """Seeded cases that pin each branch, whatever hypothesis draws."""

    def test_lb_accepts(self):
        inst = Instance(times=(9, 8, 7, 6, 5, 4, 3, 2), machines=2)
        result = schedule_request(inst, 0.3, dp_vectorized, "quarter")
        assert len(result.probes) == 1
        assert result.final_target == makespan_bounds(inst).lower == 22

    def test_lb_rejects_on_a_tight_job_cap(self):
        # Two jobs per machine: the best pairing is 20+2 | 11+4, so
        # OPT = 22 > LB = 20.
        inst = make_instance("time-restricted", (20, 11, 4, 2), 2)
        assert inst.max_jobs_per_machine == 2
        assert makespan_bounds(inst).lower == 20
        result = schedule_request(inst, 0.2, dp_vectorized, "bisection")
        assert not result.probes[0].accepted
        assert result.probes[0].target == makespan_bounds(inst).lower
        plain = ptas_schedule(inst, eps=0.2, search="bisection")
        assert [p.target for p in result.probes[1:]] == [p.target for p in plain.probes]

    def test_unknown_search_raises_before_probing(self):
        inst = Instance(times=(3, 2, 1), machines=2)
        with pytest.raises(InvalidInstanceError, match="unknown search"):
            schedule_request(inst, 0.3, dp_vectorized, "ternary")


_MAKESPAN = re.compile(r"makespan (\d+) \(proven <= ")


@pytest.mark.parametrize("model", MODELS)
def test_cli_matches_batch_scheduler(model, capsys):
    times = (31, 27, 24, 22, 19, 17, 15, 12, 11, 9, 7, 5)
    instance = make_instance(model, times, 4)
    args = ["schedule", "--times", *map(str, times), "--machines", "4",
            "--eps", "0.3", "--search", "bisection", "--model", model]
    if model == "unrelated-few-types":
        args += ["--type-speeds", "1", "2", "--machines-per-type", "2", "2"]
    if model == "time-restricted":
        args += ["--max-jobs-per-machine", str(instance.max_jobs_per_machine)]
    assert main(args) == 0
    printed = int(_MAKESPAN.search(capsys.readouterr().out).group(1))
    report = BatchScheduler(workers=1, eps=0.3, search="bisection").run([instance])
    assert printed == report.results[0].makespan
