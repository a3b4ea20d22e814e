"""repro.service — production front-ends over the scheduling core.

The paper's algorithm solves one instance; a deployment serves a
*stream* of them.  Two front-ends share one engine room:

* :class:`~repro.service.batch.BatchScheduler` — the one-shot shape:
  fan a batch of requests across forked worker processes, share one
  :class:`~repro.core.probe_cache.ProbeCache`, merge every request's
  trace into a deterministic aggregate report.
* :class:`~repro.service.daemon.SchedulingService` — the always-on
  shape: a long-lived asyncio daemon with priority queues, per-tenant
  admission quotas, request coalescing (identical in-flight requests
  share one pipeline run), and bound-first streaming results (an
  immediate LPT/MULTIFIT answer with its proven ratio, then the PTAS
  refinement on the same handle).  See ``docs/SERVICE.md``.

Both, and CLI ``schedule``, drive the same
:class:`~repro.service.pipeline.ProbePipeline`, so a request produces
bit-identical results whichever front door it entered through
(tested).  :mod:`repro.service.loadgen` is the
open-loop Poisson load harness behind ``python -m repro serve`` and
``benchmarks/test_bench_service.py``.
"""

from importlib import import_module

#: public name -> the submodule defining it.  Imported on first use, so
#: loading one submodule (CLI ``schedule`` needs only the pipeline and
#: the batch request types) does not pull in the daemon's asyncio stack.
_EXPORTS = {
    "BatchScheduler": "batch",
    "BatchRequest": "batch",
    "BatchRequestResult": "batch",
    "BatchReport": "batch",
    "BoundResult": "daemon",
    "Priority": "daemon",
    "SchedulingService": "daemon",
    "ServiceHandle": "daemon",
    "Arrival": "loadgen",
    "LoadProfile": "loadgen",
    "LoadReport": "loadgen",
    "generate_arrivals": "loadgen",
    "run_load": "loadgen",
    "ProbePipeline": "pipeline",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"repro.service.{module}"), name)
