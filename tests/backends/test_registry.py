"""Tests for the backend registry (``repro.backends``)."""

import pytest

from repro.backends import (
    BackendSpec,
    backend_names,
    get_spec,
    is_registered,
    iter_backends,
    resolve,
)
from repro.core.dp_vectorized import dp_vectorized
from repro.errors import BackendError, ReproError

#: process-pool backend names that must not resolve: every fill is in-process.
REMOVED_PROCESS_POOL_BACKENDS = ("hostpar", "hostpar-2", "wavefront", "wavefront-3")


class TestListing:
    def test_default_names_present(self):
        names = backend_names()
        for expected in (
            "vectorized",
            "frontier",
            "reference",
            "serial",
            "omp-16",
            "omp-28",
            "gpu-naive",
            "gpu-dim3",
            "gpu-dim6",
            "gpu-dim9",
            "hybrid",
        ):
            assert expected in names

    def test_names_unique_and_stable(self):
        names = backend_names()
        assert len(names) == len(set(names))
        # Curated registration order: pure solvers first, then the
        # simulated engines — and stable across calls.
        assert names == backend_names()
        assert names.index("vectorized") < names.index("serial")

    def test_simulated_filter_partitions_registry(self):
        simulated = set(backend_names(simulated=True))
        pure = set(backend_names(simulated=False))
        assert simulated.isdisjoint(pure)
        assert simulated | pure == set(backend_names())
        assert "vectorized" in pure and "gpu-dim6" in simulated

    def test_iter_backends_yields_specs(self):
        specs = list(iter_backends())
        assert all(isinstance(s, BackendSpec) for s in specs)
        assert [s.name for s in specs] == backend_names()

    def test_family_resolution_does_not_grow_listing(self):
        before = backend_names()
        get_spec("omp-40")
        get_spec("gpu-dim5")
        assert backend_names() == before


class TestResolve:
    def test_pure_solver_resolves_to_the_function(self):
        assert resolve("vectorized") is dp_vectorized

    def test_engines_resolve_to_fresh_instances(self):
        a = resolve("omp-28")
        b = resolve("omp-28")
        assert a is not b
        assert a.runs == [] and b.runs == []

    def test_aliases(self):
        assert get_spec("openmp-28").name == "omp-28"
        assert get_spec("dp-vectorized").name == "vectorized"
        assert resolve("openmp-16").threads == 16

    def test_family_omp(self):
        engine = resolve("omp-40")
        assert engine.threads == 40
        assert get_spec("omp-40").simulated

    def test_family_gpu_dim(self):
        engine = resolve("gpu-dim5", check_memory=False)
        assert engine.dim == 5
        assert get_spec("gpu-dim5").concurrency == "device-streams"

    def test_family_hybrid(self):
        spec = get_spec("hybrid-omp16-dim3")
        assert spec.simulated and spec.concurrency == "host-threads"

    def test_resolve_forwards_kwargs(self):
        engine = resolve("gpu-dim6", num_streams=8)
        assert engine.num_streams == 8

    def test_is_registered(self):
        assert is_registered("gpu-dim6")
        assert is_registered("openmp-28")  # alias
        assert not is_registered("tpu-v5")
        for name in REMOVED_PROCESS_POOL_BACKENDS:
            assert not is_registered(name), name


class TestErrors:
    def test_unknown_name_raises_backend_error(self):
        with pytest.raises(BackendError) as exc_info:
            get_spec("tpu-v5")
        message = str(exc_info.value)
        assert "tpu-v5" in message
        # The error must list the valid names so the CLI message is
        # self-explanatory.
        assert "vectorized" in message and "gpu-dim6" in message
        for name in REMOVED_PROCESS_POOL_BACKENDS:
            with pytest.raises(BackendError, match=name):
                resolve(name)

    def test_backend_error_is_repro_and_lookup_error(self):
        with pytest.raises(ReproError):
            resolve("nope")
        with pytest.raises(LookupError):
            resolve("nope")

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ReproError):
            BackendSpec(
                name="bad",
                factory=lambda: None,
                simulated=True,
                concurrency="quantum",
                description="",
            )
