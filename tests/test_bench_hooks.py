"""The benchmark's hooks into wpl still resolve.

wplbench/spans.py wraps functions by (owner, attribute) and
wplbench/workloads.py empties lru caches between passes; a rename in wpl
would otherwise only show on the next traced benchmark run.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import wpl
from wpl.errors import WplError

BENCH = Path(__file__).resolve().parent.parent / "wplbench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
        import workloads

        yield spans, workloads
    finally:
        sys.path.remove(str(BENCH))


def test_traced_attributes_resolve(bench_modules):
    spans, _ = bench_modules
    for name, owner, attr, _counter in spans.TRACED:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_lru_caches_can_be_cleared(bench_modules):
    _, workloads = bench_modules
    for fn in workloads.LRU_CACHES:
        assert callable(getattr(fn, "cache_clear", None)), f"{fn.__name__} is not lru-cached"


def test_every_lru_cache_is_cleared_between_passes(bench_modules):
    # a cache the benchmark does not empty would let later passes skip work
    # that the first pass did
    _, workloads = bench_modules
    for info in pkgutil.iter_modules(wpl.__path__):
        module = importlib.import_module(f"wpl.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)):
                assert obj in workloads.LRU_CACHES, f"wpl.{info.name}.{name} is not in workloads.LRU_CACHES"


def test_finite_n_and_hard_edge_jobs_run(bench_modules):
    # the jobs call kernel_n_contour, kernel_matrix, k_hard and the CLI: a
    # signature change there would otherwise show only in the benchmark run
    _, workloads = bench_modules
    for job in workloads.finite_n_jobs(1) + workloads.hard_edge_jobs(1):
        try:
            job.run()
        except WplError:
            assert job.known_fault, f"{job.name} raised without a known fault"


def test_finite_n_jobs_build_one_contour_line_per_system(bench_modules, monkeypatch):
    # every finite_n point keeps |ln p| within the first reach bucket, so
    # each system builds that bucket's line and circle alone
    from wpl import finite_kernel as fk

    _, workloads = bench_modules
    systems = []
    init = fk.BiorthSystem.__init__

    def recording_init(self, params):
        init(self, params)
        systems.append(self)

    monkeypatch.setattr(fk.BiorthSystem, "__init__", recording_init)
    fk.biorth_system.cache_clear()
    for job in workloads.finite_n_jobs(1):
        try:
            job.run()
        except WplError:
            assert job.known_fault, f"{job.name} raised without a known fault"
    fk.biorth_system.cache_clear()
    built = [set(system._contours) for system in systems]
    assert all(buckets <= {1} for buckets in built)
    assert sum(map(len, built)) == 10  # the eight kernel sets, the CLI's and the N = 40 fault
