"""The worker runs each point with the cyclic garbage collector paused.

``run_task`` pauses the collector for the length of a point
(``repro.parallel.worker._collector_paused``).  That is only safe while
a point makes no reference cycles: reference counting then frees
everything the point allocated, at the same moment as with the
collector on.  The first test pins that for every corpus point shape,
so a future back-reference (say, engine <-> timing model) fails here
instead of letting memory grow for the length of a long point.  The
rest pin the pause itself.
"""

import gc

import pytest

from repro.parallel import worker
from repro.parallel.taskkey import SweepTask
from repro.parallel.worker import run_task
from tests.test_taskkey_corpus import CORPUS, _tasks

#: every point shape of the payload corpus; ``suite`` repeats the
#: baseline and SSMT shapes over all 20 benchmarks
NO_CYCLE_POINTS = sorted(name for name in CORPUS if name != "suite")


@pytest.fixture
def collector_enabled():
    """Leave the collector enabled after the test, whatever it did."""
    yield
    gc.enable()


@pytest.mark.parametrize("name", NO_CYCLE_POINTS)
def test_point_makes_no_cyclic_garbage(name, collector_enabled):
    for task in _tasks(name):
        gc.collect()
        gc.disable()
        run_task(task)
        assert gc.collect() == 0, (
            f"{name}: the point left cyclic garbage, so pausing the "
            f"collector around it would hold that memory until the "
            f"next collection")


@pytest.fixture
def collection_starts():
    """Generations of the collections that start while ``inside`` is set."""
    starts = []
    inside = [False]

    def hook(phase, info):
        if phase == "start" and inside[0]:
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        yield starts, inside
    finally:
        gc.callbacks.remove(hook)


def _cold_point():
    """The size of a served cold point."""
    return SweepTask(kind="ssmt", benchmark="gcc", instructions=4050)


def _count_collections(starts, inside, run):
    gc.collect()  # start from an empty youngest generation
    starts.clear()
    inside[0] = True
    try:
        run()
    finally:
        inside[0] = False
    return list(starts)


def test_no_collection_starts_inside_run_task(collection_starts):
    starts, inside = collection_starts
    task = _cold_point()
    # The same point unpaused does trigger collections, so the hook sees
    # them and the empty list below is the pause's doing.  The unpaused
    # run also leaves the trace in the store, so the paused run keeps no
    # new objects and resuming the collector starts nothing before
    # ``run_task`` returns.
    assert _count_collections(
        starts, inside, lambda: worker._run_point(task, None))
    assert _count_collections(starts, inside, lambda: run_task(task)) == []
    assert gc.isenabled()


def test_collector_enabled_after_return():
    assert gc.isenabled()
    run_task(SweepTask(kind="baseline", benchmark="gcc", instructions=2000))
    assert gc.isenabled()


def test_collector_enabled_after_raising_point(monkeypatch):
    def broken_trace(name, n):
        raise RuntimeError("trace generation failed")

    monkeypatch.setattr(worker, "benchmark_trace", broken_trace)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="trace generation failed"):
        run_task(SweepTask(kind="ssmt", benchmark="gcc", instructions=2000))
    assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled(collector_enabled):
    gc.disable()
    run_task(SweepTask(kind="baseline", benchmark="gcc", instructions=2000))
    assert not gc.isenabled()
