"""The per-process benchmark trace store behind ``benchmark_trace``.

Whatever order lengths are asked for in, every trace it serves must
equal a fresh ``run_program`` of the same length: record for record,
in ``halted``, in the data-segment image and in its predecoded columns.
"""

import gc
import random

import pytest

from repro.isa.assembler import assemble
from repro.kernel.columns import predecode
from repro.sim.functional import run_program
from repro.workloads import (
    BENCHMARK_NAMES,
    benchmark_trace,
    build_benchmark,
    clear_trace_cache,
)
from repro.workloads import suite

SLOTS = ("seq", "pc", "inst", "src1_val", "src2_val", "result", "ea",
         "taken", "next_pc")

#: lengths asked of every benchmark: rising, falling, repeated, and
#: exactly the longest generated so far (shuffled per benchmark below,
#: with that last request kept last)
LENGTHS = (1, 900, 2500, 1800, 2500, 600, 3200)

#: a loop that retires 3 + 4 * 6 + 2 = 29 instructions, ending in HALT
HALTS_EARLY = """
.data vals 4 11 22 33 44
    li r1, 0
    li r2, 6
    li r5, &vals
loop:
    ld r3, 0(r5)
    st r3, 1(r5)
    addi r1, r1, 1
    blt r1, r2, loop
    li r4, 7
    halt
"""
HALT_AT = 29


@pytest.fixture(autouse=True)
def fresh_store():
    clear_trace_cache()
    yield
    clear_trace_cache()


def assert_same_trace(trace, reference):
    assert len(trace) == len(reference)
    for got, want in zip(trace.records, reference.records):
        for slot in SLOTS:
            assert getattr(got, slot) == getattr(want, slot), (
                f"#{want.seq} {slot}: {getattr(got, slot)!r} != "
                f"{getattr(want, slot)!r}")
        assert got.inst is want.inst
    assert trace.halted == reference.halted
    assert trace.initial_memory == reference.initial_memory
    assert predecode(trace).lists() == predecode(reference).lists()
    assert predecode(trace).records is trace.records


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_prefix_views_equal_fresh_runs(name):
    rng = random.Random(name)
    order = list(LENGTHS)
    rng.shuffle(order)
    order.append(max(order))
    program = build_benchmark(name)
    for n in order:
        assert_same_trace(benchmark_trace(name, n),
                          run_program(program, max_instructions=n))


@pytest.mark.parametrize("order", [
    (10, HALT_AT, HALT_AT + 50),
    (HALT_AT + 50, 10, HALT_AT),
    (HALT_AT, 10, HALT_AT - 1, HALT_AT + 1),
])
def test_program_halting_before_the_budget(monkeypatch, order):
    program = assemble(HALTS_EARLY)
    monkeypatch.setitem(suite._PROGRAM_CACHE, "halts_early", program)
    for n in order:
        trace = benchmark_trace("halts_early", n)
        reference = run_program(program, max_instructions=n)
        assert_same_trace(trace, reference)
        assert trace.halted == (n >= HALT_AT)
        assert len(trace) == min(n, HALT_AT)


def test_repeated_request_returns_the_same_trace():
    first = benchmark_trace("comp", 1500)
    assert benchmark_trace("comp", 1500) is first
    assert predecode(benchmark_trace("comp", 1500)) is predecode(first)


def test_small_grid_tasks_share_one_trace_per_point():
    # A sweep runs benchmarks in its inner loop: with up to three
    # benchmarks every task of a point gets the same trace object.
    names = ("comp", "gcc", "go")
    first = {name: benchmark_trace(name, 1500) for name in names}
    for _ in range(2):
        for name in names:
            assert benchmark_trace(name, 1500) is first[name]


def test_first_request_decodes_nothing(monkeypatch):
    # A benchmark started from instruction 0 is served the simulator's
    # own trace, neither packed nor predecoded; only later prefixes are
    # rebuilt from the packed columns.
    def refuse(*args, **kwargs):
        raise AssertionError("packed or decoded a trace just simulated")

    monkeypatch.setattr(suite.PackedColumns, "append", refuse)
    monkeypatch.setattr(suite.PackedColumns, "trace", refuse)
    trace = benchmark_trace("mcf_2k", 1500)
    assert getattr(trace, "_kernel_columns", None) is None
    assert_same_trace(trace, run_program(build_benchmark("mcf_2k"), 1500))


def test_first_trace_is_packed_once_no_longer_kept():
    # Until then the store holds it only as the served trace itself;
    # afterwards only its packed columns stay resident.
    first = benchmark_trace("comp", 1500)
    entry = suite._STORE._entries["comp"]
    assert entry.unpacked is first and entry.packed.n == 0
    for name in ("gcc", "go", "li"):
        benchmark_trace(name, 1000)
    assert entry.unpacked is None and entry.packed.n == 1500
    assert_same_trace(benchmark_trace("comp", 1500),
                      run_program(build_benchmark("comp"), 1500))


def test_clear_resets_the_store():
    before = benchmark_trace("gcc", 1200)
    clear_trace_cache()
    after = benchmark_trace("gcc", 1200)
    assert after is not before
    assert_same_trace(after, run_program(build_benchmark("gcc"), 1200))


def test_resident_instructions_stay_within_the_budget(monkeypatch):
    store = suite.TraceStore(budget=5000)
    monkeypatch.setattr(suite, "_STORE", store)
    for name, n in [("comp", 2000), ("gcc", 2000), ("go", 2000),
                    ("comp", 1000), ("li", 3000), ("gcc", 6000),
                    ("perl", 2500), ("perl", 4000)]:
        trace = benchmark_trace(name, n)
        assert store.resident() <= store.budget
        assert len(trace) == n
    # ``perl`` is the only benchmark left; the oversized ``gcc`` request
    # was served without being kept
    assert list(store._entries) == ["perl"]
    assert_same_trace(benchmark_trace("gcc", 6000),
                      run_program(build_benchmark("gcc"), 6000))
    assert store.resident() == 4000


def test_resident_columns_are_not_gc_tracked():
    # Typed arrays are not GC containers: a store of lists or records
    # would add every resident instruction to each full collection.
    for name in ("comp", "mcf_2k"):
        benchmark_trace(name, 1500)
        benchmark_trace(name, 1000)
    entries = list(suite._STORE._entries.values())
    assert len(entries) == 2
    for entry in entries:
        assert entry.unpacked is None
        assert entry.packed.n == 1500
        assert len(entry.packed.columns) == 13
        for column in entry.packed.columns:
            assert gc.is_tracked(column) is False
