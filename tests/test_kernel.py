"""Tests for the fused retire loop and sampled simulation.

The contract under test (``repro.kernel``):

* predecode: the struct-of-arrays columns agree with the per-record
  attribute walk,
* fused == per-record: :class:`OoOTimingModel` is *bit-identical* to
  the frozen per-record loop of :class:`ReferenceTimingModel` (the
  oracle), both at the ``TimingResult``/engine-report level and at the
  worker-payload level,
* the fused loop's inlined PRB insert leaves the same buffer as
  ``PostRetirementBuffer.insert`` does under the per-record loop,
* sampled simulation: marked, key-distinct, within the documented error
  bound, and exact for a degenerate spec.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.unit import BranchPredictorComplex
from repro.core.ssmt import SSMTConfig, SSMTEngine, run_ssmt
from repro.kernel import OoOTimingModel, SampleSpec, predecode
from repro.kernel.columns import (
    HAS_DEST,
    HAS_EA,
    IS_COND,
    IS_CONTROL,
    IS_LOAD,
    IS_STORE,
    IS_TAKEN,
    IS_TERM,
)
from repro.parallel.taskkey import SweepTask
from repro.parallel.worker import engine_metrics, run_task
from repro.perf.reference import ReferenceTimingModel
from repro.workloads import BENCHMARK_NAMES, benchmark_trace


class TestPredecode:
    def test_columns_match_records(self):
        trace = benchmark_trace("gcc", 4000)
        columns = predecode(trace)
        assert columns.n == len(trace.records)
        (flags, pcs, ops, dests, src1s, src2s, nsrcs, imms, eas,
         results, next_pcs) = columns.lists()
        for idx, rec in enumerate(trace.records):
            inst = rec.inst
            f = flags[idx]
            assert pcs[idx] == rec.pc
            assert bool(f & IS_CONTROL) == inst.is_control
            assert bool(f & IS_COND) == inst.is_conditional_branch
            assert bool(f & IS_TERM) == inst.is_path_terminating
            assert bool(f & IS_LOAD) == inst.is_load
            assert bool(f & IS_STORE) == inst.is_store
            assert bool(f & IS_TAKEN) == bool(rec.taken)
            assert bool(f & HAS_DEST) == (inst.dest is not None)
            assert bool(f & HAS_EA) == (rec.ea is not None)
            if inst.dest is not None:
                assert dests[idx] == inst.dest
            else:
                assert dests[idx] == -1
            assert nsrcs[idx] == len(inst.srcs)
            if inst.srcs:
                assert src1s[idx] == inst.srcs[0]
            if len(inst.srcs) > 1:
                assert src2s[idx] == inst.srcs[1]
            if rec.ea is not None:
                assert eas[idx] == rec.ea
            assert results[idx] == (rec.result or 0)
            assert next_pcs[idx] == rec.next_pc

    def test_predecode_is_memoized(self):
        trace = benchmark_trace("gcc", 500)
        first = predecode(trace)
        assert predecode(trace) is first


def observed(result, engine):
    """The comparable outcome of one run: timing + engine report."""
    return (result.as_dict(),
            json.loads(json.dumps(engine.report(), default=repr,
                                  sort_keys=True)))


def ssmt_pair(name, n, config=None):
    """(per-record, fused) outcomes of the dynamic engine."""
    trace = benchmark_trace(name, n)
    engine = SSMTEngine(config, initial_memory=trace.initial_memory)
    result = ReferenceTimingModel().run(trace, BranchPredictorComplex(),
                                        engine)
    fused = run_ssmt(trace, config, predictor=BranchPredictorComplex())
    return observed(result, engine), observed(*fused)


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("name", ["gcc", "go", "mcf_2k"])
    def test_ssmt_identical_timing_and_report(self, name):
        scalar, fused = ssmt_pair(name, 30_000)
        assert fused == scalar

    def test_baseline_identical(self):
        trace = benchmark_trace("gcc", 20_000)
        scalar = ReferenceTimingModel().run(trace, BranchPredictorComplex())
        batched = OoOTimingModel().run(trace, BranchPredictorComplex())
        assert batched.as_dict() == scalar.as_dict()

    @given(name=st.sampled_from(sorted(BENCHMARK_NAMES)),
           n=st.integers(2_000, 8_000),
           path_n=st.integers(4, 12))
    @settings(max_examples=8, deadline=None)
    def test_property_batched_equals_scalar(self, name, n, path_n):
        scalar, fused = ssmt_pair(name, n, SSMTConfig(n=path_n))
        assert fused == scalar

    def test_payload_identity_gcc_50k(self):
        """The acceptance bar: the worker payload (the cached artifact)
        of the fused loop is byte-identical to a payload assembled from
        a per-record run on the gcc/50k reference."""
        task = SweepTask(kind="ssmt", benchmark="gcc", instructions=50_000)
        fused_payload = run_task(task)
        trace = benchmark_trace("gcc", 50_000)
        engine = SSMTEngine(task.config, initial_memory=trace.initial_memory)
        result = ReferenceTimingModel(task.machine).run(
            trace, BranchPredictorComplex(), engine)
        scalar = json.loads(json.dumps(
            {"timing": result.as_dict(), "metrics": engine_metrics(engine)},
            sort_keys=True))
        assert json.dumps(scalar, sort_keys=True) == json.dumps(
            {"timing": fused_payload["timing"],
             "metrics": fused_payload["metrics"]}, sort_keys=True)


class _LoggingRing(list):
    """A PRB ring that also keeps every entry ever written to it."""

    def __init__(self, capacity):
        super().__init__([None] * capacity)
        self.written = []

    def __setitem__(self, index, entry):
        self.written.append(entry)
        super().__setitem__(index, entry)


class TestInlinedPRB:
    @given(name=st.sampled_from(["gcc", "mcf_2k", "vortex"]),
           n=st.integers(500, 3000), capacity=st.sampled_from([16, 64, 512]))
    @settings(max_examples=10, deadline=None)
    def test_matches_insert(self, name, n, capacity):
        """Every entry the fused loop writes equals the one
        ``PostRetirementBuffer.insert`` writes under the per-record loop."""
        trace = benchmark_trace(name, n)
        config = SSMTConfig(prb_capacity=capacity)
        written = []
        for model in (ReferenceTimingModel(), OoOTimingModel()):
            engine = SSMTEngine(config, initial_memory=trace.initial_memory)
            engine.prb._ring = _LoggingRing(capacity)
            model.run(trace, BranchPredictorComplex(), engine)
            written.append([(e.rec, e.idx, e.pos, e.src_producers,
                             e.mem_producer, e.value_confident,
                             e.address_confident)
                            for e in engine.prb._ring.written])
        reference, fused = written
        assert len(reference) == n
        assert fused == reference


class TestSampled:
    def test_marked_and_key_distinct(self):
        exact = SweepTask(kind="ssmt", benchmark="gcc", instructions=20_000)
        sampled = SweepTask(kind="ssmt", benchmark="gcc",
                            instructions=20_000,
                            sample=SampleSpec(interval=5_000))
        assert sampled.key != exact.key
        payload = run_task(sampled)
        assert payload["sampled"] is True
        assert payload["sample"]["interval"] == 5_000
        assert payload["sample"]["windows"] >= 1
        assert 0 < payload["sample"]["measured_fraction"] < 1
        assert "sampled" not in run_task(exact)

    def test_degenerate_spec_is_exact(self):
        """A window covering the whole trace reproduces the exact run."""
        trace = benchmark_trace("gcc", 10_000)
        exact, _ = run_ssmt(trace, predictor=BranchPredictorComplex())
        spec = SampleSpec(interval=10_000, warmup=0, measure=10_000)
        sampled, _ = run_ssmt(trace, predictor=BranchPredictorComplex(),
                              sample=spec)
        exact_dict, sampled_dict = exact.as_dict(), sampled.as_dict()
        assert sampled.sample["scale"] == 1.0
        assert sampled_dict == exact_dict

    @pytest.mark.parametrize("name", ["gcc", "mcf_2k"])
    def test_mispredict_rate_within_error_bound(self, name):
        """docs/performance.md documents <= 20% relative error on the
        suite at interval=10k/warmup=2k; hold a looser 25% here so the
        gate does not flake on workload updates."""
        trace = benchmark_trace(name, 50_000)
        exact, _ = run_ssmt(trace, predictor=BranchPredictorComplex())
        sampled, _ = run_ssmt(trace, predictor=BranchPredictorComplex(),
                              sample=SampleSpec(interval=10_000))
        exact_rate = exact.mispredict_rate()
        sampled_rate = sampled.mispredict_rate()
        assert exact_rate > 0
        assert abs(sampled_rate - exact_rate) / exact_rate <= 0.25

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(interval=0)
        with pytest.raises(ValueError):
            SampleSpec(interval=100, warmup=90, measure=20)
        with pytest.raises(ValueError):
            SampleSpec(interval=100, warmup=-1)
        spec = SampleSpec(interval=1000, warmup=0)
        assert spec.measure == 100  # interval // 10

    def test_sample_only_on_baseline_and_ssmt(self):
        spec = SampleSpec(interval=10_000, warmup=100)
        with pytest.raises(ValueError):
            SweepTask(kind="oracle", benchmark="gcc", instructions=20_000,
                      sample=spec)
        with pytest.raises(ValueError):
            SweepTask(kind="ssmt", benchmark="gcc", instructions=20_000,
                      sample={"interval": 10_000})
