"""Tests for the fused retire loop and sampled simulation.

The contract under test (``repro.kernel``):

* predecode: the struct-of-arrays columns agree with the per-record
  attribute walk,
* fused == per-record: :class:`BatchedOoOTimingModel` is
  *bit-identical* to the per-record loop of :class:`OoOTimingModel`
  (the oracle), both at the ``TimingResult``/engine-report level and
  at the worker-payload level, for the dynamic engine and for the
  profile-guided engine (which must take the per-record loop because it
  overrides ``on_retire``),
* PRB ``insert_decoded`` == ``insert`` (the decoded-column fast path),
* sampled simulation: marked, key-distinct, within the documented error
  bound, and exact for a degenerate spec.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.unit import BranchPredictorComplex
from repro.core.prb import PostRetirementBuffer
from repro.core.ssmt import SSMTConfig, SSMTEngine, run_ssmt
from repro.core.static import (
    StaticSSMTEngine,
    prebuild_microthreads,
    profile_difficult_paths,
)
from repro.kernel import BatchedOoOTimingModel, SampleSpec, predecode
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
from repro.uarch.timing import OoOTimingModel
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
    result = OoOTimingModel().run(trace, BranchPredictorComplex(),
                                  listener=engine)
    fused = run_ssmt(trace, config, predictor=BranchPredictorComplex())
    return observed(result, engine), observed(*fused)


def static_pair(name, n):
    """(per-record, batched-model) outcomes of the profile-guided
    engine; the microthreads are prebuilt afresh for each run."""
    trace = benchmark_trace(name, n)
    config = SSMTConfig()
    paths = profile_difficult_paths(
        trace, n=config.n, threshold=config.difficulty_threshold)
    out = []
    for model in (OoOTimingModel(), BatchedOoOTimingModel()):
        engine = StaticSSMTEngine(
            prebuild_microthreads(trace, paths, config), config,
            initial_memory=trace.initial_memory)
        result = model.run(trace, BranchPredictorComplex(),
                           listener=engine)
        out.append(observed(result, engine))
    return out


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("name", ["gcc", "go", "mcf_2k"])
    def test_ssmt_identical_timing_and_report(self, name):
        scalar, fused = ssmt_pair(name, 30_000)
        assert fused == scalar

    @pytest.mark.parametrize("name", sorted(BENCHMARK_NAMES))
    def test_static_engine_takes_the_per_record_loop(self, name):
        """``StaticSSMTEngine`` overrides ``on_retire``; the batched
        model must not fuse it away."""
        scalar, batched = static_pair(name, 10_000)
        assert batched == scalar

    def test_baseline_identical(self):
        trace = benchmark_trace("gcc", 20_000)
        scalar = OoOTimingModel().run(trace, BranchPredictorComplex())
        batched = BatchedOoOTimingModel().run(
            trace, BranchPredictorComplex())
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
        result = OoOTimingModel(task.machine).run(
            trace, BranchPredictorComplex(), listener=engine)
        scalar = json.loads(json.dumps(
            {"timing": result.as_dict(), "metrics": engine_metrics(engine)},
            sort_keys=True))
        assert json.dumps(scalar, sort_keys=True) == json.dumps(
            {"timing": fused_payload["timing"],
             "metrics": fused_payload["metrics"]}, sort_keys=True)

    def test_unknown_listener_falls_back_to_scalar(self):
        """A listener outside the fused engine surface still works — the
        batched model must defer to the inherited scalar loop."""

        class CountingListener:
            def __init__(self):
                self.retired = 0

            def on_retire(self, idx, rec, cycle):
                self.retired += 1

        trace = benchmark_trace("gcc", 3000)
        listener = CountingListener()
        scalar = OoOTimingModel().run(trace, BranchPredictorComplex())
        batched = BatchedOoOTimingModel().run(
            trace, BranchPredictorComplex(), listener)
        assert listener.retired == 3000
        assert batched.as_dict() == scalar.as_dict()


class TestInsertDecoded:
    @given(n=st.integers(500, 3000), capacity=st.sampled_from([16, 64, 512]))
    @settings(max_examples=10, deadline=None)
    def test_matches_insert(self, n, capacity):
        trace = benchmark_trace("gcc", n)
        reference = PostRetirementBuffer(capacity)
        decoded = PostRetirementBuffer(capacity)
        for idx, rec in enumerate(trace.records):
            inst = rec.inst
            a = reference.insert(rec, idx)
            srcs = inst.srcs
            b = decoded.insert_decoded(
                rec, idx, False, False,
                inst.dest if inst.dest is not None else -1,
                srcs[0] if srcs else -1,
                srcs[1] if len(srcs) > 1 else -1,
                len(srcs), inst.is_load, inst.is_store,
                rec.ea if rec.ea is not None else 0)
            assert (a.pos, a.src_producers, a.mem_producer) \
                == (b.pos, b.src_producers, b.mem_producer)


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
