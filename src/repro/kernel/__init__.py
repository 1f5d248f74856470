"""The fused retire loop and sampled simulation.

``repro.kernel`` is the structural speed layer over the per-record
simulator:

* :func:`~repro.kernel.columns.predecode` /
  :class:`~repro.kernel.columns.TraceColumns` — struct-of-arrays
  predecode of a trace into plain-list columns,
* :class:`~repro.kernel.batched.BatchedOoOTimingModel` — the timing
  model every run constructs; it runs the fused column-batched timing +
  SSMT retire loop when the listener allows it (none, or exactly an
  :class:`~repro.core.ssmt.SSMTEngine`) and the inherited per-record
  loop otherwise, bit-identical either way,
* :class:`~repro.kernel.sampling.SampleSpec` /
  :func:`~repro.kernel.sampling.run_sampled` — detailed-window sampling
  with functional fast-forward and extrapolated results.
"""

from repro.kernel.batched import BatchedOoOTimingModel
from repro.kernel.columns import TraceColumns, predecode
from repro.kernel.sampling import SampleSpec, run_sampled

__all__ = [
    "BatchedOoOTimingModel",
    "SampleSpec",
    "TraceColumns",
    "predecode",
    "run_sampled",
]
