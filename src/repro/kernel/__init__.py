"""The timing model, its fused retire loop and sampled simulation.

``repro.kernel`` is where every timing run executes:

* :func:`~repro.kernel.columns.predecode` /
  :class:`~repro.kernel.columns.TraceColumns` — struct-of-arrays
  predecode of a trace into plain-list columns,
* :class:`~repro.kernel.batched.OoOTimingModel` — the timing model,
  whose one fused column loop times the baseline machine and every
  :class:`~repro.core.ssmt.SSMTEngine` (dynamic, profile-guided,
  potential), over the whole trace or in spans,
* :class:`~repro.kernel.sampling.SampleSpec` /
  :func:`~repro.kernel.sampling.run_sampled` — detailed-window sampling
  with functional fast-forward and extrapolated results.
"""

from repro.kernel.batched import OoOTimingModel
from repro.kernel.columns import TraceColumns, predecode
from repro.kernel.sampling import SampleSpec, run_sampled

__all__ = [
    "OoOTimingModel",
    "SampleSpec",
    "TraceColumns",
    "predecode",
    "run_sampled",
]
