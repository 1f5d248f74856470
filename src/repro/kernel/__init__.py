"""The timing model and its fused retire loop.

``repro.kernel`` is where every timing run executes:

* :func:`~repro.kernel.columns.predecode` /
  :class:`~repro.kernel.columns.TraceColumns` — struct-of-arrays
  predecode of a trace into plain-list columns,
* :class:`~repro.kernel.batched.OoOTimingModel` — the timing model,
  whose one fused column loop times the baseline machine and every
  :class:`~repro.core.ssmt.SSMTEngine` (dynamic, profile-guided,
  potential), over the whole trace or in spans.
"""

from repro.kernel.batched import OoOTimingModel
from repro.kernel.columns import TraceColumns, predecode

__all__ = [
    "OoOTimingModel",
    "TraceColumns",
    "predecode",
]
