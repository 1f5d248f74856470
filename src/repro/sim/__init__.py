"""Architectural (functional) simulation.

Executes a :class:`~repro.isa.program.Program` and produces the retirement
instruction stream — the ground truth every other model (branch predictors,
the timing model, the difficult-path profiler and the SSMT machine)
consumes.  This substitutes for the authors' trace generation over Alpha
SPEC binaries.
"""

from repro.sim.trace import DynamicInstruction, Trace
from repro.sim.functional import FunctionalSimulator, SimulationError, run_program

__all__ = [
    "DynamicInstruction",
    "Trace",
    "FunctionalSimulator",
    "SimulationError",
    "run_program",
]
