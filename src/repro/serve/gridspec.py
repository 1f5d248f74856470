"""Declarative sweep-grid requests and their canonical form.

The service accepts grids as plain JSON (the ``POST /v1/sweeps`` body)
rather than CLI flags, so remote submission is *declarative*: everything
that determines the simulation outcome is data, validated up front, and
the normalised spec — not the raw request — is what gets journaled,
hashed into the job id, and expanded into :class:`~repro.parallel.
SweepTask` points.  Expansion goes through the same
:func:`~repro.parallel.sweep.build_grid` the ``repro sweep`` CLI uses,
which is what makes served results byte-identical to local sweeps for
the same grid (outside the merged artifact's ``context`` section).

A request::

    {
      "benchmarks": ["comp", "gcc"],      # default: the full suite
      "instructions": 20000,
      "knob": "n", "values": [4, 10],     # optional SSMTConfig sweep
      "widths": [8, 16],                  # optional machine widths
      "predictor": "tage",                # optional zoo baseline
      "kernel": "batched"                 # accepted, ignored
    }

``kernel`` (``"scalar"`` or ``"batched"``) is still validated because
existing clients send it, but it selects nothing — every run takes the
fused retire loop — so it is left out of the canonical spec and grids
that differ only in it share one job id.

Validation failures raise :class:`GridSpecError` carrying the offending
field, which the HTTP layer renders as a structured 400 — before the
request touches the job queue.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.parallel.sweep import build_grid, parse_knob_value
from repro.parallel.taskkey import SweepTask, canonical_json
from repro.workloads import BENCHMARK_NAMES

#: Request keys the service understands; anything else is a typo we
#: reject rather than silently ignore (a misspelled knob would otherwise
#: simulate the wrong grid).
KNOWN_KEYS = ("benchmarks", "instructions", "knob", "values", "widths",
              "predictor", "kernel")

#: Default dynamic-instruction budget per point when a request omits it.
DEFAULT_INSTRUCTIONS = 20_000


class GridSpecError(ValueError):
    """A submit payload failed validation; ``field`` names the culprit."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
        self.message = message

    def as_dict(self) -> Dict[str, Any]:
        return {"code": "invalid_request", "field": self.field,
                "message": self.message}


def _require_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GridSpecError(field, f"{field} must be an integer, got "
                                   f"{type(value).__name__}")
    if value < 1:
        raise GridSpecError(field, f"{field} must be >= 1, got {value}")
    return value


def normalise_spec(payload: Any,
                   max_instructions: Optional[int] = None) -> Dict[str, Any]:
    """Validate a submit payload into the canonical grid spec.

    The canonical spec is a plain-JSON dict with every field present
    (defaults filled in), suitable for journaling and for hashing into
    the job id.  Two requests that mean the same grid normalise to the
    same spec — and therefore to the same job.
    """
    if not isinstance(payload, dict):
        raise GridSpecError("", f"request body must be a JSON object, got "
                                f"{type(payload).__name__}")
    for key in payload:
        if key not in KNOWN_KEYS:
            raise GridSpecError(key, f"unknown field {key!r} (known: "
                                     f"{', '.join(KNOWN_KEYS)})")

    benchmarks = payload.get("benchmarks")
    if benchmarks is None:
        benchmarks = list(BENCHMARK_NAMES)
    if (not isinstance(benchmarks, list) or not benchmarks
            or not all(isinstance(b, str) for b in benchmarks)):
        raise GridSpecError("benchmarks", "benchmarks must be a non-empty "
                                          "list of benchmark names")
    for name in benchmarks:
        if name not in BENCHMARK_NAMES:
            raise GridSpecError("benchmarks", f"unknown benchmark {name!r}")

    instructions = payload.get("instructions", DEFAULT_INSTRUCTIONS)
    instructions = _require_int(instructions, "instructions")
    if max_instructions is not None and instructions > max_instructions:
        raise GridSpecError("instructions",
                            f"instructions {instructions} exceeds this "
                            f"server's per-point limit {max_instructions}")

    knob = payload.get("knob")
    raw_values = payload.get("values", [])
    if knob is not None and not isinstance(knob, str):
        raise GridSpecError("knob", "knob must be an SSMTConfig field name")
    if not isinstance(raw_values, list):
        raise GridSpecError("values", "values must be a list")
    if raw_values and knob is None:
        raise GridSpecError("values", "values requires knob")
    values: List[Any] = []
    if knob is not None:
        for raw in raw_values:
            try:
                # parse_knob_value validates against the field's type;
                # non-string JSON values round-trip through json.dumps
                # ('true', '4', '0.1') so both forms are accepted.
                values.append(parse_knob_value(
                    knob, raw if isinstance(raw, str) else json.dumps(raw)))
            except ValueError as error:
                raise GridSpecError("values", str(error))

    widths = payload.get("widths", [])
    if not isinstance(widths, list):
        raise GridSpecError("widths", "widths must be a list of integers")
    widths = [_require_int(w, "widths") for w in widths]

    predictor = payload.get("predictor")
    if predictor is not None:
        if not isinstance(predictor, str):
            raise GridSpecError("predictor", "predictor must be a zoo "
                                             "baseline name")
        # Deferred import: requests without a predictor never touch the
        # zoo (same zero-cost rule as the CLI).
        from repro.branch.zoo import ARENA_BASELINES
        if predictor not in ARENA_BASELINES:
            raise GridSpecError(
                "predictor", f"unknown predictor {predictor!r}; choose "
                             f"from {', '.join(sorted(ARENA_BASELINES))}")

    kernel = payload.get("kernel", "scalar")
    if kernel not in ("scalar", "batched"):  # outside input, see above
        raise GridSpecError("kernel", f"kernel must be 'scalar' or "
                                      f"'batched', got {kernel!r}")

    return {
        "benchmarks": list(benchmarks),
        "instructions": instructions,
        "knob": knob,
        "values": values,
        "widths": widths,
        "predictor": predictor,
    }


def spec_tasks(spec: Dict[str, Any]) -> List[SweepTask]:
    """Expand a canonical spec into sweep tasks — exactly the grid the
    ``repro sweep`` CLI would build for the equivalent flags."""
    predictor = None
    if spec["predictor"] is not None:
        from repro.branch.zoo import ARENA_BASELINES
        predictor = ARENA_BASELINES[spec["predictor"]]
    return build_grid(spec["benchmarks"], spec["instructions"],
                      knob=spec["knob"], values=spec["values"],
                      widths=tuple(spec["widths"]),
                      predictor=predictor)


def spec_job_id(spec: Dict[str, Any]) -> str:
    """Deterministic job id: content hash of the canonical spec.

    Identical grids — submitted by any tenant, any number of times —
    share one job id and therefore one execution (the dedup property the
    service tests pin down).
    """
    blob = canonical_json(spec).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
