"""``repro.serve`` must be zero-cost when unused.

Only the ``serve`` subcommand imports the service package (it defers
the import into its command function).  Every
other entry point — ``import repro.cli``, building the parser, running
a sweep through :mod:`repro.parallel` — must keep ``repro.serve`` (and
``asyncio``-based HTTP machinery) out of ``sys.modules``, same rule as
the predictor zoo (``test_zoo_zero_cost.py``).
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _loaded_serve_modules(program: str) -> list:
    probe = (
        program + "\n"
        "import sys\n"
        "loaded = [m for m in sys.modules if m.startswith('repro.serve')]\n"
        "print(__import__('json').dumps(loaded))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": SRC, "PATH": ""},
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_does_not_load_serve():
    assert _loaded_serve_modules("import repro.cli") == []


def test_parser_build_does_not_load_serve():
    # Building --help for every subcommand touches all parser wiring.
    assert _loaded_serve_modules(
        "import repro.cli\n"
        "repro.cli.build_parser()") == []


def test_sweep_run_does_not_load_serve():
    assert _loaded_serve_modules(
        "from repro.parallel import SweepRunner, build_grid\n"
        "SweepRunner(jobs=1).run(build_grid(['comp'], 1000))") == []
