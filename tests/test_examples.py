"""Smoke tests: the examples that drive the timing model's span API run
end to end and print their headers."""

import os
import runpy
import sys

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(monkeypatch, capsys, name, *args):
    path = os.path.join(EXAMPLES, name)
    monkeypatch.setattr(sys, "argv", [path, *args])
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


def test_pipeline_diagram(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "pipeline_diagram.py")
    assert "=== baseline machine (hardware hybrid only) ===" in out
    assert "=== with difficult-path microthreads ===" in out
    assert out.count("mean stage gaps:") == 2


def test_rampup(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "rampup.py", "comp", "60000")
    lines = out.splitlines()
    assert lines[0] == ("comp: windowed speed-up over the baseline "
                        "(10000-instruction windows)")
    assert any(line.startswith("dynamic ") for line in lines)
    assert any(line.startswith("profile-guided ") for line in lines)


def test_profile_guided(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "profile_guided.py", "comp",
                      "30000")
    assert out.startswith("profiling comp (30000 instructions)...")
    assert "microthreads pre-built" in out
    assert "profile-guided SSMT" in out
