"""The generated schema reference and its freshness gate.

``tools/gen_schema_docs.py`` renders ``docs/schemas.md`` straight from
``repro.schemas``; these tests pin the invariants the docs layer leans
on: the registry and the prose metadata cover each other exactly, the
renderer mentions every schema, and the committed page is current (the
same check CI runs through ``tools/check_docs.py``).
"""

import sys
from pathlib import Path

from repro.schemas import SCHEMA_INFO, SCHEMA_REGISTRY, schema_string

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import gen_schema_docs  # noqa: E402


def test_schema_info_covers_the_registry():
    assert set(SCHEMA_INFO) == set(SCHEMA_REGISTRY)


def test_schema_info_entries_are_complete():
    for name, info in SCHEMA_INFO.items():
        assert isinstance(info.get("description"), str) and \
            info["description"], name
        fields = info.get("fields")
        assert isinstance(fields, dict) and fields, name
        for field, doc in fields.items():
            assert isinstance(doc, str) and doc, f"{name}.{field}"


def test_render_mentions_every_schema():
    page = gen_schema_docs.render()
    assert page.startswith(gen_schema_docs.HEADER.splitlines()[0])
    for name, versions in SCHEMA_REGISTRY.items():
        assert f"`{name}`" in page, name
        assert f"`{schema_string(name, max(versions))}`" in page, name


def test_committed_page_is_fresh():
    on_disk = gen_schema_docs.OUTPUT.read_text()
    assert on_disk == gen_schema_docs.render(), (
        "docs/schemas.md is stale; regenerate with "
        "'PYTHONPATH=src python tools/gen_schema_docs.py'")


def test_check_mode_exit_codes(tmp_path, monkeypatch, capsys):
    assert gen_schema_docs.main(["--check"]) == 0
    stale = tmp_path / "schemas.md"
    stale.write_text("out of date\n")
    monkeypatch.setattr(gen_schema_docs, "OUTPUT", stale)
    assert gen_schema_docs.main(["--check"]) == 1
    capsys.readouterr()

