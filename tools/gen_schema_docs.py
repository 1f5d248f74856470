#!/usr/bin/env python3
"""Render ``docs/schemas.md`` from the schema registry.

The page is *generated*: every schema in
``repro.schemas.SCHEMA_REGISTRY`` gets one section with its name,
current version, owning (producing) module, one-line description and
top-level field table, all sourced from ``repro.schemas.SCHEMA_INFO``.
Hand-edits do not survive; change the registry and re-run.

The companion freshness gate in ``tools/check_docs.py`` re-renders the
page in memory and fails CI when the committed file differs — so a new
schema, a renamed field or a version bump cannot land without its
documentation.

Usage::

    PYTHONPATH=src python tools/gen_schema_docs.py            # write
    PYTHONPATH=src python tools/gen_schema_docs.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUTPUT = REPO / "docs" / "schemas.md"

HEADER = """\
# Artifact schemas

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/gen_schema_docs.py
     (CI fails when this page is stale; see tools/check_docs.py) -->

Every machine-readable artifact the toolkit writes carries a
`"schema": "<name>/<version>"` marker, registered in
`repro.schemas.SCHEMA_REGISTRY` and described in
`repro.schemas.SCHEMA_INFO` — the single source of truth this page is
rendered from.  `repro lint` enforces the registry from the other side:
LINT020 rejects stray schema literals in the code, and LINT021 requires
every registered marker to be documented.  Payload drift is gated by
the pinned payload corpora, keyed by `CODE_SCHEMA_VERSION`.
"""


def render() -> str:
    from repro.schemas import SCHEMA_INFO, SCHEMA_REGISTRY, schema_string

    lines = [HEADER]
    lines.append("| Schema | Version | Producer |")
    lines.append("| --- | --- | --- |")
    for name in sorted(SCHEMA_REGISTRY):
        version = max(SCHEMA_REGISTRY[name])
        producer = SCHEMA_REGISTRY[name][version]
        anchor = name.replace(".", "")
        lines.append(f"| [`{name}`](#{anchor}) | {version} | "
                     f"`{producer}` |")
    lines.append("")

    for name in sorted(SCHEMA_REGISTRY):
        info = SCHEMA_INFO.get(name)
        version = max(SCHEMA_REGISTRY[name])
        producer = SCHEMA_REGISTRY[name][version]
        lines.append(f"## `{name}`")
        lines.append("")
        lines.append(f"**Marker:** `{schema_string(name)}` — "
                     f"**produced by** `{producer}`")
        lines.append("")
        if info is None:
            lines.append("*(no SCHEMA_INFO entry — add one in "
                         "`repro/schemas.py`)*")
            lines.append("")
            continue
        lines.append(str(info["description"]))
        lines.append("")
        lines.append("| Field | Meaning |")
        lines.append("| --- | --- |")
        for field, meaning in info["fields"].items():
            lines.append(f"| `{field}` | {meaning} |")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if docs/schemas.md is stale instead "
                             "of writing it")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "src"))

    content = render()
    if args.check:
        on_disk = OUTPUT.read_text() if OUTPUT.exists() else ""
        if on_disk != content:
            print("docs/schemas.md is stale; regenerate with:\n"
                  "  PYTHONPATH=src python tools/gen_schema_docs.py")
            return 1
        print("docs/schemas.md is current")
        return 0
    OUTPUT.write_text(content)
    print(f"wrote {OUTPUT.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
