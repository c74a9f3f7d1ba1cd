"""Output plumbing: canonical CSV and key-value report text, atomic file
writes, and the append-only run manifest.

Rendering is pure; every file lands via write-to-temp plus atomic rename, so
error paths never leave partial outputs.  Floats are serialized with ``repr``
(shortest round-tripping form), which makes byte-identical reruns meaningful.
Wall-clock timestamps appear in the manifest and nowhere else: every other
output is a pure function of config and seed.
"""

from __future__ import annotations

import json
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

MANIFEST_NAME = "manifest.jsonl"


def format_value(value) -> str:
    """Canonical text form: repr for floats, str for ints and strings."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (int, str)):
        return str(value)
    if hasattr(value, "item"):  # numpy scalar
        return format_value(value.item())
    return str(value)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path with no partially-written intermediate state."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV with a fixed header; every cell serialized canonically."""
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ValueError(
                f"row has {len(row)} cells, header has {width}")
        lines.append(",".join(format_value(cell) for cell in row))
    return "\n".join(lines) + "\n"


def render_report(sections: Mapping[str, Mapping[str, object]]) -> str:
    """Key-value tree as text: bracketed section headers, one pair per line."""
    lines: list[str] = []
    for section, pairs in sections.items():
        lines.append(f"[{section}]")
        for key, value in pairs.items():
            lines.append(f"{key} = {format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def append_manifest(out_dir: str | Path, record: Mapping[str, object]) -> None:
    """Append one JSON line to the directory's manifest.

    The timestamp is added here — the manifest is the only output allowed to
    depend on the wall clock.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamped = dict(record)
    stamped["timestamp"] = datetime.now(timezone.utc).isoformat()
    with open(out_dir / MANIFEST_NAME, "a") as handle:
        handle.write(json.dumps(stamped, sort_keys=True) + "\n")

