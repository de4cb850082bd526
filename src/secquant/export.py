"""Deterministic artifact writing: full-precision CSV/JSON, written to a
temporary file and renamed so no partial artifact ever lands on disk."""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Any, Iterable, Sequence


def fmt(value: Any) -> str:
    """Round-trip text for a CSV cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def rows_as_json(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """The same table as a JSON array of row objects."""
    return json_text([dict(zip(header, row)) for row in rows])


def write_all(files: Sequence[tuple[str | Path, str]]) -> None:
    """Write a set of artifacts together: all temps first, then all renames,
    so an error while producing any file leaves none of them behind.

    Each temp gets a unique name in its target's directory, so concurrent
    writers to the same path never rename each other's temp; the last
    rename wins with one writer's whole file.  A set that names one path
    twice is refused before anything is written, as one file would
    silently replace the other.
    """
    resolved = [Path(path).resolve() for path, _ in files]
    for i, path in enumerate(resolved):
        if path in resolved[:i]:
            raise ValueError(f"artifact path named twice: {path}")
    staged = []
    try:
        for path, text in files:
            path = Path(path)
            if path.parent and not path.parent.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
            # "x" refuses an existing name, so a writer only ever owns and
            # unlinks its own temp; the mode is what a plain open() gives
            with open(tmp, "x") as fh:
                staged.append((tmp, path))
                fh.write(text)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, path in staged:
        os.replace(tmp, path)
