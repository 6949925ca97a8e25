"""Deterministic CSV/JSON emission.

Artifacts must be byte-identical across reruns of the same configuration, so
floats are rendered with Python's shortest round-trip repr (stable for IEEE
doubles), JSON keys are sorted, and nothing time- or path-dependent enters an
artifact. Run timing lives in a separate log file excluded from idempotence.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def format_value(x: object) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        # coerce numpy scalars so repr stays the bare shortest round-trip form
        return repr(float(x))
    return str(x)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write ``header`` and ``rows`` as CSV. A 2-D integer ndarray is written
    with one ``%d`` template over all its cells, the bytes the per-cell path
    would write for the same values."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "iu":
        if rows.shape[1] != len(header):
            raise ValueError(f"row width {rows.shape[1]} != header width {len(header)}")
        body = ("\n" + ",".join(["%d"] * len(header))) * len(rows)
        text = ",".join(header) + body % tuple(rows.ravel().tolist()) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"row width {len(row)} != header width {len(header)}")
            lines.append(",".join(format_value(x) for x in row))
        text = "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="ascii")


def _plain(x: object):
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    raise TypeError(f"not JSON-serializable: {type(x).__name__}")


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=_plain)


def write_json(path: str | Path, obj: object) -> None:
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_plain) + "\n",
        encoding="ascii",
    )


def config_hash(config: dict) -> str:
    """Stable short hash of a configuration's canonical JSON form."""
    return hashlib.sha256(canonical_json(config).encode("ascii")).hexdigest()[:12]
