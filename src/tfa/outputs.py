"""Artifact emission: CSV tables, key=value manifests, P5 graymap renders.

Every writer here is deterministic: fixed field ordering, shortest-repr
float formatting with a dot decimal separator and unix newlines, so a rerun
with the same inputs reproduces each file byte for byte.
"""

from pathlib import Path

import numpy as np


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def format_csv(header, rows) -> str:
    """A CSV with a header row; fields are comma-joined, no quoting."""
    lines = [",".join(header)]
    lines += [",".join(format_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> None:
    """Write format_csv(header, rows) to path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(format_csv(header, rows))


def write_manifest(path, mapping) -> None:
    """Write key=value pairs, one per line, in mapping order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{k}={format_value(v)}" for k, v in mapping.items()]
    path.write_text("\n".join(lines) + "\n")


def read_key_value(path) -> dict:
    """Parse a key=value file; blank lines and # comments are skipped, a repeated key is an error."""
    result = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = map(str.strip, line.partition("="))
        if key in result:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
        result[key] = value
    return result


def render_pgm_bytes(grid) -> bytes:
    """Render a 2-d grid as a binary P5 graymap, min-max scaled to 0..255.

    A constant grid renders as all zeros. The render is lossy by design;
    keep the raw values alongside it (write_grid_artifacts does).
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError(f"expected a 2-d grid, got shape {grid.shape}")
    h, w = grid.shape
    lo, hi = float(grid.min()), float(grid.max())
    if hi > lo:
        scaled = np.round((grid - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros((h, w), dtype=np.uint8)
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + scaled.tobytes()


def write_grid_artifacts(stem, grid) -> None:
    """Write stem.pgm (render) and stem.csv (exact values) for one grid."""
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    grid = np.asarray(grid, dtype=np.float64)
    stem.with_suffix(".pgm").write_bytes(render_pgm_bytes(grid))
    rows = [
        (r, c, grid[r, c]) for r in range(grid.shape[0]) for c in range(grid.shape[1])
    ]
    write_csv(stem.with_suffix(".csv"), ("row", "col", "value"), rows)
