"""Path-batch output: CSV or .npy matrix plus a JSON sidecar.

Rows are paths, columns t_0..t_n; the sidecar (same filename + .json)
records whatever metadata the producer wants tied to the batch, config
and seed above all.  CSV floats are written with repr so a reload (or a
rerun) is bit-faithful.
"""

from __future__ import annotations

import json

import numpy as np


def save_paths(path, paths: np.ndarray, meta: dict) -> None:
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2:
        raise ValueError("paths must be a 2-D matrix")
    path = str(path)
    if path.endswith(".npy"):
        np.save(path, paths)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(f"t_{i}" for i in range(paths.shape[1])) + "\n")
            for row in paths:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(path + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")

