"""Side-by-side per-layer metrics of two benchmark runs.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files whose last non-empty line is a result printed by
``perfbench/run.py`` (the copies it writes under ``.perfbench_out/`` will
do).  Compare two ``--trace 1`` runs of one workload to see in which
layer a change saved or spent time; two ``--trace 0`` runs compare the
end-to-end metrics the same way.  The ratio is NEW / BASE.
"""

from __future__ import annotations

import json
import sys


def load_result(path) -> dict:
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    return json.loads(lines[-1])


def comparison_rows(base: dict, new: dict) -> list:
    """(metric, unit, base, new, ratio) rows; ratio None when undefined."""
    b, n = base["metrics"], new["metrics"]
    rows = []
    for name in list(b) + [k for k in n if k not in b]:
        bv = b.get(name, {}).get("value")
        nv = n.get(name, {}).get("value")
        unit = (b.get(name) or n.get(name))["unit"]
        ratio = nv / bv if bv and nv is not None else None
        rows.append((name, unit, bv, nv, ratio))
    return rows


def format_table(rows) -> str:
    def num(v):
        return "-" if v is None else f"{v:.6g}"

    lines = [f"{'metric':34s} {'unit':6s} {'base':>12s} {'new':>12s} "
             f"{'new/base':>9s}"]
    for name, unit, bv, nv, ratio in rows:
        lines.append(f"{name:34s} {unit:6s} {num(bv):>12s} {num(nv):>12s} "
                     f"{'-' if ratio is None else f'{ratio:.3f}':>9s}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py BASE NEW", file=sys.stderr)
        return 2
    base, new = (load_result(p) for p in argv)
    print(format_table(comparison_rows(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
