"""Compare two output trees cell by cell: how far did the numbers move?

    python tests/csv_diff.py DIR_A DIR_B

Every file under either directory is matched by its relative path.  A CSV
line is split on commas and a JSON manifest into its leaves; a cell is a
float when both sides read as a float and neither reads as an int.  Per file
the report gives the number of differing cells, every differing non-float
cell (and any line or file present on one side only), and the largest
relative float difference |a - b| / max(|a|, |b|).  The exit status is 1
when a non-float cell differs, else 0.
"""

import json
import sys
from pathlib import Path


def _cells(path: Path) -> dict:
    """Cells of one output file, keyed by their place in it."""
    if path.suffix == ".json":
        return dict(_leaves(json.loads(path.read_text()), ""))
    return {(row, col): cell
            for row, line in enumerate(path.read_text().splitlines(), 1)
            for col, cell in enumerate(line.split(","), 1)}


def _leaves(doc, where):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{where}/{key}")
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _leaves(value, f"{where}[{k}]")
    else:
        yield where, doc


def _as_float(cell):
    """``cell`` as a float, or None for ints, bools and text."""
    if isinstance(cell, float):
        return cell
    if not isinstance(cell, str):
        return None
    try:
        int(cell)
        return None
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def compare(path_a: Path | None, path_b: Path | None):
    """(differing cells, differing non-float cells, max relative float
    difference) of one file; a missing side makes every cell non-float."""
    a = _cells(path_a) if path_a else {}
    b = _cells(path_b) if path_b else {}
    changed, other, worst = 0, [], 0.0
    for key in sorted(set(a) | set(b), key=str):
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        changed += 1
        fx, fy = _as_float(x), _as_float(y)
        if fx is None or fy is None:
            other.append((key, x, y))
        elif fx != fy:
            worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return changed, other, worst


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    roots = [Path(d) for d in argv]
    names = sorted({p.relative_to(root) for root in roots
                    for p in root.rglob("*") if p.is_file()})
    status = 0
    for name in names:
        a, b = ((root / name) if (root / name).is_file() else None
                for root in roots)
        changed, other, worst = compare(a, b)
        print(f"{name}: {changed} cells differ, {len(other)} non-float, "
              f"max relative float difference {worst:.3g}")
        for key, x, y in other:
            print(f"  {key}: {x!r} -> {y!r}")
        status |= bool(other)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
