"""Cell-level diff of two golden outputs: ``python tests/golden_diff.py OLD NEW``.

OLD and NEW are outputs of one kind, read off their content: a sweep CSV, a
``bound`` report or a counts document. Comment and header lines are compared
as text; every other value is a cell, keyed by its row and column:

- sweep CSV: the row is (protocol, loss_db, epsilon_u, delta, Delta, l_c),
  the column each other field (Y_Z, e_bit, e_ph_u, rate);
- ``bound`` report: the row is the line label (``e_ph_u``, ``e_ph_u[tag 3]``,
  ``rate``, ...), the column the label up to its ``[``;
- counts document: the row is a JSON leaf's path, the column that path
  without its list indices.

The report gives, per column, how many cells moved up and down and the
largest relative move, then every changed cell with its old value, new value
and direction. Exit status 0 when the files are byte-identical, 1 otherwise.
"""

import argparse
import csv
import json
import math
import re
import sys
from collections import Counter
from itertools import zip_longest

#: the fields that name a sweep row; the CLI's grid axes
SWEEP_KEY = ("protocol", "loss_db", "epsilon_u", "delta", "Delta", "l_c")


def _sweep(lines):
    """Text lines and cells of a sweep CSV (``#`` comments, then a header)."""
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = lines[len(comments):]
    fields = next(csv.reader([header]))
    key = [f for f in SWEEP_KEY if f in fields]
    cells, seen = {}, Counter()
    for row in csv.DictReader(rows, fieldnames=fields):
        name = ",".join(row[f] for f in key)
        seen[name] += 1
        if seen[name] > 1:  # a repeated key: count its occurrences
            name += f" #{seen[name]}"
        cells.update({(name, f): row[f] for f in fields if f not in key})
    return comments + [header], cells, f"row ({','.join(key)})"


def _report(lines):
    """Text lines and cells of a ``bound`` report (``label: value`` lines)."""
    text, cells = [], {}
    for line in lines:
        label, colon, value = line.partition(":")
        if colon:
            cells[label, label.partition("[")[0]] = value.strip()
        else:
            text.append(line)
    return text, cells, "line"


def _leaves(node, path):
    if isinstance(node, dict):
        for name, child in node.items():
            yield from _leaves(child, f"{path}.{name}" if path else name)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaves(child, f"{path}[{i}]")
    else:
        yield path, json.dumps(node)


def _counts(lines):
    """Cells of a counts document: one per JSON leaf."""
    doc = json.loads("".join(lines))
    return [], {(path, re.sub(r"\[\d+\]", "[]", path)): value
                for path, value in _leaves(doc, "")}, "path"


def parse(data):
    """(text lines, {(row, column): value}, row heading) of one output."""
    lines = data.decode().splitlines(keepends=True)
    first = next((line for line in lines if not line.startswith("#")), "")
    kind = (_counts if first.lstrip().startswith("{")
            else _sweep if "," in first else _report)
    return kind(lines)


def _move(old, new):
    """Direction and relative size of a cell's change (None: absent)."""
    if old is None or new is None:
        return ("added" if old is None else "removed"), None
    try:
        a, b = float(old), float(new)
    except ValueError:
        return "changed", None
    if a == b:
        return "same value", None
    if not a < b and not b < a:  # NaN
        return "changed", None
    return ("up" if b > a else "down"), abs(b - a) / abs(a) if a else math.inf


def _table(rows):
    """Left-aligned columns, two spaces apart."""
    widths = [max(map(len, col)) for col in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows]


def describe(old, new):
    """The changes from output ``old`` to ``new`` (bytes); "" if identical."""
    if old == new:
        return ""
    old_text, old_cells, heading = parse(old)
    new_text, new_cells, _ = parse(new)
    out = [f"text line {i}: {a!r} -> {b!r}" for i, (a, b) in
           enumerate(zip_longest(old_text, new_text), 1) if a != b]
    moved = []
    for cell in {**old_cells, **new_cells}:
        a, b = old_cells.get(cell), new_cells.get(cell)
        if a != b:
            moved.append((cell, a, b) + _move(a, b))
    if moved:
        columns, largest = {}, {}
        for (_, column), _, _, direction, size in moved:
            tally = columns.setdefault(column, Counter())
            tally[direction if direction in ("up", "down") else "other"] += 1
            if size is not None:
                largest[column] = max(largest.get(column, 0.0), size)
        out.append(f"changed cells: {len(moved)}")
        out += _table([("column", "up", "down", "other",
                        "largest relative move")]
                      + [(column, str(t["up"]), str(t["down"]),
                          str(t["other"]),
                          f"{largest[column]:.3g}" if column in largest
                          else "-")
                         for column, t in columns.items()])
        out.append("")
        out += _table([(heading, "column", "old", "new", "direction")]
                      + [(row, column, str(a), str(b), direction)
                         for (row, column), a, b, direction, _ in moved])
    if not out:
        out.append("the bytes differ outside every cell and text line "
                   "(line endings or layout)")
    return "\n".join(out)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Cell-level diff of two golden outputs of one kind.")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.old, "rb") as old, open(args.new, "rb") as new:
        text = describe(old.read(), new.read())
    if text:
        print(text)
    return 1 if text else 0


if __name__ == "__main__":
    sys.exit(main())
