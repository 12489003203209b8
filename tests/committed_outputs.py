"""The table of committed outputs, tests/data/OUTPUTS.txt, and the script
that rewrites every file it names.

Run with no arguments, from the repository root::

    PYTHONPATH=src python tests/committed_outputs.py

it reruns each line of the table and copies the file the run wrote into
tests/data, so that ``git diff tests/data`` shows every line a change moved.
It needs the standard library and petallab alone.
"""

import os
import shutil
import tempfile
from typing import List, NamedTuple, Sequence, Tuple

from petallab import lab

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
TABLE = os.path.join(DATA, "OUTPUTS.txt")


class Row(NamedTuple):
    name: str  # the file under tests/data
    written: str  # the name its run writes it under
    args: Tuple[str, ...]  # the petallab arguments of that run


def read_table() -> List[Row]:
    rows = []
    with open(TABLE, encoding="utf-8") as handle:
        for line in handle:
            if line.strip() and not line.startswith("#"):
                name, written, *args = line.split()
                rows.append(Row(name, written, tuple(args)))
    return rows


def run(args: Sequence[str], out: str, rows: Sequence[Row]) -> None:
    """Run petallab with ``args`` into the directory ``out``; raise unless it
    exits 0 and writes only files that a row with these arguments names."""
    code = lab.main([*args, "--out", out])
    unpinned = sorted(set(os.listdir(out)) - {row.written for row in rows if row.args == args})
    if code != 0 or unpinned:
        raise RuntimeError(f"petallab {' '.join(args)}: exit {code}, unpinned files {unpinned}")


def rewrite() -> None:
    rows = read_table()
    for args in dict.fromkeys(row.args for row in rows):
        with tempfile.TemporaryDirectory() as out:
            run(args, out, rows)
            for row in rows:
                if row.args == args:
                    shutil.copyfile(os.path.join(out, row.written), os.path.join(DATA, row.name))


if __name__ == "__main__":
    rewrite()
