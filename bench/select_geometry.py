"""Print, as one JSON list, the geometry draws that `run.geometry_filter`
picks for slots LO to HI - 1 of a seed.

    python3 bench/select_geometry.py SEED LO HI

`run.select_geometry_inputs` starts this in child processes from the root of
a checkout, so the selection's memory and warm caches stay out of the
measured process.
"""
from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> int:
    seed, lo, hi = (int(a) for a in argv)
    sys.path.insert(0, run.SRC)
    print(json.dumps(run.geometry_filter(seed, range(lo, hi))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
