"""Breadth-first chain closure on the public API, and the D = 8 reference.

``chain_closure_bfs`` recomputes the chain closure without
``closure_search``: it grows classes one generator append at a time with
``lf.compose`` and ``lf.canonicalize``.  Run this file to rebuild
``closure_d8_reference.json`` (about 8 s):

    python3 perfbench/closure_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "closure_d8_reference.json"
REFERENCE_DIAMETER = 8


def chain_closure_bfs(gens, max_diameter: int) -> set:
    """Classes reachable from the generators by appending one generator on
    either side while the result keeps diameter <= max_diameter.

    The generator set must be orbit-closed, so that appending each
    generator function to one representative per class reaches every class.
    """
    import liftforge as lf

    seen = {lf.canonicalize(g) for g in gens}
    frontier = list(seen)
    while frontier:
        grown = []
        for cid in frontier:
            x = cid.rule()
            for g in gens:
                for h in (lf.compose(g, x), lf.compose(x, g)):
                    # diameter 1 is the identity up to shift, not a class
                    if h.k == 1 or h.k > max_diameter:
                        continue
                    c = lf.canonicalize(h)
                    if c not in seen:
                        seen.add(c)
                        grown.append(c)
        frontier = grown
    return seen


def found_subset(classes) -> set:
    """The classes the closure reports as found: diameter <= 6, degree >= 2."""
    import liftforge as lf

    return {c for c in classes if c.k <= 6 and lf.degree(c.rule()) >= 2}


def small_generators(all_gens):
    """The conserved-landscape generators of diameter 4 and 5 (18 rules)."""
    return [g for g in all_gens if g.k <= 5]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import liftforge as lf
    from liftforge.catalog import default_generators

    gens = small_generators(default_generators())
    if {(m.k, m.table) for g in gens for m in lf.orbit(g)} != {(g.k, g.table) for g in gens}:
        print("generator set is not orbit-closed", file=sys.stderr)
        return 1
    classes = chain_closure_bfs(gens, REFERENCE_DIAMETER)
    doc = {
        "max_diameter": REFERENCE_DIAMETER,
        "generators": "conserved landscapes of diameter 4 and 5",
        "generator_count": len(gens),
        "classes": sorted(c.text() for c in classes),
        "found": sorted(c.text() for c in found_subset(classes)),
    }
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{REFERENCE.name}: {len(doc['classes'])} classes, {len(doc['found'])} found")
    return 0


if __name__ == "__main__":
    sys.exit(main())
