"""The reference listing of the conserved landscapes of length 12.

``enumerate_conserved`` finds the conserved landscapes with a vectorized
scan.  This file finds them apart from it: it writes out every candidate
string of the length (a 0/1 symbol at both ends, one interior star, and
0, 1 or - elsewhere), parses it with ``parse_landscape`` and keeps it if the
scalar ``is_conserved`` accepts it.  Run it to rebuild
``landscape_k12_reference.json`` (about 7 s):

    python3 perfbench/landscape_reference.py

The file holds the count and the SHA-256 of the sorted symbol strings,
one per line, as ``listing_digest`` computes it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "landscape_k12_reference.json"
REFERENCE_LENGTH = 12


def listing_digest(symbols) -> str:
    return hashlib.sha256("\n".join(sorted(symbols)).encode()).hexdigest()


def conserved_by_filter(k: int) -> tuple[int, list[str]]:
    """(candidates tried, symbols of those that pass ``is_conserved``)."""
    import liftforge as lf

    tried = 0
    kept = []
    for star in range(1, k - 1):
        for first, last in itertools.product("01", repeat=2):
            for fill in itertools.product("01-", repeat=k - 3):
                text = first + "".join(fill[: star - 1]) + "★" + "".join(fill[star - 1 :]) + last
                tried += 1
                if lf.is_conserved(lf.parse_landscape(text)):
                    kept.append(text)
    return tried, kept


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    tried, kept = conserved_by_filter(REFERENCE_LENGTH)
    doc = {
        "length": REFERENCE_LENGTH,
        "method": "every candidate string filtered with parse_landscape and is_conserved",
        "candidates": tried,
        "count": len(kept),
        "sha256": listing_digest(kept),
    }
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{REFERENCE.name}: {doc['count']} of {tried} candidates conserved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
