"""Differential distribution maxima for induced maps, with the 2^(9-n)
scaling convention used by the per-length tables.

The DDT row multiset is invariant under rotating the input difference, so
the maximum over all nonzero differences is taken over necklace
representatives only; the restriction is cross-checked against the full
scan on small lengths by the test-suite.

The states pair up: d(x) = F(x xor a) xor F(x) equals d(x xor a), so every
DDT count is even, and the states whose bit t is 0, where t is the lowest
set bit of a, see each pair once.  A nonzero necklace representative is the
least rotation of its necklace, hence odd, so the necklace scan counts over
the even states only; the full scan groups the differences by their lowest
set bit.  Rows go in blocks of at most ``_ROW_BLOCK`` counts: the keys
(row << n) | d of one block feed one ``bincount``, and one flat ``argmax``
finds the first row holding the block's maximum and the first b in it.
The witness is the smallest difference a whose row reaches the overall
maximum, with the smallest b in that row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .corefn import LiftforgeError, Rule, bitmask
from .lifting import CapExceededError, induce

DEFAULT_DU_CAP = 14


class LengthRangeError(LiftforgeError):
    """A range of circular lengths that is malformed or holds no length."""


@lru_cache(maxsize=32)
def necklace_representatives(n: int) -> tuple[int, ...]:
    """Lexicographically-least rotation representatives of n-bit necklaces."""
    x = np.arange(1 << n, dtype=np.uint32)
    best = x.copy()
    m = np.uint32(bitmask(n))
    for c in range(1, n):
        rot = ((x >> np.uint32(c)) | (x << np.uint32(n - c))) & m
        np.minimum(best, rot, out=best)
    reps = np.nonzero(best == x)[0]
    return tuple(int(v) for v in reps)


@dataclass(frozen=True)
class DuEntry:
    n: int
    raw: int
    scaled: Fraction
    witness: tuple[int, int]  # (a, b) achieving the max

    def scaled_str(self) -> str:
        if self.scaled.denominator == 1:
            return str(self.scaled.numerator)
        return f"{self.scaled.numerator}/{self.scaled.denominator}"


@dataclass(frozen=True)
class DuReport:
    rule_text: str
    entries: tuple[DuEntry, ...]

    def raw_values(self) -> list[int]:
        return [e.raw for e in self.entries]

    def scaled_values(self) -> list[Fraction]:
        return [e.scaled for e in self.entries]

    @property
    def stabilized(self) -> Optional[bool]:
        """Whether 2^-n * raw was constant over the last three lengths."""
        if len(self.entries) < 3:
            return None
        tail = [Fraction(e.raw, 1 << e.n) for e in self.entries[-3:]]
        return tail[0] == tail[1] == tail[2]

    def running_max(self) -> Fraction:
        return max(Fraction(e.raw, 1 << e.n) for e in self.entries)

    def to_json(self) -> dict:
        return {
            "rule": self.rule_text,
            "entries": [
                {"n": e.n, "raw": e.raw, "scaled": e.scaled_str(), "a": e.witness[0], "b": e.witness[1]}
                for e in self.entries
            ],
            "stabilized": self.stabilized,
        }


_ROW_BLOCK = 1 << 15  # DDT counts per bincount: rows of a block times 2^n


@lru_cache(maxsize=32)
def _difference_groups(n: int, restrict: bool) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The nonzero differences in ascending order, grouped by their lowest
    set bit t, each group paired with the states whose bit t is 0."""
    if restrict:
        diffs = np.array(necklace_representatives(n)[1:], dtype=np.intp)
    else:
        diffs = np.arange(1, 1 << n, dtype=np.intp)
    low = diffs & -diffs
    x = np.arange(1 << n, dtype=np.intp)
    groups = []
    for t in range(n):
        a = diffs[low == 1 << t]
        if len(a):
            groups.append((x[x & (1 << t) == 0], a))
    return tuple(groups)


def ddt_max(
    r: Rule, n: int, n_cap: int = DEFAULT_DU_CAP, restrict_necklaces: bool = True
) -> tuple[int, tuple[int, int]]:
    """Maximum DDT entry over nonzero input differences, with a witness."""
    if not r.k <= n <= n_cap:
        raise CapExceededError(f"need k <= n <= {n_cap}, got n={n}")
    # intp throughout: uint32 indices and bincount inputs are cast on every call
    F = induce(r, n).as_array().astype(np.intp)
    rows = max(1, _ROW_BLOCK >> n)
    offsets = np.arange(rows, dtype=np.intp)[:, None] << n
    best = (-1, 0, 0)  # (half count, -a, b)
    for xs, diffs in _difference_groups(n, restrict_necklaces):
        base = F[xs] | offsets
        for i in range(0, len(diffs), rows):
            a = diffs[i : i + rows]
            keys = F[xs ^ a[:, None]]
            keys ^= base[: len(a)]
            counts = np.bincount(keys.ravel(), minlength=len(a) << n)
            j = int(counts.argmax())
            cand = (int(counts[j]), -int(a[j >> n]), j & bitmask(n))
            if cand[:2] > best[:2]:
                best = cand
    half, neg_a, b = best
    return 2 * half, (-neg_a, b)


def scale(n: int, raw: int) -> Fraction:
    return Fraction(raw) * Fraction(1 << 9, 1 << n) if n > 9 else Fraction(raw * (1 << (9 - n)))


def du_profile(r: Rule, n_from: int, n_to: int, n_cap: int = DEFAULT_DU_CAP) -> DuReport:
    """DU entries for n_from..n_to, starting at the rule's diameter."""
    lo = max(n_from, r.k)
    if lo > n_to:
        raise LengthRangeError(f"no length in {n_from}..{n_to} at or above the diameter {r.k}")
    entries = []
    for n in range(lo, n_to + 1):
        raw, wit = ddt_max(r, n, n_cap)
        entries.append(DuEntry(n, raw, scale(n, raw), wit))
    return DuReport(r.text(), tuple(entries))


@dataclass(frozen=True)
class ScaledTable:
    n_from: int
    n_to: int
    rows: tuple[tuple[str, int, int, tuple[Optional[Fraction], ...]], ...]
    # row = (label, diameter, degree, per-n scaled values; None below the diameter)

    def render_text(self) -> str:
        header = ["function", "k", "deg"] + [f"n={n}" for n in range(self.n_from, self.n_to + 1)]
        lines = ["\t".join(header)]
        for label, k, deg, vals in self.rows:
            cells = ["-" if v is None else (str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}") for v in vals]
            lines.append("\t".join([label, str(k), str(deg)] + cells))
        return "\n".join(lines)

    def render_csv(self) -> str:
        return self.render_text().replace("\t", ",")

    def to_json(self) -> list[dict]:
        out = []
        for label, k, deg, vals in self.rows:
            out.append(
                {
                    "function": label,
                    "k": k,
                    "deg": deg,
                    "scaled": {
                        str(n): (None if v is None else (v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"))
                        for n, v in zip(range(self.n_from, self.n_to + 1), vals)
                    },
                }
            )
        return out


def du_scaled_table(rows: Sequence, n_from: int, n_to: int, n_cap: int = DEFAULT_DU_CAP) -> ScaledTable:
    """Per-length scaled-DU table for expressions or rules.

    ``rows`` holds (label, Rule) pairs, bare Rules, or expression trees from
    :mod:`liftforge.exprlang`.
    """
    from . import exprlang
    from .corefn import degree as rule_degree

    table_rows = []
    for item in rows:
        if isinstance(item, tuple):
            label, rule = item
        elif isinstance(item, Rule):
            label, rule = item.text(), item
        else:
            label, rule = exprlang.print_expr(item), exprlang.eval_expr(item)
        vals: list[Optional[Fraction]] = []
        for n in range(n_from, n_to + 1):
            if n < rule.k:
                vals.append(None)
            else:
                raw, _ = ddt_max(rule, n, n_cap)
                vals.append(scale(n, raw))
        table_rows.append((label, rule.k, rule_degree(rule), tuple(vals)))
    return ScaledTable(n_from, n_to, tuple(table_rows))
