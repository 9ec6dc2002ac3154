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
(row << n) | d of one block are counted with one ``np.add.at`` into a
buffer the thread keeps from scan to scan, so a block allocates nothing,
and one flat ``argmax`` finds the first row holding the block's maximum
and the first b in it.
The witness is the smallest difference a whose row reaches the overall
maximum, with the smallest b in that row.

The necklace scan skips the rows that cannot beat the running maximum.
Let S = 9, let k <= S be the rule's diameter and let g take an S-bit word
z to the m = S - k + 1 outputs f(z_i..z_{i+k-1}) whose windows fit in it;
H[w] is the largest count in row w of g's DDT (built once per rule, over
the even words, with the same row kernel).  For n >= S, any m consecutive
outputs of F read only the S bits of x under one cyclic window, and the
same window of a is their input difference, so every count in row a is at
most 2^(n-S) * H[w] for each of the n cyclic S-bit windows w of a; the
bound takes the least.  Rows go in ascending a, in blocks of survivors,
and a row whose bound is no more than the running maximum is skipped: it
could not replace the witness, which takes only a strictly larger count.
Below S, above diameter S, and in the full scan (the reference the tests
compare against) every row is counted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .corefn import LiftforgeError, Rule, _windows, bitmask, table_to_array
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


_ROW_BLOCK = 1 << 15  # rows of a block times the states they are counted over
_S = 9  # input bits of the window map behind the row bound


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


_scratch = threading.local()  # .buf: an intp buffer kept from one scan to the next


class _RowCounter:
    """Half counts of the DDT rows of a map F (``width`` output bits) over
    the states xs, one block of at most ``rows`` rows per call, for a scan
    of ``total`` rows; a context manager.

    A block's keys and counts live in one buffer that the thread keeps from
    scan to scan, grown to the largest scan so far (a scan nested in another
    gets its own): fresh temporaries cost a page fault per page whenever
    the allocator has handed the last ones back to the system, and in a
    fresh process that can cost more than the counting itself.
    """

    def __init__(self, F: np.ndarray, xs: np.ndarray, width: int, total: int):
        self.rows = max(1, min(total, _ROW_BLOCK // (2 * len(xs))))
        self.F, self.xs, self.width = F, xs, width

    def __enter__(self) -> "_RowCounter":
        n_keys = self.rows * len(self.xs)
        size = 3 * n_keys + (self.rows << self.width)
        buf = getattr(_scratch, "buf", None)
        _scratch.buf = None  # taken: a nested scan allocates its own
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=np.intp)
        self.buf = buf
        self.base, self.partners, self.keys = buf[: 3 * n_keys].reshape(3, self.rows, len(self.xs))
        self.counts = buf[3 * n_keys : size]
        np.bitwise_or(self.F[self.xs], np.arange(self.rows, dtype=np.intp)[:, None] << self.width, out=self.base)
        return self

    def __exit__(self, *exc) -> None:
        _scratch.buf = self.buf

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """The counts of the rows a, at most ``rows`` of them, shape
        (len(a), 2^width): a view of the buffer the next call overwrites."""
        r = len(a)
        partners = np.bitwise_xor(self.xs, a[:, None], out=self.partners[:r])
        keys = np.take(self.F, partners, out=self.keys[:r], mode="clip")  # "raise" would copy
        keys ^= self.base[:r]
        counts = self.counts[: r << self.width]
        counts.fill(0)
        np.add.at(counts, keys.ravel(), 1)
        return counts.reshape(r, -1)


def _row_blocks(F: np.ndarray, width: int, groups) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(a, counts) for every block of the rows in ``groups``, in order."""
    for xs, diffs in groups:
        with _RowCounter(F, xs, width, len(diffs)) as count:
            for i in range(0, len(diffs), count.rows):
                a = diffs[i : i + count.rows]
                yield a, count(a)


@lru_cache(maxsize=128)
def _window_row_max(k: int, table: int) -> np.ndarray:
    """H, the largest half count of each DDT row of the window map g, which
    takes an S-bit word z to the m = S - k + 1 outputs f(z_i..z_{i+k-1})
    whose windows fit in it; H[0] is the whole half, 2^(S-1)."""
    m = _S - k + 1
    g = _windows(table_to_array(table, k), k, m).astype(np.intp)
    H = np.full(1 << _S, 1 << (_S - 1), dtype=np.uint16)
    for a, counts in _row_blocks(g, m, _difference_groups(_S, False)):
        H[a] = counts.max(axis=1)
    return H


@lru_cache(maxsize=32)
def _necklace_windows(n: int) -> np.ndarray:
    """The n cyclic S-bit windows of each nonzero necklace representative,
    shape (n, rows): entry [j, i] holds bits j..j+S-1 of the i-th one."""
    a = np.array(necklace_representatives(n)[1:], dtype=np.intp)
    j = np.arange(n, dtype=np.intp)[:, None]
    return ((a >> j) | (a << (n - j))) & bitmask(_S)


def _row_bounds(r: Rule, n: int) -> np.ndarray:
    """An upper bound on the largest half count of each nonzero necklace
    row of the map r induces at length n >= S: 2^(n-S) times H at the
    row's tightest window."""
    H = _window_row_max(r.k, r.table)
    return H[_necklace_windows(n)].min(axis=0).astype(np.intp) << (n - _S)


def ddt_max(
    r: Rule, n: int, n_cap: int = DEFAULT_DU_CAP, restrict_necklaces: bool = True
) -> tuple[int, tuple[int, int]]:
    """Maximum DDT entry over nonzero input differences, with a witness."""
    if not r.k <= n <= n_cap:
        raise CapExceededError(f"need k <= n <= {n_cap}, got n={n}")
    # intp throughout: np.take and np.add.at cast other index dtypes on every call
    F = induce(r, n).as_array().astype(np.intp)
    best = (-1, 0, 0)  # (half count, -a, b)

    def take(a: np.ndarray, counts: np.ndarray) -> None:
        nonlocal best
        j = int(counts.argmax())
        cand = (int(counts.flat[j]), -int(a[j >> n]), j & bitmask(n))
        if cand[:2] > best[:2]:
            best = cand

    if restrict_necklaces and r.k <= _S <= n:
        ((xs, diffs),) = _difference_groups(n, True)  # the representatives are odd
        bound = _row_bounds(r, n)
        with _RowCounter(F, xs, n, len(diffs)) as count:
            i = 0
            # the first block is one row: it sets the maximum that prunes the
            # rest, and a = 1 is the witness for most rules
            while (live := i + np.flatnonzero(bound[i:] > best[0])[: 1 if best[0] < 0 else count.rows]).size:
                a = diffs[live]
                take(a, count(a))
                i = int(live[-1]) + 1
    else:
        for a, counts in _row_blocks(F, n, _difference_groups(n, restrict_necklaces)):
            take(a, counts)
    half, neg_a, b = best
    return 2 * half, (-neg_a, b)


def scale(n: int, raw: int) -> Fraction:
    return Fraction(raw) * Fraction(1 << 9, 1 << n) if n > 9 else Fraction(raw * (1 << (9 - n)))


def _check_du_cap(n_to: int, n_cap: int) -> None:
    """Refuse a length range that runs past the cap before any DDT is built."""
    if n_to > n_cap:
        raise CapExceededError(f"need n <= {n_cap}, got n={n_to}")


def du_profile(r: Rule, n_from: int, n_to: int, n_cap: int = DEFAULT_DU_CAP) -> DuReport:
    """DU entries for n_from..n_to, starting at the rule's diameter."""
    lo = max(n_from, r.k)
    if lo > n_to:
        raise LengthRangeError(f"no length in {n_from}..{n_to} at or above the diameter {r.k}")
    _check_du_cap(n_to, n_cap)
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

    _check_du_cap(n_to, n_cap)
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
