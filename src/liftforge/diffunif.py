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
set bit.
The witness is the smallest difference a whose row reaches the overall
maximum, with the smallest b in that row.

One kernel serves every caller: it takes one diameter's table stack and a
range of lengths n, and ``ddt_max`` is its one-row, one-length call.  At
each n the stack goes in groups whose induced maps, built by one stacked
window gather, hold at most 2 * ``_ROW_BLOCK`` states in all.  A row is a pair (rule, a) of the group;
rows go in blocks of at most ``_ROW_BLOCK`` keys (row << n) | d(x), each
counted by one ``np.bincount``, and each row keeps its largest count and
the first b that reaches it.  Per rule, the witness is the row with the
largest count, then the smallest a.

The necklace scan skips the rows that cannot reach the maximum.  Let S be 9
at n = 9 and 10 at n >= 10, let k <= S be the rule's diameter and let g
take an S-bit word z to the m = S - k + 1 outputs f(z_i..z_{i+k-1}) whose
windows fit in it; H[w] is the largest count in row w of g's DDT (both
widths come from one build per rule, below).  For n >= S, any m consecutive
outputs of F read only the S bits of x under one cyclic window, and the
same window of a is their input difference, so every count in row a is at
most 2^(n-S) * H[w] for each of the n cyclic S-bit windows w of a; the
bound takes the least.  Each call builds a rule's H at the first n of its
range that the bound serves, for the rest of the range.  Row a = 1 of every
rule of a group is counted first; then, in one pass, every row whose bound
exceeds its rule's first-row maximum M1.  This gives the witness of a scan
in ascending a that skips each row whose bound is no more than its running
maximum.  Both find the overall maximum M, as no skipped row's bound
exceeds it.  Let a* be the smallest a whose row reaches M: if M = M1 it is
a = 1; otherwise its bound is at least M > M1, so the one pass counts it,
and in the scan the running maximum is below M when its turn comes, so the
scan counts it too.  The one pass counts a few more rows than the scan (581
against 572 over the catalog at n = 12) in far fewer calls.  Below n = 9,
above diameter S, and in the full scan (the reference the tests compare
against) every row is counted.

H comes from Walsh spectra, not from counting (Chabaud and Vaudenay,
EUROCRYPT 1994), in one build per rule at S = 10.  Let X_u(z) =
(-1)^(u.g(z)) for each component u < 2^m, and let W_u be its Walsh
transform over z.  The transform of W_u^2 is 2^S times the autocorrelation
of X_u, and the transform of the autocorrelations over u is 2^m times the
DDT.  So with W^2 squared entry by entry, T = 2^-S H_m W^2 H_S equals
2^m D(w, b), and H[w] = max_b T >> (m + 1) in half counts.  The transforms
over z are products with two Hadamard factors of about S/2 bits.  The
transform over u is a product with one of c = min(m, 6) bits within each
chunk of 2^c components, then a butterfly across the chunks.  The matmuls
run in float32 on +-1 factors, and every sum is an integer below 2^24, so
it is exact in any order and H does not depend on the BLAS build or its
threads: |W| <= 2^S, so W^2 <= 2^2S = 2^20; the squares of one W_u sum to
2^2S (Parseval), which bounds every signed partial sum of the second
transform over z; that transform is 2^S times an integer autocorrelation,
so scaling it by 2^-S is exact; and after the scaling the transform over u
and the butterfly stay within 2^(m+S) <= 2^20.

The 9-bit table is a marginal of the same build.  The first m - 1 outputs
of the 10-bit map are the 9-bit map, and they do not read z_9.  So for w
whose bit 9 is 0, D_9(w, b) = (D_10(w, b||0) + D_10(w, b||1)) / 2, where
the appended bit is the last output's: the sum of T over that bit, for
w < 2^9, gives H at S = 9 by its row maxima.  For k = 10 there is no 9-bit
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .corefn import LiftforgeError, Rule, _diameter_stacks, _lane_degrees, _windows, bitmask
from .lifting import CapExceededError, _induced_arrays, necklace_representatives, sigma

# 14, not N_CAP = 24: the DDT costs its rows times 2**n, and the rows (one
# per necklace) grow about as fast as 2**n
DU_CAP = 14


class LengthRangeError(LiftforgeError):
    """A range of circular lengths that is malformed or holds no length."""


@dataclass(frozen=True)
class DuEntry:
    n: int
    raw: int
    scaled: Fraction
    witness: tuple[int, int]  # (a, b) achieving the max

    def scaled_str(self) -> str:
        return str(self.scaled)


@dataclass(frozen=True)
class DuReport:
    rule_text: str
    entries: tuple[DuEntry, ...]

    @property
    def stabilized(self) -> Optional[bool]:
        """Whether 2^-n * raw was constant over the last three lengths."""
        if len(self.entries) < 3:
            return None
        tail = [Fraction(e.raw, 1 << e.n) for e in self.entries[-3:]]
        return tail[0] == tail[1] == tail[2]

    def to_json(self) -> dict:
        return {
            "rule": self.rule_text,
            "entries": [
                {"n": e.n, "raw": e.raw, "scaled": e.scaled_str(), "a": e.witness[0], "b": e.witness[1]}
                for e in self.entries
            ],
            "stabilized": self.stabilized,
        }


_ROW_BLOCK = 1 << 14  # keys of one counting block; a group of rules induces at most twice as many states
_COMPONENT_BITS = 6  # log2 of the components per chunk in the build of H


def _window_bits(n: int) -> int:
    """S, the input bits of the window map behind the row bound at length n."""
    return 10 if n >= 10 else 9


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


def _count_rows(F: np.ndarray, n: int, xs: np.ndarray, g: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest half count of each DDT row (rule g[j], difference a[j])
    over the states xs, and the first b that reaches it.

    F holds the induced maps of a group of rules end to end, rule g's at
    offset g << n.  Rows go in blocks of at most ``_ROW_BLOCK`` keys
    (row << n) | (F(x xor a) xor F(x)), one ``np.bincount`` per block, so
    every temporary is of the block's size.  The keys of every block go in
    one buffer: a fresh one per block lets malloc trim the top of its heap
    and fault it back in on the next (about 2,000 page faults per catalog
    round at n = 12)."""
    rows = max(1, _ROW_BLOCK // len(xs))
    Fx = F.reshape(-1, 1 << n)[:, xs]  # F(x) for every rule of the group
    ga = (g << n) | a  # (g << n) | (x xor a) is x xor ga
    half = np.empty(len(a), dtype=np.intp)
    b = np.empty(len(a), dtype=np.intp)
    block = np.empty((min(rows, len(a)), len(xs)), dtype=np.intp)
    for i in range(0, len(a), rows):
        r = min(rows, len(a) - i)
        keys = block[:r]
        np.bitwise_xor(xs, ga[i : i + r, None], out=keys)
        np.take(F, keys, out=keys)
        keys ^= Fx[g[i : i + r]]
        keys |= np.arange(r, dtype=np.intp)[:, None] << n
        counts = np.bincount(keys.ravel(), minlength=r << n).reshape(r, -1)
        b[i : i + r] = top = counts.argmax(axis=1)
        half[i : i + r] = counts[np.arange(r), top]
    return half, b


@lru_cache(maxsize=16)
def _signs(b: int) -> np.ndarray:
    """(-1)^popcount(y) for y < 2^b, as float32."""
    s = np.ones(1, dtype=np.float32)
    for _ in range(b):
        s = np.concatenate([s, -s])
    return s


@lru_cache(maxsize=16)
def _hadamard(b: int) -> np.ndarray:
    """The 2^b x 2^b Walsh-Hadamard matrix, entry (i, j) = (-1)^popcount(i & j)."""
    i = np.arange(1 << b)
    return _signs(b)[i[:, None] & i]


def _window_row_max(k: int, table: np.ndarray) -> dict[int, np.ndarray]:
    """H by window width S: the largest half count of each DDT row of the
    window map g of the table row f, which takes an S-bit word z to the
    m = S - k + 1 outputs f(z_i..z_{i+k-1}) whose windows fit in it; H[0]
    is the whole half, 2^(S-1).  S = 10 always, and S = 9 for k <= 9.  Not
    cached: each ``_ddt_maxima`` call builds it once per row.

    One build at S = 10 from the Walsh spectra of g's components (see the
    module docstring), 2^c of them at a time; the S = 9 table is its
    marginal over the last output bit.  A chunk's transforms over z and its
    part of the transform over u are batches of small matmuls, at most 2^17
    multiply-adds each, which OpenBLAS runs on the calling thread (one
    2^c x 2^S product would wake its thread pool, which costs more than the
    product).  The rest of the transform over u, across the chunks, is an
    in-place butterfly over B, which holds 2^(m+S) floats, and so is the
    marginal.  B and the chunk's three arrays of 2^(c+S) floats are the
    only arrays of their size: 4.75 MiB at most, at k = 1."""
    S = 10
    m = S - k + 1
    g = _windows(table, k, m).astype(np.intp)
    lo = S // 2
    hi = S - lo
    c = min(m, _COMPONENT_BITS)
    Hz_hi, Hz_lo, Hc = _hadamard(hi), _hadamard(lo), _hadamard(c)
    B = np.empty((1 << (m - c), 1 << c, 1 << hi, 1 << lo), dtype=np.float32)  # [u_hi, b_lo, w_hi, w_lo]
    X, W, A = np.empty((3, 1 << c, 1 << hi, 1 << lo), dtype=np.float32)
    for j in range(len(B)):
        # X[u_lo, z_hi, z_lo] = (-1)^(u . g(z)) for u = j 2^c + u_lo
        np.take(Hc, g & bitmask(c), axis=1, out=X.reshape(1 << c, 1 << S), mode="clip")
        if j:  # the sign of the outputs above the low c, which is 1 for j = 0
            X *= _signs(m - c)[j & (g >> c)].reshape(1 << hi, 1 << lo)
        np.matmul(np.matmul(Hz_hi, X, out=W), Hz_lo, out=A)  # the Walsh spectra
        A *= A
        np.matmul(np.matmul(Hz_hi, A, out=W), Hz_lo, out=A)  # 2^S times the autocorrelations
        A *= 2.0**-S
        np.matmul(Hc, A.transpose(1, 0, 2), out=B[j].transpose(1, 0, 2))
    for t in range(m - c):  # u_hi to b_hi, one bit at a time: (x, y) -> (x + y, x - y)
        pairs = B.reshape(-1, 2, B.size >> (m - c - t))
        x, y = pairs[:, 0], pairs[:, 1]
        x += y
        y *= -2
        y += x
    T = B.reshape(2, -1, 1 << S)  # 2^m D(w, b) at [last output bit of b, its other bits, w]
    H = {S: (T.reshape(-1, 1 << S).max(axis=0).astype(np.int64) >> (m + 1)).astype(np.uint16)}
    if k < S:  # for w < 2^(S-1), 2^(m+1) D_(S-1)(w, b) = T[0, b, w] + T[1, b, w]
        T = T[:, :, : 1 << (S - 1)]
        T[0] += T[1]
        H[S - 1] = (T[0].max(axis=0).astype(np.int64) >> (m + 2)).astype(np.uint16)
    return H


@lru_cache(maxsize=32)
def _necklace_windows(n: int, S: int) -> np.ndarray:
    """The n cyclic S-bit windows of each nonzero necklace representative,
    shape (n, rows): entry [j, i] holds bits j..j+S-1 of the i-th one."""
    a = np.array(necklace_representatives(n)[1:], dtype=np.intp)
    return sigma(a, n, -np.arange(n, dtype=np.intp)[:, None]) & bitmask(S)


def _row_bounds(H: np.ndarray, n: int) -> np.ndarray:
    """An upper bound on the largest half count of each nonzero necklace
    row at n >= S of the rules whose S-bit window tables are the rows of H,
    shape (rules, rows): 2^(n-S) times H at the row's tightest window."""
    S = H.shape[1].bit_length() - 1
    tightest = H[:, _necklace_windows(n, S)].min(axis=1).astype(np.intp)
    return np.left_shift(tightest, n - S)


def _group_maxima(tables: np.ndarray, H: Optional[np.ndarray], n: int, restrict: bool) -> list[tuple[int, tuple[int, int]]]:
    """``ddt_max`` of each rule of a group of one diameter, by its table
    stack, counted over the whole group at once; the rows of H, the group's
    window tables, prune the necklace scan where given."""
    k = tables.shape[1].bit_length() - 1
    # intp throughout: np.take and np.bincount cast other index dtypes on every call
    F = _induced_arrays(tables, k, n).astype(np.intp).ravel()
    every = np.arange(len(tables), dtype=np.intp)
    if H is not None:
        ((xs, diffs),) = _difference_groups(n, True)  # the representatives are odd
        first = np.ones_like(every)  # row a = 1 of every rule
        half, b = _count_rows(F, n, xs, every, first)
        g, i = np.nonzero(_row_bounds(H, n)[:, 1:] > half[:, None])
        more = _count_rows(F, n, xs, g, diffs[i + 1])
        g, a = np.concatenate([every, g]), np.concatenate([first, diffs[i + 1]])
        half, b = np.concatenate([half, more[0]]), np.concatenate([b, more[1]])
    else:
        parts = []
        for xs, diffs in _difference_groups(n, restrict):
            g, a = np.repeat(every, len(diffs)), np.tile(diffs, len(tables))
            parts.append((g, a, *_count_rows(F, n, xs, g, a)))
        g, a, half, b = (np.concatenate(p) for p in zip(*parts))
    # per rule, the largest count, then the smallest a; b is the first in a's row
    order = np.lexsort((a, -half, g))
    best = order[np.flatnonzero(np.diff(g[order], prepend=-1))]
    return [(2 * int(half[j]), (int(a[j]), int(b[j]))) for j in best]


def _check_du_cap(n_to: int) -> None:
    """Refuse a length range that runs past the cap before any DDT is built."""
    if n_to > DU_CAP:
        raise CapExceededError(f"need n <= {DU_CAP}, got n={n_to}")


def _ddt_maxima(
    tables: np.ndarray, k: int, n_from: int, n_to: int, *, restrict_necklaces: bool = True
) -> list[list[Optional[tuple[int, tuple[int, int]]]]]:
    """``ddt_max`` of every raw k-variable table of a stack at n_from..n_to:
    one list per row, in order, with None at the lengths below k.  Each
    row's window tables are built once (see the module docstring)."""
    _check_du_cap(n_to)
    out: list[list] = [[None] * (n_to - n_from + 1) for _ in range(len(tables))]
    H: list[dict[int, np.ndarray]] = []
    for n in range(max(n_from, k), n_to + 1):
        S = _window_bits(n)
        prune = restrict_necklaces and k <= S <= n
        if prune and not H:
            H = [_window_row_max(k, t) for t in tables]
        size = max(1, (2 * _ROW_BLOCK) >> n)
        for j in range(0, len(tables), size):
            Hp = np.stack([h[S] for h in H[j : j + size]]) if prune else None
            for row, res in zip(out[j : j + size], _group_maxima(tables[j : j + size], Hp, n, restrict_necklaces)):
                row[n - n_from] = res
    return out


def ddt_max(r: Rule, n: int, *, restrict_necklaces: bool = True) -> tuple[int, tuple[int, int]]:
    """Maximum DDT entry over nonzero input differences, with a witness."""
    if n < r.k:
        raise LengthRangeError(f"circular length {n} below the diameter {r.k}")
    return _ddt_maxima(r.table_array()[None], r.k, n, n, restrict_necklaces=restrict_necklaces)[0][0]


def scale(n: int, raw: int) -> Fraction:
    return Fraction(raw) * Fraction(1 << 9, 1 << n) if n > 9 else Fraction(raw * (1 << (9 - n)))


def du_profile(r: Rule, n_from: int, n_to: int) -> DuReport:
    """DU entries for n_from..n_to, starting at the rule's diameter."""
    lo = max(n_from, r.k)
    if lo > n_to:
        raise LengthRangeError(f"no length in {n_from}..{n_to} at or above the diameter {r.k}")
    _check_du_cap(n_to)
    (found,) = _ddt_maxima(r.table_array()[None], r.k, lo, n_to)
    return DuReport(r.text(), tuple(DuEntry(n, raw, scale(n, raw), wit) for n, (raw, wit) in enumerate(found, lo)))


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
            cells = ["-" if v is None else str(v) for v in vals]
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
                        str(n): (None if v is None else (v.numerator if v.denominator == 1 else str(v)))
                        for n, v in zip(range(self.n_from, self.n_to + 1), vals)
                    },
                }
            )
        return out


def du_scaled_table(rows: Sequence, n_from: int, n_to: int) -> ScaledTable:
    """Per-length scaled-DU table for expressions or rules.

    ``rows`` holds (label, Rule) pairs, bare Rules, or expression trees from
    :mod:`liftforge.exprlang`.
    """
    from . import exprlang

    _check_du_cap(n_to)
    labelled = []
    for item in rows:
        if isinstance(item, tuple):
            labelled.append(item)
        elif isinstance(item, Rule):
            labelled.append((item.text(), item))
        else:
            labelled.append((exprlang.print_expr(item), exprlang.eval_expr(item)))
    found: list[list] = [[]] * len(labelled)
    degrees = [0] * len(labelled)
    for k, idx, tables in _diameter_stacks([rule for _, rule in labelled]):
        for i, row, d in zip(idx, _ddt_maxima(tables, k, n_from, n_to), _lane_degrees(tables, k)[:, 0].tolist()):
            found[i], degrees[i] = row, d
    table_rows = [
        (label, rule.k, degrees[i], tuple(None if m is None else scale(n, m[0]) for n, m in enumerate(row, n_from)))
        for i, ((label, rule), row) in enumerate(zip(labelled, found))
    ]
    return ScaledTable(n_from, n_to, tuple(table_rows))
