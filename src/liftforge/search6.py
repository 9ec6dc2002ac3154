"""Exhaustive determination of the diameter-6 rules whose offset-s induced
maps are involutions.

Strategy: a sequence of primitive period p <= 5 must map to a sequence of
the same primitive period, so an involution fixes, for every p, an
involutive assignment of rotation classes (with a rotation alignment per
swapped pair, and an optional half-period flip on fixed classes when p is
even).  Each combined assignment pins the rule on the 44 windows that occur
in such sequences; scanning the combinations and discarding value
collisions leaves a few thousand partial tables.  The scan tables are built
by broadcasting: every map of a period pins the same windows, and each
map's ones mask is indexed from one broadcast of every class's windows
against every (target class, rotation) pinning.  The p1..p4 prefixes are one
broadcast of those, and the p5 collision test one sorted join of the
prefixes and the p5 maps on the windows both pin.

The partial tables are then completed by unit propagation of the involution
identity f(f(z_1..z_6), ..., f(z_6..z_11)) = z_{2s-1} over the 2,048
eleven-bit words z, batched over all of them at once.  A row is a partial
table held as 64-bit words `defined` and `ones`, with `fresh` marking the
windows set since its last round.  A round takes every word whose six
windows are defined, one of them fresh, computes v = f(z_1..z_6) ..
f(z_6..z_11) and forces f(v) = z_{2s-1}; a row dies when a forced value
contradicts a defined one or two words force opposite values.  A round on
the row kernel runs in blocks whose rows times the words in play stay
within a fixed budget, so a round over few words takes many rows at once.
Rows with nothing fresh left are finished tables or split on their lowest
unset window.

The first round sees the 278 words whose windows are all pinned and already
refutes most rows (4,296 -> 34 at s=2, 4,564 -> 130 at s=3).  Every scan
survivor has the same 44 windows defined, all of them fresh, so that round
is one test shared by every row, and it runs with the rows as bit lanes (as
in bitsliced DES, Biham, FSE 1997): bit r of the lane vector L[x] is window
x of row r.  Each word's v is decoded into its 64 minterm lanes, the AND of
two 3-window halves, and the minterms are ORed into S0[t] over the words
with z_{2s-1} = 0 and into S1[t] over those with z_{2s-1} = 1.  A row
clashes where S0[t] and S1[t] share its lane, contradicts a defined window t
where S0[t] meets L[t] or S1[t] meets ~L[t], gains the undefined windows of
S0 | S1, and takes its ones from S1.  The later rounds see at most 130 rows,
too few to fill the lane words, and stay on the row kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .corefn import (
    EquivClassId,
    LiftforgeError,
    Rule,
    _class_ids,
    _end_vars,
    _images,
    _row_tables,
    _windows,
    table_to_array,
)
from .lifting import necklace_representatives, sigma

K6 = 6
WORDS = 1 << K6
MAX_P = 5


def _divisors(p: int) -> list[int]:
    return [d for d in range(1, p + 1) if p % d == 0]


def _mobius_mu(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def count_primitive_sequences(p: int) -> int:
    """Number of binary sequences of primitive period exactly p."""
    if p < 1:
        raise LiftforgeError("period must be >= 1")
    return sum(_mobius_mu(d) * (1 << (p // d)) for d in _divisors(p))


def _double_factorial_odd(i: int) -> int:
    out = 1
    for v in range(1, 2 * i, 2):
        out *= v
    return out


def count_period_mappings(p: int) -> int:
    """Involutive maps on the rotation classes of primitive period p,
    counting rotation alignments and (for even p) half-period flips."""
    if not 1 <= p <= MAX_P:
        raise LiftforgeError(f"period mappings tabulated for 1 <= p <= {MAX_P}")
    r = count_primitive_sequences(p) // p
    total = 0
    for i in range(r // 2 + 1):
        ways = math.comb(r, 2 * i) * _double_factorial_odd(i) * p**i
        if p % 2 == 0:
            ways *= 1 << (r - 2 * i)
        total += ways
    return total


@dataclass(frozen=True)
class NecklaceClass:
    p: int
    representative: int  # p-bit pattern, lexicographically least rotation

    @property
    def members(self) -> tuple[int, ...]:
        """The p rotations, the c-th with bits c.. of the representative first."""
        return tuple(sigma(self.representative, self.p, -c) for c in range(self.p))


@lru_cache(maxsize=8)
def primitive_necklace_classes(p: int) -> tuple[NecklaceClass, ...]:
    """The necklaces of primitive period p, by ascending representative."""
    return tuple(
        NecklaceClass(p, v)
        for v in necklace_representatives(p)
        if all(sigma(v, p, c) != v for c in range(1, p))
    )


def _matchings(items: list[int]):
    """All partitions of items into disjoint pairs plus leftovers."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    # first stays unpaired
    for m in _matchings(rest):
        yield m
    for idx in range(len(rest)):
        other = rest[idx]
        remaining = rest[:idx] + rest[idx + 1 :]
        for m in _matchings(remaining):
            yield [(first, other)] + m


@lru_cache(maxsize=16)
def _class_map_options(p: int, fix_all_zero: bool) -> np.ndarray:
    """Involutive class maps for period p, one row per map: for every source
    class (by position) its image class and the rotation, shape (maps, r, 2).

    Each matching of the classes gives a grid of maps, a rotation per
    swapped pair and (for even p) a flip per fixed class, the first pair
    varying slowest.  With ``fix_all_zero`` (only meaningful for p=1) the
    option swapping the all-zero and all-one sequences is dropped, enforcing
    f(0) = 0.
    """
    r = len(primitive_necklace_classes(p))
    blocks = []
    for pairs in _matchings(list(range(r))):
        if p == 1 and fix_all_zero and pairs:
            continue  # classes are {000...} (rep 0) and {111...} (rep 1)
        paired = {i for pair in pairs for i in pair}
        fixed = [i for i in range(r) if i not in paired]
        grid = np.indices((p,) * len(pairs) + (2 - p % 2,) * len(fixed)).reshape(r - len(pairs), -1)
        opts = np.empty((grid.shape[1], r, 2), dtype=np.intp)
        for (a, b), c in zip(pairs, grid):
            opts[:, a, 0], opts[:, a, 1] = b, c
            opts[:, b, 0], opts[:, b, 1] = a, -c % p
        for i, d in zip(fixed, grid[len(pairs) :]):
            opts[:, i, 0], opts[:, i, 1] = i, d * (p // 2)
        blocks.append(opts)
    out = np.concatenate(blocks)
    out.flags.writeable = False
    return out


def _period_masks(p: int, s: int, fix_all_zero: bool) -> tuple[np.uint64, np.ndarray]:
    """The 64-bit mask of the windows pinned by the class maps of period p,
    and each map's ones mask, a uint64 array in option order.  A map sends
    every class somewhere, so every map pins the same windows: all p windows
    of every class.

    Window a of a class is bits a..a+5 of its periodic sequence; mapping it
    to class dst with rotation c pins that window to bit a+s-1-c of dst.  So
    ``win`` holds every class's p windows and ``pinned[src, dst, c]`` the
    ones mask of every (class, target class, rotation) triple."""
    reps = np.array([c.representative for c in primitive_necklace_classes(p)])
    a, u = np.arange(p), np.arange(K6)
    win = (((reps[:, None, None] >> (a[:, None] + u) % p) & 1) << u).sum(axis=2)  # (classes, phases)
    bit = np.uint64(1) << win.astype(np.uint64)
    defined = np.bitwise_or.reduce(bit, axis=1)
    if np.any(np.bitwise_count(defined) != p):  # two phases of one class share a window
        raise LiftforgeError("internal: self-conflicting class map")
    vals = (reps[:, None, None] >> (a - a[:, None] + s - 1) % p) & 1  # (target classes, rotations, phases)
    pinned = np.bitwise_or.reduce(vals.astype(np.uint64) * bit[:, None, None], axis=3)  # (classes, targets, rotations)
    opts = _class_map_options(p, fix_all_zero)
    o = pinned[np.arange(len(reps)), opts[..., 0], opts[..., 1]]  # (maps, classes)
    ones = np.bitwise_or.reduce(o, axis=1)
    if np.any(defined & ~o & ones[:, None]):
        raise LiftforgeError("internal: self-conflicting class map")
    return np.bitwise_or.reduce(defined), ones


def short_period_words() -> int:
    """Mask of the 6-bit words whose first j bits equal their last j bits
    for some j in {1,2,3} (equivalently: word-periodic with period <= 5)."""
    mask = 0
    for w in range(WORDS):
        for q in (3, 4, 5):
            if all(((w >> i) & 1) == ((w >> (i + q)) & 1) for i in range(K6 - q)):
                mask |= 1 << w
                break
    return mask


@dataclass(frozen=True, eq=False)
class AssignmentScan:
    """The collision-free combinations of per-period class maps, as the
    (defined, ones) masks of their partial tables in scan order."""

    s: int
    scanned: int
    def_masks: np.ndarray  # uint64, one entry per survivor
    ones_masks: np.ndarray
    fixed_window_count: int
    collision_counts: dict

    @property
    def survivors(self) -> np.ndarray:
        """One (defined, ones) row per survivor."""
        return np.stack((self.def_masks, self.ones_masks), axis=1)


def _outer_or(arrays) -> np.ndarray:
    """OR of one entry from each array, for every combination, the first
    array varying slowest."""
    out = arrays[0]
    for a in arrays[1:]:
        out = (out[:, None] | a).reshape(-1)
    return out


def enumerate_periodic_assignments(s: int, include_complemented: bool = False) -> AssignmentScan:
    """Scan all per-period class-map combinations, dropping value collisions.

    By default the all-zero sequence is pinned to itself (f(0) = 0);
    ``include_complemented`` also scans the swapped branch.  A prefix (maps
    for p = 1..4) collides when one period's defined zero is another's one.
    A prefix and a p5 map agree when their ones match on the windows both
    pin, so the survivors are one sorted join of the prefixes and the p5
    maps on those bits, prefix by prefix and each prefix's p5 maps in order.
    """
    if s not in (2, 3):
        raise LiftforgeError("direct scan supports s in {2, 3}; s=4,5 follow by reversal")
    per_p = [_period_masks(p, s, p == 1 and not include_complemented) for p in range(1, MAX_P + 1)]
    (d5, v5), prefix = per_p[-1], per_p[:-1]
    pre_d = np.bitwise_or.reduce([d for d, _ in prefix])
    pre_v = _outer_or([v for _, v in prefix])
    ok = (_outer_or([d & ~v for d, v in prefix]) & pre_v) == 0
    pre_v = pre_v[ok]
    both = pre_d & d5
    key = v5 & both
    order = np.argsort(key, kind="stable")
    lo, hi = (np.searchsorted(key[order], pre_v & both, side) for side in ("left", "right"))
    n = hi - lo  # the p5 maps each prefix meets without a collision
    # entry t of prefix i's run is p5 map order[lo[i] + t - (its run's start)]
    j = order[np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())]
    ones_masks = np.repeat(pre_v, n) | v5[j]
    def_masks = np.full(len(ones_masks), pre_d | d5)
    collisions = {"prefix": int(np.count_nonzero(~ok)) * len(v5), "p5": len(pre_v) * len(v5) - len(ones_masks)}
    fixed = int(pre_d | d5).bit_count() if len(ones_masks) else 0
    return AssignmentScan(s, len(ok) * len(v5), def_masks, ones_masks, fixed, collisions)


# ---------------------------------------------------------------------------
# extension over the free windows: batched unit propagation of the identity


_WORD_BUDGET = 16 * (1 << 11)  # rows per propagation call times its words in play
_FULL = np.uint64((1 << WORDS) - 1)


@lru_cache(maxsize=4)
def _word_planes(s: int):
    """The 2,048 eleven-bit words z, those with z_{2s-1} = 0 first: their
    six window indices (one row per word), the 64-bit mask of those windows,
    and the number of words with z_{2s-1} = 0."""
    z = np.arange(1 << 11)
    z = z[np.argsort((z >> (2 * s - 2)) & 1, kind="stable")]
    windows = ((z[:, None] >> np.arange(6)) & (WORDS - 1)).astype(np.uint8)
    masks = np.bitwise_or.reduce(np.uint64(1) << windows.astype(np.uint64), axis=1)
    return windows, masks, len(z) // 2


def _words_in_play(defined, fresh, s: int) -> np.ndarray:
    """The words whose windows are all defined in some row, one of them
    fresh in some row: the only words a round over these rows can use."""
    masks = _word_planes(s)[1]
    return np.flatnonzero(
        ((masks & ~np.bitwise_or.reduce(defined)) == 0) & ((masks & np.bitwise_or.reduce(fresh)) != 0)
    )


def _propagate(defined, ones, fresh, s: int):
    """One round on a block of rows.  Every word whose windows are all
    defined, one of them fresh, gives v = f(z_1..z_6)..f(z_6..z_11) and
    forces f(v) = z_{2s-1}.  Returns the rows' new (defined, ones, fresh)
    and two row masks: a forced value contradicts a defined one, and two
    words force opposite values."""
    windows, masks, zeros = _word_planes(s)
    words = _words_in_play(defined, fresh, s)
    m = masks[words, None]
    # one (words, rows) uint64 buffer for every wide temporary: a fresh one
    # each would be mapped and faulted in anew whenever it passes malloc's
    # mmap threshold
    forced = defined & m
    cand = forced == m
    np.bitwise_and(fresh, m, out=forced)
    cand &= forced != 0
    # bit x of every row's `ones`, one row per window x; then v bit by bit
    bits = np.unpackbits(ones.view(np.uint8).reshape(-1, 8).T, axis=0, bitorder="little")
    w = np.take(windows, words, axis=0)
    v = np.take(bits, w[:, 0], axis=0)
    for j in range(1, 6):
        v |= np.take(bits, w[:, j], axis=0) << j
    np.left_shift(np.uint64(1), v, out=forced)
    forced *= cand
    split = np.searchsorted(words, zeros)
    f0 = np.bitwise_or.reduce(forced[:split], axis=0)
    f1 = np.bitwise_or.reduce(forced[split:], axis=0)
    new = (f0 | f1) & ~defined
    pinned = ((f1 & ~ones) | (f0 & ones)) & defined
    return defined | new, ones | f1, new, pinned != 0, (f0 & f1) != 0


def _transpose_bits(x):
    """Each 64 x 64 bit block of x, a C-contiguous uint64 array of shape
    (..., 64), transposed in place: bit c of x[..., r] trades places with
    bit r of x[..., c].  Level j swaps the off-diagonal j x j blocks."""
    for j in (32, 16, 8, 4, 2, 1):
        v = x.reshape(-1, 32 // j, 2, j)
        a, b = v[:, :, 0], v[:, :, 1]
        m = np.uint64(((1 << 64) - 1) // ((1 << j) + 1))  # the bit positions with bit j clear
        t = ((a >> np.uint64(j)) ^ b) & m
        b ^= t
        a ^= t << np.uint64(j)
    return x


def _first_round_lanes(defined, ones, s: int):
    """What `_propagate` returns, for rows that share one `defined` mask,
    all of it fresh, with the rows as bit lanes.  Every row then has the
    same words in play, and bit r % 64 of lane word r // 64 of L[x] is
    window x of row r.  A word's v is one of 64 minterms of its six
    windows' lanes, each the AND of two 3-window halves; S0[t] and S1[t]
    OR the minterm t lanes over the words with z_{2s-1} = 0 and 1."""
    windows, _, zeros = _word_planes(s)
    words = _words_in_play(defined, defined, s)
    R = len(ones)
    rows = np.zeros(-(-R // 64) * 64, dtype=np.uint64)  # the lanes past R stay 0
    rows[:R] = ones
    L = _transpose_bits(rows.reshape(-1, 64)).T.copy()  # (windows, lane words)
    # literal j of the 3-bit minterm a is L if bit j of a is set, else ~L
    flip = np.where((np.arange(8)[:, None] >> np.arange(3)) & 1, np.uint64(0), ~np.uint64(0))

    def minterms(w3):  # (words, 8, lane words): the minterms of three windows
        m = np.take(L, w3[:, 0], axis=0)[:, None] ^ flip[:, 0, None]
        for j in (1, 2):
            m &= np.take(L, w3[:, j], axis=0)[:, None] ^ flip[:, j, None]
        return m

    S = np.zeros((2, WORDS, L.shape[1]), dtype=np.uint64)
    # a chunk holds three (words, 8, lane words) arrays at once: the two
    # halves' minterms and one temporary, together within _WORD_BUDGET
    chunk = max(1, _WORD_BUDGET // (24 * L.shape[1]))
    split = np.searchsorted(words, zeros)
    for target, half in enumerate((words[:split], words[split:])):
        for lo in range(0, len(half), chunk):
            w = np.take(windows, half[lo : lo + chunk], axis=0)
            low, high = minterms(w[:, :3]), minterms(w[:, 3:])
            for b in range(8):  # minterm a + 8b is low[a] & high[b]
                S[target, 8 * b : 8 * b + 8] |= np.bitwise_or.reduce(low & high[:, b, None], axis=0)
    s0, s1 = S
    dm = np.unpackbits(defined[:1].view(np.uint8), bitorder="little").astype(bool)
    clash = np.bitwise_or.reduce(s0 & s1, axis=0)
    pinned = np.bitwise_or.reduce(((s0 & L) | (s1 & ~L))[dm], axis=0)
    S[0] |= s1
    S[0, dm] = 0  # the new windows
    S[1] |= L  # the new ones
    # back to rows, dropping the lanes past R
    new, ones = _transpose_bits(S.transpose(0, 2, 1).copy()).reshape(2, -1)[:, :R]
    flags = np.unpackbits(np.stack((pinned, clash)).view(np.uint8), axis=1, count=R, bitorder="little")
    return defined | new, ones, new, flags[0] != 0, flags[1] != 0


def _extend_all(def_masks, ones_masks, s: int) -> tuple[list[int], int]:
    """The full 64-bit tables that extend one of the partial tables
    (def_masks[i], ones_masks[i]), with ones only on defined windows, and
    satisfy f(f(z_1..z_6), ..., f(z_6..z_11)) = z_{2s-1}; and the number
    of rows the first round finds no pinned-value conflict in.

    All rows take each round together.  A round whose rows share one
    `defined` mask, all of it fresh (the first round on scan survivors),
    runs as bit lanes in `_first_round_lanes`.  Any other round runs in
    blocks sized by the words in play: rows per block times the words any
    row can use that round stay within _WORD_BUDGET, which bounds the
    (words, rows) temporaries.  A row with nothing fresh is finished or
    splits on its lowest unset window."""
    defined = np.array(def_masks, dtype="<u8")
    ones = np.array(ones_masks, dtype="<u8")
    fresh = defined.copy()
    tables: list[int] = []
    searched = 0
    # each pass defines at least one more window of every row it keeps
    for rnd in range(WORDS + 1):
        if len(defined) and (defined == defined[0]).all() and (fresh == defined).all():
            defined, ones, fresh, pinned, clash = _first_round_lanes(defined, ones, s)
        else:
            pinned = np.zeros(len(defined), dtype=bool)
            clash = np.zeros(len(defined), dtype=bool)
            rows = max(1, _WORD_BUDGET // max(1, len(_words_in_play(defined, fresh, s))))
            for lo in range(0, len(defined), rows):
                b = slice(lo, lo + rows)
                defined[b], ones[b], fresh[b], pinned[b], clash[b] = _propagate(defined[b], ones[b], fresh[b], s)
        if rnd == 0:
            searched = len(defined) - int(np.count_nonzero(pinned))
        live = ~(pinned | clash)
        defined, ones, fresh = defined[live], ones[live], fresh[live]
        busy = fresh != 0
        full = ~busy & (defined == _FULL)
        tables.extend(int(t) for t in ones[full])
        split = ~busy & ~full
        d, o = defined[split], ones[split]
        low = ~d & (d + np.uint64(1))
        defined = np.concatenate([defined[busy], d | low, d | low])
        ones = np.concatenate([ones[busy], o, o | low])
        fresh = np.concatenate([fresh[busy], low, low])
        if not len(defined):
            return tables, searched
    raise LiftforgeError("internal: rows left after every window was defined")


def _is_involution(tabs: np.ndarray, s: int) -> np.ndarray:
    """For each row of ``tabs`` (a stack of 64-entry uint8 tables), whether
    its raw double self-composition over 11 variables equals x_{2s-1}."""
    ff = np.take_along_axis(tabs, _windows(tabs, K6, K6), axis=1)
    z = np.arange(1 << 11, dtype=np.uint32)
    return (ff == ((z >> np.uint32(2 * s - 2)) & 1)).all(axis=1)


def involution_rule_check(rule: Rule, s: int) -> bool:
    """Exact automaton-level involution check at window offset s: the raw
    double self-composition over 11 variables must equal x_{2s-1}."""
    if rule.k != K6:
        return False
    return bool(_is_involution(table_to_array(rule.table, K6)[None], s)[0])


@dataclass(frozen=True)
class Involution6:
    rule: Rule
    s: int
    class_id: EquivClassId


def _involutions(tabs: np.ndarray, s: int) -> tuple[Involution6, ...]:
    """The rows of ``tabs`` (a stack of 64-entry uint8 tables, involutive at
    offset s) that depend on both x1 and x6, with their class ids from one
    stacked call; the others are involutive but of smaller diameter."""
    tables = _row_tables(tabs)
    tight = [i for i, t in enumerate(tables) if _end_vars(t, K6) == (0, K6 - 1)]
    return tuple(Involution6(Rule(K6, tables[i]), s, c) for i, c in zip(tight, _class_ids(tabs[tight], K6)))


@dataclass(frozen=True)
class SearchResult:
    """One offset's search.  It keeps the scan's counts, not its survivors:
    those are intermediate and would make up nearly all of its size."""

    s: int
    involutions: tuple[Involution6, ...]
    completions: int  # involutive completions before the tight-diameter filter
    scanned: int  # class-map combinations scanned
    scan_survivors: int  # combinations left by the scan's collision test
    searched: int  # scan survivors with no pinned-value conflict in the first round

    @property
    def class_ids(self) -> frozenset:
        return frozenset(i.class_id for i in self.involutions)


def complete_search(s: int, include_complemented: bool = False) -> SearchResult:
    """Extend every surviving assignment over its free windows and keep the
    tight diameter-6 rules; each result is re-verified independently."""
    scan = enumerate_periodic_assignments(s, include_complemented)
    tables, searched = _extend_all(scan.def_masks, scan.ones_masks, s)
    tables.sort()
    if len(set(tables)) != len(tables):
        raise LiftforgeError("internal: a completion was found twice")
    tabs = np.unpackbits(np.array(tables, dtype="<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    if tables and not _is_involution(tabs, s).all():
        raise LiftforgeError("internal: completion fails the exact involution check")
    return SearchResult(s, _involutions(tabs, s), len(tables), scan.scanned, len(scan.def_masks), searched)


@dataclass(frozen=True)
class PooledSearch:
    by_offset: dict
    functions: frozenset  # all tables over s in {2,3,4,5}
    class_ids: frozenset

    @property
    def function_count(self) -> int:
        return len(self.functions)

    @property
    def class_count(self) -> int:
        return len(self.class_ids)


def search_all(include_complemented: bool = False, jobs: int = 1) -> PooledSearch:
    """Run s=2 and s=3 directly; s=4 and s=5 are the reversals of s=3 and
    s=2 and carry their source offset's counters.  The pool is deduplicated
    at the function level.  ``jobs`` has no effect: the search runs in one
    process."""
    by = {s: complete_search(s, include_complemented) for s in (2, 3)}
    for s_src, s_dst in ((3, 4), (2, 5)):
        src = np.array([inv.rule.table_array() for inv in by[s_src].involutions], dtype=np.uint8)
        revs = _images(src.reshape(-1, WORDS), K6)[:, 1]  # the reversals
        if len(revs) and not _is_involution(revs, s_dst).all():
            raise LiftforgeError("internal: reversal does not carry the involution")
        by[s_dst] = replace(by[s_src], s=s_dst, involutions=_involutions(revs, s_dst))
    functions = frozenset(inv.rule.table for res in by.values() for inv in res.involutions)
    return PooledSearch(by, functions, frozenset().union(*(res.class_ids for res in by.values())))
