"""Exhaustive determination of the diameter-6 rules whose offset-s induced
maps are involutions.

Strategy: a sequence of primitive period p <= 5 must map to a sequence of
the same primitive period, so an involution fixes, for every p, an
involutive assignment of rotation classes (with a rotation alignment per
swapped pair, and an optional half-period flip on fixed classes when p is
even).  Each combined assignment pins the rule on the 44 windows that occur
in such sequences; scanning the combinations and discarding value
collisions leaves a few thousand partial tables.

Most of these already contradict the involution identity
f(f(z_1..z_6), ..., f(z_6..z_11)) = z_{2s-1} on one of the 278 eleven-bit
words z whose six windows are all pinned.  One array pass over the
survivors' pinned tables evaluates the identity on those words and drops
every survivor where f(v) is pinned to the wrong bit (4,296 -> 34 at s=2,
4,564 -> 130 at s=3).  On the rest, the 20 free window values are completed
by unit propagation over the exact 11-variable identity rather than a blind
2^20 scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .corefn import (
    EquivClassId,
    InvalidRuleError,
    LiftforgeError,
    Rule,
    _take,
    _windows,
    canonicalize,
    reverse,
    rule_from_table,
    table_to_array,
)

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
        p, v = self.p, self.representative
        return tuple(((v >> c) | (v << (p - c))) & ((1 << p) - 1) for c in range(p))


@lru_cache(maxsize=8)
def primitive_necklace_classes(p: int) -> tuple[NecklaceClass, ...]:
    mask = (1 << p) - 1
    out = []
    for v in range(1 << p):
        rots = [((v >> c) | (v << (p - c))) & mask for c in range(p)]
        if len(set(rots)) == p and min(rots) == v:
            out.append(NecklaceClass(p, v))
    return tuple(out)


def _pat_bit(pat: int, p: int, t: int) -> int:
    return (pat >> (t % p)) & 1


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
def _class_map_options(p: int, fix_all_zero: bool) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Involutive class maps for period p as tuples of (src, dst, rotation).

    With ``fix_all_zero`` (only meaningful for p=1) the option swapping the
    all-zero and all-one sequences is dropped, enforcing f(0) = 0.
    """
    classes = primitive_necklace_classes(p)
    r = len(classes)
    flips = (0,) if p % 2 else (0, p // 2)
    options = []
    for pairs in _matchings(list(range(r))):
        paired = {i for pair in pairs for i in pair}
        fixed = [i for i in range(r) if i not in paired]

        def emit(pair_rots, fixed_flips):
            entry = []
            for (a, b), c in zip(pairs, pair_rots):
                entry.append((a, b, c))
                entry.append((b, a, (-c) % p))
            for i, d in zip(fixed, fixed_flips):
                entry.append((i, i, d))
            options.append(tuple(sorted(entry)))

        def rec_pairs(i, acc):
            if i == len(pairs):
                rec_fixed(0, acc, [])
                return
            for c in range(p):
                rec_pairs(i + 1, acc + [c])

        def rec_fixed(i, pair_rots, acc):
            if i == len(fixed):
                emit(pair_rots, acc)
                return
            for d in flips:
                rec_fixed(i + 1, pair_rots, acc + [d])

        rec_pairs(0, [])
    if p == 1 and fix_all_zero:
        # classes are {000...} (rep 0) and {111...} (rep 1); keep identity only
        options = [o for o in options if all(a == b for a, b, _ in o)]
    return tuple(options)


@lru_cache(maxsize=512)
def _triple_masks(p: int, src: int, dst: int, c: int, s: int) -> tuple[int, int]:
    """(defined, ones) masks over the windows pinned by mapping class src to
    class dst with rotation c."""
    classes = primitive_necklace_classes(p)
    pat = classes[src].representative
    tgt = classes[dst].representative
    def_mask = 0
    ones = 0
    for a in range(p):
        w = 0
        for u in range(K6):
            w |= _pat_bit(pat, p, a + u) << u
        val = _pat_bit(tgt, p, a + s - 1 - c)
        if (def_mask >> w) & 1:
            if ((ones >> w) & 1) != val:
                raise LiftforgeError("internal: self-conflicting class map")
        def_mask |= 1 << w
        ones |= val << w
    return def_mask, ones


def _forced_masks(p: int, option, s: int) -> tuple[int, int]:
    """(defined, ones) masks over the 64 windows pinned by one class map."""
    def_mask = 0
    ones = 0
    for src, dst, c in option:
        d, o = _triple_masks(p, src, dst, c, s)
        if (def_mask & d) & (ones ^ o):
            raise LiftforgeError("internal: self-conflicting class map")
        def_mask |= d
        ones |= o
    return def_mask, ones


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


@dataclass(frozen=True)
class PeriodicAssignment:
    """One collision-free combination of per-period class maps."""

    s: int
    choices: tuple  # per period p=1..5, the chosen class map
    def_mask: int
    ones_mask: int


@dataclass(frozen=True)
class AssignmentScan:
    s: int
    scanned: int
    survivors: tuple[PeriodicAssignment, ...]
    fixed_window_count: int
    collision_counts: dict


def enumerate_periodic_assignments(s: int, include_complemented: bool = False) -> AssignmentScan:
    """Scan all per-period class-map combinations, dropping value collisions.

    By default the all-zero sequence is pinned to itself (f(0) = 0);
    ``include_complemented`` also scans the swapped branch.
    """
    if s not in (2, 3):
        raise LiftforgeError("direct scan supports s in {2, 3}; s=4,5 follow by reversal")
    per_p = []
    for p in range(1, MAX_P + 1):
        opts = _class_map_options(p, fix_all_zero=(p == 1 and not include_complemented))
        per_p.append([(o, *_forced_masks(p, o, s)) for o in opts])
    # the innermost (largest) level is one array operation per prefix
    p5 = per_p[4]
    d5 = np.array([d for _, d, _ in p5], dtype=np.uint64)
    v5 = np.array([v for _, _, v in p5], dtype=np.uint64)
    scanned = 0
    survivors = []
    collisions = {"prefix": 0, "p5": 0}
    for o1, d1, v1 in per_p[0]:
        for o2, d2, v2 in per_p[1]:
            for o3, d3, v3 in per_p[2]:
                if (d2 & d3) & (v2 ^ v3):
                    scanned += len(per_p[3]) * len(p5)
                    collisions["prefix"] += len(per_p[3]) * len(p5)
                    continue
                for o4, d4, v4 in per_p[3]:
                    pre_d = d1 | d2 | d3 | d4
                    pre_v = v1 | v2 | v3 | v4
                    if ((d1 | d2 | d3) & d4) & ((v1 | v2 | v3) ^ v4):
                        scanned += len(p5)
                        collisions["prefix"] += len(p5)
                        continue
                    scanned += len(p5)
                    clash = (v5 ^ np.uint64(pre_v)) & (d5 & np.uint64(pre_d))
                    keep = np.flatnonzero(clash == 0).tolist()
                    collisions["p5"] += len(p5) - len(keep)
                    for i in keep:
                        o5_, d5_, v5_ = p5[i]
                        survivors.append(
                            PeriodicAssignment(
                                s, (o1, o2, o3, o4, o5_), pre_d | d5_, pre_v | v5_
                            )
                        )
    fixed = survivors[0].def_mask.bit_count() if survivors else 0
    return AssignmentScan(s, scanned, tuple(survivors), fixed, collisions)


# ---------------------------------------------------------------------------
# extension over the free windows: exact involution identity with propagation


@lru_cache(maxsize=4)
def _constraints(s: int):
    """For each 11-bit word z: its six 6-bit windows and the target bit index."""
    windows = [[(z >> j) & (WORDS - 1) for j in range(6)] for z in range(1 << 11)]
    occ = [[] for _ in range(WORDS)]
    for z, ws in enumerate(windows):
        for w in ws:
            occ[w].append(z)
    tbit = 2 * s - 2
    return windows, [tuple(o) for o in occ], tbit


_FILTER_ROWS = 64  # survivors per array pass; bounds the (rows, words, 6) temporaries


def _bit_rows(masks: list[int]) -> np.ndarray:
    """64-bit masks as a (len(masks), 64) uint8 array of their bits."""
    buf = b"".join(m.to_bytes(8, "little") for m in masks)
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little").reshape(len(masks), WORDS)


@lru_cache(maxsize=4)
def _pinned_word_planes(s: int):
    """The 11-bit words z whose six windows are all short-period words (the
    windows every scan survivor pins): their window indices, one row per
    word, and their target bits z_{2s-1}."""
    z = np.arange(1 << 11, dtype=np.intp)
    windows = (z[:, None] >> np.arange(6)) & (WORDS - 1)
    pinned = _bit_rows([short_period_words()])[0]
    keep = pinned[windows].all(axis=1)
    return windows[keep], ((z[keep] >> (2 * s - 2)) & 1).astype(np.uint8)


def _refuted_by_pinned_words(assignments, s: int) -> np.ndarray:
    """Boolean mask of the assignments that contradict the involution
    identity on a word whose six windows are all pinned.

    For such a word z the pinned values give v = f(z_1..z_6)..f(z_6..z_11);
    if f(v) is pinned too and differs from z_{2s-1}, no completion exists.
    """
    windows, target = _pinned_word_planes(s)
    out = np.zeros(len(assignments), dtype=bool)
    for lo in range(0, len(assignments), _FILTER_ROWS):
        chunk = assignments[lo : lo + _FILTER_ROWS]
        ones = _bit_rows([a.ones_mask for a in chunk])
        defined = _bit_rows([a.def_mask for a in chunk])
        z_defined = defined[:, windows].all(axis=2)
        # packing the six window bits of each word gives v directly
        v = np.packbits(ones[:, windows], axis=2, bitorder="little")[:, :, 0].astype(np.intp)
        fv = np.take_along_axis(ones, v, axis=1)
        v_defined = np.take_along_axis(defined, v, axis=1)
        conflict = z_defined & (v_defined == 1) & (fv != target)
        out[lo : lo + len(chunk)] = conflict.any(axis=1)
    return out


def _extend_assignment(def_mask: int, ones_mask: int, s: int) -> list[int]:
    """All full 64-bit tables extending the pinned windows that satisfy the
    involution identity f(f(z_1..z_6), ..., f(z_6..z_11)) = z_{2s-1}."""
    windows, occ, tbit = _constraints(s)
    UNSET = 2
    table = [UNSET] * WORDS
    cnt = [6] * (1 << 11)
    trail: list[int] = []
    solutions: list[int] = []

    def assign(w: int, val: int) -> bool:
        stack = [(w, val)]
        while stack:
            w, val = stack.pop()
            cur = table[w]
            if cur != UNSET:
                if cur != val:
                    return False
                continue
            table[w] = val
            trail.append(w)
            failed = False
            # the decrement loop must run to completion even on conflict so
            # that undo(), which re-increments per occurrence, stays exact
            for z in occ[w]:
                cnt[z] -= 1
                if not failed and cnt[z] == 0:
                    ws = windows[z]
                    v = (
                        table[ws[0]]
                        | (table[ws[1]] << 1)
                        | (table[ws[2]] << 2)
                        | (table[ws[3]] << 3)
                        | (table[ws[4]] << 4)
                        | (table[ws[5]] << 5)
                    )
                    t = (z >> tbit) & 1
                    cur_v = table[v]
                    if cur_v == UNSET:
                        stack.append((v, t))
                    elif cur_v != t:
                        failed = True
            if failed:
                return False
        return True

    def undo(mark: int):
        while len(trail) > mark:
            w = trail.pop()
            table[w] = UNSET
            for z in occ[w]:
                cnt[z] += 1

    def dfs():
        w = next((i for i in range(WORDS) if table[i] == UNSET), None)
        if w is None:
            solutions.append(sum(table[i] << i for i in range(WORDS)))
            return
        for val in (0, 1):
            mark = len(trail)
            if assign(w, val):
                dfs()
            undo(mark)

    mark0 = len(trail)
    ok = True
    for w in range(WORDS):
        if (def_mask >> w) & 1:
            if not assign(w, (ones_mask >> w) & 1):
                ok = False
                break
    if ok:
        dfs()
    undo(mark0)
    return solutions


def involution_rule_check(rule: Rule, s: int) -> bool:
    """Exact automaton-level involution check at window offset s: the raw
    double self-composition over 11 variables must equal x_{2s-1}."""
    if rule.k != K6:
        return False
    return _involution_table_check(rule.table, s)


def _involution_table_check(table: int, s: int) -> bool:
    tab = table_to_array(table, K6)
    out = _take(tab, _windows(tab, K6, K6))  # f o f
    z = np.arange(1 << 11, dtype=np.uint32)
    want = ((z >> np.uint32(2 * s - 2)) & 1).astype(np.uint8)
    return bool(np.array_equal(out, want))


@dataclass(frozen=True)
class Involution6:
    rule: Rule
    s: int
    class_id: EquivClassId


@dataclass(frozen=True)
class SearchResult:
    """One offset's search.  It keeps the scan's counts, not its survivors:
    those are intermediate and would make up nearly all of its size."""

    s: int
    involutions: tuple[Involution6, ...]
    completions: int  # involutive completions before the tight-diameter filter
    scanned: int  # class-map combinations scanned
    scan_survivors: int  # combinations left by the scan's collision test
    searched: int  # scan survivors left by the pinned-word filter and extended

    @property
    def class_ids(self) -> frozenset:
        return frozenset(i.class_id for i in self.involutions)


def complete_search(s: int, include_complemented: bool = False, jobs: int = 1) -> SearchResult:
    """Extend every surviving assignment over the 20 free windows and keep
    the tight diameter-6 rules; each result is re-verified independently.

    Survivors refuted on a fully pinned word are dropped before the
    extension, whose pinning stage would hit the same conflict."""
    scan = enumerate_periodic_assignments(s, include_complemented)
    refuted = _refuted_by_pinned_words(scan.survivors, s)
    todo = [a for a, r in zip(scan.survivors, refuted.tolist()) if not r]
    tables: list[int] = []
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        payload = [(a.def_mask, a.ones_mask, s) for a in todo]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for sols in pool.map(_extend_worker, payload):
                tables.extend(sols)
    else:
        for a in todo:
            tables.extend(_extend_assignment(a.def_mask, a.ones_mask, s))
    assert len(set(tables)) == len(tables)
    out = []
    for t in sorted(tables):
        if not _involution_table_check(t, s):
            raise LiftforgeError("internal: completion fails the exact involution check")
        try:
            rule = rule_from_table(K6, t)
        except InvalidRuleError:
            continue  # constant table; cannot happen for involutions
        if rule.k != K6:
            continue  # involutive but of smaller diameter
        out.append(Involution6(rule, s, canonicalize(rule)))
    return SearchResult(s, tuple(out), len(tables), scan.scanned, len(scan.survivors), len(todo))


def _extend_worker(args) -> list[int]:
    return _extend_assignment(*args)


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
    s=2, and the pool is deduplicated at the function level."""
    by = {}
    functions = set()
    classes = set()
    for s in (2, 3):
        res = complete_search(s, include_complemented, jobs)
        by[s] = res
        for inv in res.involutions:
            functions.add(inv.rule.table)
            classes.add(inv.class_id)
    for s_src, s_dst in ((3, 4), (2, 5)):
        revs = []
        for inv in by[s_src].involutions:
            rr = reverse(inv.rule)
            if not involution_rule_check(rr, s_dst):
                raise LiftforgeError("internal: reversal does not carry the involution")
            revs.append(Involution6(rr, s_dst, canonicalize(rr)))
            functions.add(rr.table)
            classes.add(revs[-1].class_id)
        by[s_dst] = revs
    return PooledSearch(by, frozenset(functions), frozenset(classes))
