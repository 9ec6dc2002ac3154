"""Truth-table and ANF core for Boolean local rules of small arity.

A rule is a Boolean function f(x1..xk) stored as a packed truth table:
bit v of the table is f(v), where bit i of the index v holds the value
of variable x_{i+1} (x1 is the least significant bit).  Rules are kept
normalized: the window is trimmed so that f depends on both x1 and xk,
and the number of positions the window slid during trimming is recorded
in ``shift``.

Composition runs on one kernel.  ``_windows(fa, kf, m)`` gives, for every
input word x of m + kf - 1 bits, the m outputs of f at offsets 0..m-1
packed into one integer; the composite g o f is then the gather
``_take(ga, _windows(fa, kf, g.k))`` (``np.take``, which reads small
unsigned indices about twice as fast as ``ga[...]``).  The window array is
built by doubling: splitting x into (a: q high bits, b: kf - 1 middle
bits, c: p low bits), A_{p+q}[a, b, c] = A_p[b, c] | A_q[a, b] << p, one
numpy broadcast per level and no index arrays.  A stack of tables gives
one window row per table in the same broadcasts.  Large tables are built
in blocks of at most 2**22 entries.  Normalization then trims only the end
variables: ``_end_vars`` scans up from x1 and down from xk and stops at
the first variable each side depends on.

The group {id, reverse, complement, both} is built once, on (n, 2**k)
stacks of tables: ``_images``, then ``_orbit_arrays`` and ``_canon_keys``
(the class key: the lexicographically least image).  ``reverse``,
``complement``, ``orbit`` and ``canonicalize`` are one-row calls; callers
with many rules pass the whole stack to ``_class_ids``.

Every batch kernel (these, ``_lane_degrees``, and the induced maps,
pair-graph verdicts and DDT maxima of ``lifting`` and ``diffunif``) takes
one diameter's raw tables, not necessarily tight, as a (R, 2**k) uint8
stack and k.  One-rule calls pass ``r.table_array()[None]``, and
``_diameter_stacks`` is the one place where a list of rules becomes stacks.

Rules given by a formula (landscapes and their sets, the two families,
f + x_j) are x_s XOR some cubes of literals; ``cube_table`` writes each
cube as one slice of the (2,)*K view of the table.  It, ``from_anf`` and
``Rule`` make the one width check, ``_check_diameter``, before any table.

Passes over many tables are bitsliced (as in Biham's DES, FSE 1997): a
stack of tables of 2**K entries is a row of 2**K lane words (``_lanes``),
bit t of word v being entry v of table t, so each word op acts on a lane
word of tables; a uint8 0/1 table is a one-lane row.  ``_lane_groups``
sizes lane words and chunks of ``_GATHER_CHUNK`` bytes.  ``_gather_lanes``
composes outer lanes over inner window arrays; an outer g written as an
XOR of cubes (``_cube_forms``) composes over the shift planes of inner
lanes (``_lane_planes``, ``_compose_cubes``).  ``_lane_windows`` trims
every lane, ``_lane_cut`` cuts lanes to tables, and ``_lane_degrees``
gives every lane's algebraic degree; ``degree`` is its one-row call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

MAX_DIAMETER = 24


class LiftforgeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRuleError(LiftforgeError):
    pass


class CapExceededError(LiftforgeError):
    """A size cap: the work asked for would outgrow a module constant."""


class ArityCapError(CapExceededError):
    """An operation would need a truth table wider than the configured cap."""


def _check_diameter(k: int) -> None:
    """The one width check every table-building entry point makes first."""
    if not 1 <= k <= MAX_DIAMETER:
        raise InvalidRuleError(f"diameter {k} outside 1..{MAX_DIAMETER}")


def bitmask(n: int) -> int:
    return (1 << n) - 1


# ---------------------------------------------------------------------------
# packed-table helpers


def table_to_array(table: int, k: int) -> np.ndarray:
    """Unpack a truth-table integer into a uint8 array of length 2**k."""
    size = 1 << k
    buf = table.to_bytes((size + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little")[:size]


def array_to_table(arr: np.ndarray) -> int:
    bits = np.packbits(np.asarray(arr, dtype=np.uint8), bitorder="little")
    return int.from_bytes(bits.tobytes(), "little")


@lru_cache(maxsize=64)
def _var_zero_mask(i: int, k: int) -> int:
    """Bitmask over table indices v (k-bit) selecting those with bit i == 0:
    a byte pattern repeated and cut to 2**k bits, linear in 2**k where the
    division formula (2**2**i - 1) * (2**2**k - 1) // (2**2**(i+1) - 1) is
    quadratic in it."""
    if i < 3:
        pattern = (b"\x55", b"\x33", b"\x0f")[i]
    else:
        half = 1 << (i - 3)
        pattern = b"\xff" * half + b"\x00" * half
    return int.from_bytes(pattern * max(1, ((1 << k) >> 3) // len(pattern)), "little") & bitmask(1 << k)


def _depends_on(table: int, k: int, i: int) -> bool:
    return bool(((table >> (1 << i)) ^ table) & _var_zero_mask(i, k))


def _end_vars(table: int, k: int) -> Optional[tuple[int, int]]:
    """Lowest and highest 0-based variable the table depends on, or None
    for a constant table; each scan stops at the first such variable."""
    for i0 in range(k):
        if _depends_on(table, k, i0):
            break
    else:
        return None
    j0 = k - 1
    while not _depends_on(table, k, j0):
        j0 -= 1
    return i0, j0


def essential_vars(table: int, k: int) -> int:
    """Bitmask of 0-based variable indices the table actually depends on."""
    return sum(1 << i for i in range(k) if _depends_on(table, k, i))


def _cube_slice(K: int, ones: int, zeros: int) -> tuple:
    """Index of a cube (bit i of ``ones``/``zeros``: x_{i+1} is 1/0) in the
    (2,)*K view of a table, whose axis a is variable K - a."""
    return tuple(
        1 if (ones >> i) & 1 else 0 if (zeros >> i) & 1 else slice(None) for i in range(K - 1, -1, -1)
    )


def cube_table(K: int, center: int, cubes=()) -> np.ndarray:
    """uint8 table of 2**K entries: x_center XOR the OR of the cubes, each a
    (ones, zeros) pair of masks over the 0-based variables.  K is checked
    before the table exists."""
    _check_diameter(K)
    out = np.zeros(1 << K, dtype=np.uint8)
    view = out.reshape((2,) * K)
    for ones, zeros in cubes:
        view[_cube_slice(K, ones, zeros)] = 1
    view[_cube_slice(K, 1 << (center - 1), 0)] ^= 1
    return out


# ---------------------------------------------------------------------------
# the composition kernel

_BLOCK_BITS = 22  # window arrays wider than 2**22 entries are built in blocks
_TAKE_BITS = 18  # flat gathers over more than 2**18 indices go in slices


def _window_level(levels: dict, lv: int, mid: int) -> np.ndarray:
    """Level lv of the doubling (windows of lv outputs), one row per table,
    built from the levels already in ``levels`` and memoized there.  A
    module function, not a closure, so that no reference cycle keeps the
    levels alive after the build."""
    got = levels.get(lv)
    if got is None:
        p, q = (lv + 1) // 2, lv // 2
        n = levels[1].shape[0]
        lo = _window_level(levels, p, mid).reshape(n, 1, mid, 1 << p)
        hi = (_window_level(levels, q, mid) << p).reshape(n, -1, mid, 1)
        got = levels[lv] = (lo | hi).reshape(n, -1)
    return got


def _window_blocks(fa: np.ndarray, kf: int, m: int) -> Iterator[np.ndarray]:
    """The window array of f (see the module docstring) in consecutive
    blocks of at most 2**22 entries, or of one row of the last level.

    ``fa`` is one table of 2**kf entries or a stack of n such tables; a
    stack gives blocks of shape (n, width), one row per table, and the
    2**22 bound holds for the whole block.  Entries are the smallest
    unsigned dtype that holds m bits.
    """
    dtype = np.uint8 if m <= 8 else np.uint16 if m <= 16 else np.uint32
    fa = np.asarray(fa)
    flat = fa.ndim == 1
    tables = fa.reshape(-1, 1 << kf).astype(dtype, copy=False)
    n = tables.shape[0]
    mid = 1 << (kf - 1)
    levels = {1: tables}

    def out(block: np.ndarray) -> np.ndarray:
        return block.reshape(-1) if flat else block.reshape(n, -1)

    if m == 1:
        yield out(tables)
        return
    # the last level, in blocks of whole rows (a, b), each row 2**p wide
    p, q = (m + 1) // 2, m // 2
    lo = _window_level(levels, p, mid).reshape(n, mid, 1 << p)
    hi = (_window_level(levels, q, mid) << p)[:, :, None]
    rows = max(1, (1 << _BLOCK_BITS) >> (p + (n - 1).bit_length()))
    for r0 in range(0, hi.shape[1], rows):
        if rows >= mid:
            yield out(lo[:, None] | hi[:, r0 : r0 + rows].reshape(n, -1, mid, 1))
        else:
            b0 = r0 & (mid - 1)
            yield out(lo[:, b0 : b0 + rows] | hi[:, r0 : r0 + rows])


def _windows(fa: np.ndarray, kf: int, m: int) -> np.ndarray:
    """The window array of f over m + kf - 1 input bits, in one piece (one
    row per table if ``fa`` is a stack)."""
    blocks = list(_window_blocks(fa, kf, m))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1)


def _take(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[idx]`` for a flat index array, by ``np.take``: about twice as fast
    on small unsigned indices, but it copies them to intp, so indices wider
    than 2**18 entries go in slices (a copy of at most 2 MiB)."""
    step = 1 << _TAKE_BITS
    if idx.size <= step:
        return np.take(a, idx)
    out = np.empty(idx.shape, dtype=a.dtype)
    for i in range(0, idx.size, step):
        np.take(a, idx[i : i + step], out=out[i : i + step])
    return out


def _compose_table(ga: np.ndarray, kg: int, fa: np.ndarray, kf: int) -> int:
    """Packed, untrimmed table of g o f over kg + kf - 1 variables.  It
    gathers in the slices ``_take`` uses and packs each one at once, so no
    gathered block is held."""
    step = 1 << _TAKE_BITS
    packed = (
        np.packbits(np.take(ga, w[i : i + step]), bitorder="little").tobytes()
        for w in _window_blocks(fa, kf, kg)
        for i in range(0, w.size, step)
    )
    return int.from_bytes(b"".join(packed), "little")


# ---------------------------------------------------------------------------
# rules


@dataclass(frozen=True)
class Rule:
    """A normalized local rule: tight diameter k, packed table, window shift.

    ``shift`` records how far the window slid during normalization (the
    offset needed to re-align the rule's induced map with the map of the
    raw table it came from); it accumulates through compositions and is
    ignored by value equality of the underlying Boolean function.
    """

    k: int
    table: int
    shift: int = 0

    def __post_init__(self):
        _check_diameter(self.k)
        if not 0 <= self.table < (1 << (1 << self.k)):
            raise InvalidRuleError("table does not fit 2**k bits")

    # -- basic accessors ---------------------------------------------------

    def table_array(self) -> np.ndarray:
        return table_to_array(self.table, self.k)

    def bit(self, v: int) -> int:
        return (self.table >> v) & 1

    def __call__(self, v: int) -> int:
        return (self.table >> v) & 1

    def same_function(self, other: "Rule") -> bool:
        """True if both rules compute the same Boolean function (shift ignored)."""
        return self.k == other.k and self.table == other.table

    def text(self) -> str:
        return rule_to_text(self)

    def __str__(self) -> str:
        return rule_to_text(self)


def _normalize(k: int, table: int, shift: int = 0) -> Rule:
    """Trim a raw k-variable table to its tight window and record the slide."""
    if k < 1:
        raise InvalidRuleError("rule must have at least one variable")
    ends = _end_vars(table, k)
    if ends is None:
        raise InvalidRuleError("constant rule: diameter undefined")
    i0, j0 = ends
    k2 = j0 - i0 + 1
    if k2 > MAX_DIAMETER:  # only a raw composite is wider than a Rule
        raise ArityCapError(f"tight diameter {k2}, cap is {MAX_DIAMETER}")
    if k2 == k:
        return Rule(k, table, shift)
    if i0 == 0:
        # only trailing variables dropped: keep the low 2**k2 entries
        return Rule(k2, table & bitmask(1 << k2), shift)
    arr = table_to_array(table, k)
    sub = arr[0 : (1 << k2) << i0 : 1 << i0]
    return Rule(k2, array_to_table(sub), shift - i0)


def rule_from_table(k: int, table) -> Rule:
    """Build a normalized Rule from a diameter-k truth table.

    ``table`` may be a packed integer or a sequence of 2**k bits indexed by
    the input word v (x1 = least significant bit of v).
    """
    _check_diameter(k)
    if isinstance(table, (int, np.integer)):
        t = int(table)
        if not 0 <= t < (1 << (1 << k)):
            raise InvalidRuleError("table does not fit 2**k bits")
    else:
        arr = np.asarray(table, dtype=np.uint8)
        if arr.shape != ((1 << k),):
            raise InvalidRuleError(
                f"table length {arr.size} does not match 2**{k} = {1 << k}"
            )
        if np.any(arr > 1):
            raise InvalidRuleError("table entries must be bits")
        t = array_to_table(arr)
    return _normalize(k, t)


def _diameter_stacks(rules) -> Iterator[tuple[int, list[int], np.ndarray]]:
    """(k, indices, uint8 table stack of shape (len(indices), 2**k)) for each
    diameter of ``rules``, in order of first appearance."""
    by_k: dict[int, list[int]] = {}
    for i, r in enumerate(rules):
        by_k.setdefault(r.k, []).append(i)
    for k, idx in by_k.items():
        yield k, idx, np.stack([rules[i].table_array() for i in idx])


def rule_to_text(r: Rule) -> str:
    digits = max(1, (1 << r.k) // 4)
    return f"{r.k}:{r.table:0{digits}X}"


def rule_from_text(s: str) -> Rule:
    m = re.fullmatch(r"\s*(\d+)\s*:\s*([0-9a-fA-F]+)\s*", s)
    if not m:
        raise InvalidRuleError(f"bad rule literal {s!r}; expected 'k:HEX'")
    return rule_from_table(int(m.group(1)), int(m.group(2), 16))


IDENTITY = Rule(1, 0b10, 0)


def is_identity(r: Rule) -> bool:
    return r.k == 1 and r.table == 0b10


# ---------------------------------------------------------------------------
# the elementary equivalence group: variable reversal and complementation


@lru_cache(maxsize=8)
def _rev_index(k: int) -> np.ndarray:
    """Table index permutation: v with its k bits reversed."""
    idx = np.arange(1 << k, dtype=np.uint32)
    rev = np.zeros_like(idx)
    for b in range(k):
        rev |= ((idx >> b) & 1) << (k - 1 - b)
    rev.flags.writeable = False
    return rev


def _images(tables: np.ndarray, k: int) -> np.ndarray:
    """The four images of each row of ``tables`` (n, 2**k) under the group,
    shape (n, 4, 2**k): identity, reversal f(xk..x1), complement
    f(x XOR 1...1) XOR 1 (the table read backwards, negated), and both."""
    rev = np.take(tables, _rev_index(k), axis=1)
    return np.stack((tables, rev, tables[:, ::-1] ^ 1, rev[:, ::-1] ^ 1), axis=1)


def _row_tables(rows: np.ndarray) -> list[int]:
    """The packed table of each row of bits (``array_to_table`` per row)."""
    return [int.from_bytes(b.tobytes(), "little") for b in np.packbits(rows, axis=1, bitorder="little")]


def _orbit_arrays(tables: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct orbit members of each row of ``tables`` (n, 2**k), in the
    order of ``_images``, as ``(members, owner, m)``: member j is orbit
    member m[j] of row owner[j]."""
    cand = _images(tables, k)
    packed = np.packbits(cand, axis=2)
    same = (packed[:, :, None] == packed[:, None]).all(axis=3)
    keep = ~np.tril(same, -1).any(axis=2)  # unequal to every earlier candidate
    owner = np.repeat(np.arange(len(tables)), keep.sum(axis=1))
    return cand[keep], owner, (np.cumsum(keep, axis=1) - 1)[keep]


def _canon_keys(tables: np.ndarray, k: int) -> np.ndarray:
    """Class key of each row of ``tables`` (n, 2**k): its lexicographically
    least orbit member, packed eight entries to a byte, first entry in the
    top bit, so that byte order is lexicographic order.  The images are
    compared a 64-bit word at a time, keeping a mask of those still least."""
    packed = np.packbits(_images(tables, k), axis=2)
    pad = -packed.shape[2] % 8
    words = (np.pad(packed, ((0, 0), (0, 0), (0, pad))) if pad else packed).view(">u8")
    least = np.ones(words.shape[:2], dtype=bool)
    for c in range(words.shape[2]):
        w = np.where(least, words[:, :, c], np.uint64(2**64 - 1))
        least &= w == w.min(axis=1, keepdims=True)
    return packed[np.arange(len(tables)), least.argmax(axis=1)]


@dataclass(frozen=True)
class EquivClassId:
    """Canonical representative of a rule's elementary equivalence class."""

    k: int
    canon: int

    def text(self) -> str:
        return rule_to_text(self.rule())

    def rule(self) -> Rule:
        return Rule(self.k, self.canon, 0)


def _class_ids(tables: np.ndarray, k: int) -> list[EquivClassId]:
    """The class id of each row of ``tables`` (n, 2**k), from its key."""
    return [EquivClassId(k, t) for t in _row_tables(np.unpackbits(_canon_keys(tables, k), axis=1, count=1 << k))]


def reverse(r: Rule) -> Rule:
    """f'(x1..xk) = f(xk..x1)."""
    return Rule(r.k, _row_tables(_images(r.table_array()[None], r.k)[:, 1])[0], 0)


def complement(r: Rule) -> Rule:
    """f'(x) = f(x XOR 1...1) XOR 1."""
    return Rule(r.k, _row_tables(_images(r.table_array()[None], r.k)[:, 2])[0], 0)


def orbit(r: Rule) -> tuple[Rule, ...]:
    """The distinct members of r's orbit under {id, reverse, complement, both},
    in the order of their tables."""
    members = _orbit_arrays(r.table_array()[None], r.k)[0]
    return tuple(Rule(r.k, t, 0) for t in sorted(_row_tables(members)))


def canonicalize(r: Rule) -> EquivClassId:
    """Class id: the lexicographically smallest table (f(0), f(1), ...) in
    the 4-element orbit.

    The catalog and the searches count classes of functions with f(0) = 0:
    a class is an orbit, under {id, reverse, complement, both}, of such
    functions.  The output negation NOT o f is proper exactly when f is,
    but has f(0) = 1 and is left out.  This function itself applies no such
    filter."""
    return _class_ids(r.table_array()[None], r.k)[0]


# ---------------------------------------------------------------------------
# algebraic normal form


@dataclass(frozen=True)
class Anf:
    """XOR of AND-monomials; each monomial is a frozenset of variable indices."""

    monomials: frozenset

    def masks(self) -> list[int]:
        out = []
        for m in self.monomials:
            mask = 0
            for v in m:
                mask |= 1 << (v - 1)
            out.append(mask)
        return sorted(out)


def _mobius(arr: np.ndarray, k: int) -> np.ndarray:
    """In-place-style binary Moebius transform (its own inverse)."""
    a = arr.copy()
    for i in range(k):
        step = 1 << i
        view = a.reshape(-1, step << 1)
        view[:, step:] ^= view[:, :step]
    return a


def table_to_anf_masks(table: int, k: int) -> list[int]:
    coeff = _mobius(table_to_array(table, k), k)
    return [int(v) for v in np.nonzero(coeff)[0]]


def anf_masks_to_table(masks, k: int) -> int:
    arr = np.zeros(1 << k, dtype=np.uint8)
    for m in masks:
        arr[m] = 1
    return array_to_table(_mobius(arr, k))


def to_anf(r: Rule) -> Anf:
    monos = []
    for m in table_to_anf_masks(r.table, r.k):
        monos.append(frozenset(i + 1 for i in range(r.k) if (m >> i) & 1))
    return Anf(frozenset(monos))


def from_anf(a: Anf) -> Rule:
    """Rule of an ANF, built over the span of its variables: leading absent
    variables slide away into ``shift``, and a span past MAX_DIAMETER is
    refused before any table is built."""
    if not a.monomials:
        raise InvalidRuleError("constant-0 ANF has no diameter")
    used = [v for m in a.monomials for v in m]
    if not used:
        raise InvalidRuleError("constant-1 ANF has no diameter")
    lo = min(used)
    k = max(used) - lo + 1
    _check_diameter(k)
    return _normalize(k, anf_masks_to_table([m >> (lo - 1) for m in a.masks()], k), 1 - lo)


def degree(r: Rule) -> int:
    """Algebraic degree of the rule."""
    return int(_lane_degrees(r.table_array()[None], r.k)[0, 0])


def is_balanced(r: Rule) -> bool:
    return r.table.bit_count() == 1 << (r.k - 1)


# ---------------------------------------------------------------------------
# bitsliced lanes (see the module docstring)

_GATHER_CHUNK = 1 << 18  # bytes of lane words per chunk of composites


def _lane_groups(n: int, k: int) -> Iterator[tuple[int, int, np.dtype, int]]:
    """n lanes in consecutive groups ``(start, stop, lane word, rows)``:
    each word is the narrowest that holds the lanes left, but none whose
    row of 2**k entries passes a chunk's bytes (uint8, 8 lanes, at least),
    so that no row is larger than one composite's byte table; ``rows`` lane
    rows of 2**k words fill a chunk (at least one)."""
    t0 = 0
    while t0 < n:
        size = 1
        while size < 8 and size << 3 < n - t0 and size << (k + 1) <= _GATHER_CHUNK:
            size <<= 1
        yield t0, min(n, t0 + (size << 3)), np.dtype(f"u{size}"), max(1, _GATHER_CHUNK // (size << k))
        t0 += size << 3


def _lanes(tables: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Up to one lane word's bits of tables (n, 2**k) as one row of 2**k
    lane words: bit t of entry v is entry v of table t, and the bits past n
    are 0."""
    packed = np.packbits(tables, axis=0, bitorder="little")
    words = np.zeros((tables.shape[1], dtype.itemsize), dtype=np.uint8)
    words[:, : len(packed)] = packed.T
    return words.view(dtype).ravel()


def _cube_forms(tables: np.ndarray, k: int) -> list[np.ndarray]:
    """Each row of ``tables`` (n, 2**k) as an XOR of cubes, for ``_compose_cubes``.

    A row's form is its fixed-polarity Reed-Muller form with the fewest
    terms: with polarity p, f(y) = h(y ^ p) for the ANF h of f(z ^ p), so
    every monomial of h is a cube of literals y_j (p_j = 0) or not y_j
    (p_j = 1).  One Moebius transform over the last axis of the (n, 2**k,
    2**k) array f[y ^ p] gives all polarities at once; past
    ``_GATHER_CHUNK`` entries it goes in blocks of polarities.

    Entry c of the result gives the c-th cube of every row, smallest first,
    as an (n, L) array of plane indices: j for y_j, k + j for not y_j, and
    the padding 2k (the zero plane; a row with fewer cubes) and 2k + 1
    (the one plane; after a cube's own literals).
    """
    n, size = tables.shape
    zero, one = 2 * k, 2 * k + 1
    p = np.arange(size)
    step = max(1, _GATHER_CHUNK // (n << k))  # polarities per block
    terms = np.concatenate(
        [_mobius(tables[:, p[q : q + step, None] ^ p], k).sum(axis=2) for q in range(0, size, step)], axis=1
    )
    best = terms.argmin(axis=1)
    anf = _mobius(tables[np.arange(n)[:, None], p ^ best[:, None]], k)
    forms = [
        sorted(([j + k * (pol >> j & 1) for j in range(k) if s >> j & 1] for s in np.flatnonzero(f).tolist()), key=len)
        for f, pol in zip(anf, best.tolist())
    ]
    out = []
    for c in range(max(1, max(map(len, forms)))):
        slot = [form[c] if c < len(form) else [zero] for form in forms]
        width = max(1, max(map(len, slot)))
        out.append(np.array([cube + [one] * (width - len(cube)) for cube in slot], dtype=np.intp))
    return out


def _lane_planes(col: np.ndarray, kx: int, kg: int) -> np.ndarray:
    """The literal planes of the lane row ``col`` of tables x (see
    ``_lanes``) over K = kx + kg - 1 variables, for ``_compose_cubes``:
    (2 kg + 2, 2**K) lane words.  Plane j < kg holds x[(v >> j) & (2**kx -
    1)] at entry v, plane kg + j its complement, then the zero and the one
    plane."""
    planes = np.empty((2 * kg + 2, 1 << (kx + kg - 1)), dtype=col.dtype)
    for j in range(kg):
        planes[j].reshape(-1, 1 << kx, 1 << j)[:] = col[:, None]
    np.invert(planes[:kg], out=planes[kg : 2 * kg])
    planes[2 * kg] = 0
    planes[2 * kg + 1] = np.iinfo(col.dtype).max
    return planes


def _compose_cubes(cubes: list[np.ndarray], planes: np.ndarray) -> np.ndarray:
    """g o x for every cube form g of ``_cube_forms`` over the lane planes
    of ``_lane_planes``, as (n, 2**K) lane words: the XOR over the cubes of
    the AND of their literal planes."""
    out = None
    for lits in cubes:
        cube = np.take(planes, lits[:, 0], axis=0)
        for col in lits.T[1:]:
            cube &= np.take(planes, col, axis=0)
        out = cube if out is None else np.bitwise_xor(out, cube, out=out)
    return out


def _gather_lanes(outer: np.ndarray, windows: np.ndarray, k: int) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """x o g for every table x of ``outer`` and every window row of g
    (``_windows(g, kg, kx)``, 2**k entries), in chunks ``(x0, x1, g0, cols)``:
    row c of the lane rows ``cols`` is g0 + c, its lane t is x0 + t."""
    for x0, x1, dtype, n_rows in _lane_groups(len(outer), k):
        col = _lanes(outer[x0:x1], dtype)
        for g0 in range(0, len(windows), n_rows):
            yield x0, x1, g0, _take(col, windows[g0 : g0 + n_rows].ravel()).reshape(-1, 1 << k)


def _lane_windows(cols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest essential variable i0 and tight diameter of every lane of the
    raw k-variable tables ``cols`` (R, 2**k) lane words, each as (R, lane
    bits); the diameter is 0 for a constant lane.  Going up, pass i keeps
    the lanes not constant on some aligned run of 2**(i + 1) entries (a half
    not constant, or the halves' first entries apart): those that depend on
    a variable <= i.  Going down, pass j keeps the lanes whose entries u + s
    2**j differ over s for some u < 2**j: those that depend on a variable >=
    j.  Each pass halves its array, and counting the passes that keep a lane
    gives its ends."""
    r = len(cols)
    below = np.empty((k, r), dtype=cols.dtype)  # lanes depending on a variable <= i
    above = np.empty((k, r), dtype=cols.dtype)  # lanes depending on a variable >= j
    runs = cols[:, 0::2] ^ cols[:, 1::2]
    np.bitwise_or.reduce(runs, axis=1, out=below[0])
    for i in range(1, k):
        s = 1 << i
        runs = runs[:, 0::2] | runs[:, 1::2]
        runs |= cols[:, 0 :: 2 * s] ^ cols[:, s :: 2 * s]
        np.bitwise_or.reduce(runs, axis=1, out=below[i])
    spread = cols[:, : 1 << (k - 1)] ^ cols[:, 1 << (k - 1) :]
    np.bitwise_or.reduce(spread, axis=1, out=above[k - 1])
    for j in range(k - 2, -1, -1):
        h = 1 << j
        spread = spread[:, :h] | spread[:, h:]
        spread |= cols[:, :h] ^ cols[:, h : 2 * h]
        np.bitwise_or.reduce(spread, axis=1, out=above[j])
    n_below, n_above = (
        np.unpackbits(a.view(np.uint8).reshape(k, r, -1), axis=2, bitorder="little").sum(axis=0, dtype=np.intp)
        for a in (below, above)
    )
    return k - n_below, np.maximum(n_below + n_above - k, 0)


def _lane_cut(
    cols: np.ndarray, rows: np.ndarray, lanes: np.ndarray, i0: np.ndarray, width: np.ndarray
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The lanes ``(rows, lanes)`` of ``cols`` (see ``_lane_windows``) cut to
    their tight windows, one uint8 stack per width w: ``(w, at, tables)``,
    where row c of ``tables`` (n, 2**w) is the lane ``at[c]`` and its entry
    j is entry j << i0 of the lane.  A cut lane reads only the byte of each
    of its entries that holds its bit, by one flat ``np.take`` per width."""
    size = cols.itemsize
    flat = cols.view(np.uint8).ravel()
    base = rows * cols.shape[1] * size + (lanes >> 3)
    shift = (lanes & 7).astype(np.uint8)
    out = []
    for w in np.flatnonzero(np.bincount(width)).tolist():
        at = np.flatnonzero(width == w)
        j = (np.arange(1 << w) * size) << i0[at, None]
        out.append((w, at, (np.take(flat, j + base[at, None]) >> shift[at, None]) & 1))
    return out


@lru_cache(maxsize=32)
def _degree_levels(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2**k monomials in order of degree, and where each degree starts."""
    order = np.argsort(np.bitwise_count(np.arange(1 << k)), kind="stable")
    return order, np.searchsorted(np.bitwise_count(order), np.arange(k + 1))


def _lane_degrees(cols: np.ndarray, k: int) -> np.ndarray:
    """Algebraic degree, as (R, lane bits), of every lane of k-variable lane
    rows ``cols`` (R, 2**k): the top degree whose OR of Moebius coefficient
    words holds the lane's bit, or 0 (a constant lane)."""
    order, starts = _degree_levels(k)
    levels = np.bitwise_or.reduceat(_mobius(cols, k)[:, order], starts, axis=1)
    bits = np.unpackbits(levels.view(np.uint8).reshape(len(cols), k + 1, -1), axis=2, bitorder="little")
    return (bits * np.arange(k + 1)[:, None]).max(axis=1)


# ---------------------------------------------------------------------------
# ANF text format: x1..xk, ^ for XOR, * or juxtaposition for AND,
# complemented factors as (x3^1); parsing accepts full XOR/AND/paren nesting.


def render_anf(a: Anf) -> str:
    if not a.monomials:
        return "0"
    terms = []
    for m in sorted(a.monomials, key=lambda m: (len(m), sorted(m))):
        if not m:
            terms.append("1")
        else:
            terms.append("*".join(f"x{v}" for v in sorted(m)))
    return " ^ ".join(terms)


class AnfSyntaxError(LiftforgeError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


_ANF_TOKEN = re.compile(r"\s*(x\d+|[01()^*]|⊕)")


def _anf_tokens(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _ANF_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise AnfSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


def parse_anf(text: str) -> Anf:
    """Parse a polynomial expression over x1..xk into expanded ANF.

    Accepts nested parentheses, '^' or '⊕' for XOR, '*' or juxtaposition
    for AND, and the constants 0 and 1.
    """
    tokens = _anf_tokens(text)
    n = len(tokens)
    i = 0

    def xor(a: set, b: set) -> set:
        return a ^ b

    def mul(a: set, b: set) -> set:
        out: set = set()
        for m1 in a:
            for m2 in b:
                out ^= {m1 | m2}
        return out

    def parse_expr() -> set:
        nonlocal i
        acc = parse_term()
        while i < n and tokens[i][0] in ("^", "⊕"):
            i += 1
            acc = xor(acc, parse_term())
        return acc

    def parse_term() -> set:
        nonlocal i
        acc = parse_factor()
        while i < n:
            tok = tokens[i][0]
            if tok == "*":
                i += 1
                acc = mul(acc, parse_factor())
            elif tok.startswith("x") or tok in ("0", "1", "("):
                acc = mul(acc, parse_factor())
            else:
                break
        return acc

    def parse_factor() -> set:
        nonlocal i
        if i >= n:
            raise AnfSyntaxError("unexpected end of input", len(text))
        tok, pos = tokens[i]
        if tok == "(":
            i += 1
            inner = parse_expr()
            if i >= n or tokens[i][0] != ")":
                raise AnfSyntaxError("unbalanced parenthesis", pos)
            i += 1
            return inner
        if tok == "0":
            i += 1
            return set()
        if tok == "1":
            i += 1
            return {0}
        if tok.startswith("x"):
            i += 1
            v = int(tok[1:])
            if v < 1:
                raise AnfSyntaxError("variable indices start at x1", pos)
            return {1 << (v - 1)}
        raise AnfSyntaxError(f"unexpected token {tok!r}", pos)

    masks = parse_expr()
    if i < n:
        raise AnfSyntaxError(f"trailing input {tokens[i][0]!r}", tokens[i][1])
    monos = []
    for m in masks:
        monos.append(frozenset(b + 1 for b in range(m.bit_length()) if (m >> b) & 1))
    return Anf(frozenset(monos))


def rule_from_anf_text(text: str) -> Rule:
    return from_anf(parse_anf(text))
