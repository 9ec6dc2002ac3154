"""Landscape notation: parsing, compilation, the pairing criterion, sets,
and full enumeration with class counting.

A landscape is a string over {0, 1, -, ★} with exactly one interior star
and 0/1 at both ends.  Writing s for the 1-based star position, the symbol
at string position p (p != s) is the pattern bit eps_{p-s}; the compiled
rule flips x_s exactly when every defined pattern position matches:

    f(x) = x_s XOR prod over defined d of (x_{s+d} XOR eps_d XOR 1)

The product is one cube of literals, and a set of landscapes flips x_s on
the OR of its members' cubes; ``corefn.cube_table`` writes the table (and
the f + x_j of ``check_shift_product``), refusing a window past
MAX_DIAMETER before the table exists.

``enumerate_conserved`` lists and counts the conserved landscapes of one
length in one process, with one kernel per star: the candidates come as
(defined, ones) bitmask arrays built from two digit tables, the pairing
criterion filters them, and on the centre star the same pass counts the
Burnside fixed points that turn the count into a class count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .corefn import (
    LiftforgeError,
    Rule,
    _normalize,
    _rev_index,
    _windows,
    array_to_table,
    cube_table,
    essential_vars,
)
from .lifting import CapExceededError

STAR = "★"
DASH = "-"


class InvalidLandscapeError(LiftforgeError):
    def __init__(self, msg: str, text: str = "", pos: Optional[int] = None):
        loc = f" (at position {pos})" if pos is not None else ""
        super().__init__(f"{msg}{loc}" + (f" in {text!r}" if text else ""))
        self.pos = pos


@dataclass(frozen=True)
class Landscape:
    """A validated landscape string; ``s`` is the 1-based star position."""

    symbols: str
    s: int

    @property
    def k(self) -> int:
        return len(self.symbols)

    def offsets(self) -> dict[int, int]:
        """Defined pattern bits keyed by offset d from the star (d != 0)."""
        out = {}
        for p, ch in enumerate(self.symbols, start=1):
            if ch in "01":
                out[p - self.s] = int(ch)
        return out

    def ascii(self) -> str:
        return self.symbols.replace(STAR, "*")

    def __str__(self) -> str:
        return self.symbols


def parse_landscape(text: str) -> Landscape:
    """Parse a landscape; ASCII '*' is accepted for the star."""
    s = text.strip().replace("*", STAR)
    if not s:
        raise InvalidLandscapeError("empty landscape", text)
    star_at = None
    for p, ch in enumerate(s):
        if ch == STAR:
            if star_at is not None:
                raise InvalidLandscapeError("more than one star", text, p)
            star_at = p
        elif ch not in "01-":
            raise InvalidLandscapeError(f"bad symbol {ch!r}", text, p)
    if star_at is None:
        raise InvalidLandscapeError("no star", text)
    if star_at in (0, len(s) - 1):
        raise InvalidLandscapeError("star must be interior", text, star_at)
    if s[0] not in "01":
        raise InvalidLandscapeError("first symbol must be 0 or 1", text, 0)
    if s[-1] not in "01":
        raise InvalidLandscapeError("last symbol must be 0 or 1", text, len(s) - 1)
    return Landscape(s, star_at + 1)


def _masks(l: Landscape) -> tuple[int, int]:
    """(defined, ones) bitmasks over 0-based string positions."""
    D = O = 0
    for p, ch in enumerate(l.symbols):
        if ch in "01":
            D |= 1 << p
            if ch == "1":
                O |= 1 << p
    return D, O


def is_conserved(l: Landscape) -> bool:
    """Pairing criterion: every defined offset d1 admits d2 with the d2-th
    and (d1+d2)-th symbols being 0 and 1 in some order."""
    D, O = _masks(l)
    Z = D & ~O
    q = l.s - 1
    for p1 in range(l.k):
        if not (D >> p1) & 1:
            continue
        t = p1 - q
        if t >= 0:
            found = (Z & (O >> t)) | (O & (Z >> t))
        else:
            found = (Z & (O << -t)) | (O & (Z << -t))
        if not found:
            return False
    return True


def check_shift_product(r: Rule) -> Optional[int]:
    """Smallest j such that f + x_j ignores x_j and all shifted products
    (f(x) + x_j)(f(shifted x) + x_{j+t}) vanish identically; None if no j.

    Success implies the induced maps square to the identity.
    """
    k = r.k
    arr = r.table_array()
    for j in range(1, k + 1):
        g = arr ^ cube_table(k, j)
        g_t = array_to_table(g)
        if g_t == 0:
            return j  # f == x_j exactly; nothing left to depend on
        ess = essential_vars(g_t, k)
        if (ess >> (j - 1)) & 1:
            continue  # f + x_j still depends on x_j
        # bit t of a window entry is g at offset t, so bit t of ``clash`` is
        # set iff g is 1 at offsets 0 and t of some word; the product for a
        # shift t < 0 is the same condition at |t|
        w = _windows(g, k, k)
        clash = int(np.bitwise_or.reduce(w[(w & 1) == 1]))
        if not any((clash >> abs(d + 1 - j)) & 1 for d in range(k) if (ess >> d) & 1):
            return j
    return None


# ---------------------------------------------------------------------------
# sets of landscapes


@dataclass(frozen=True)
class LandscapeSet:
    """Nonempty set of landscapes aligned on their stars."""

    members: tuple[Landscape, ...]

    def __post_init__(self):
        if not self.members:
            raise InvalidLandscapeError("empty landscape set")


def compile_set(S: LandscapeSet | Iterable[Landscape]) -> Rule:
    """Rule flipping the star bit when at least one member pattern matches."""
    members = tuple(S.members if isinstance(S, LandscapeSet) else S)
    if not members:
        raise InvalidLandscapeError("empty landscape set")
    dmin = min(1 - l.s for l in members)
    dmax = max(l.k - l.s for l in members)
    K = dmax - dmin + 1
    s = 1 - dmin  # star position in the combined window
    cubes = []
    for l in members:
        D, O = _masks(l)
        cubes.append((O << (s - l.s), (D & ~O) << (s - l.s)))
    return _normalize(K, array_to_table(cube_table(K, s, cubes)))


def compile_landscape(l: Landscape) -> Rule:
    """Truth table of the landscape's flip rule (normalized; already tight)."""
    return compile_set((l,))


# ---------------------------------------------------------------------------
# string-level orbit of the elementary equivalence group


def reverse_landscape(l: Landscape) -> Landscape:
    return parse_landscape(l.symbols[::-1])


def complement_landscape(l: Landscape) -> Landscape:
    flipped = l.symbols.translate(str.maketrans("01", "10"))
    return parse_landscape(flipped)


def landscape_orbit(l: Landscape) -> tuple[Landscape, ...]:
    out = {}
    for cand in (
        l,
        reverse_landscape(l),
        complement_landscape(l),
        complement_landscape(reverse_landscape(l)),
    ):
        out.setdefault(cand.symbols, cand)
    return tuple(out[s] for s in sorted(out))


def canonical_symbols(l: Landscape) -> str:
    return min(m.symbols for m in landscape_orbit(l))


# ---------------------------------------------------------------------------
# enumeration

_ENUM_MIN_K = 4
_ENUM_MAX_K = 18
# a listing holds one Landscape per entry, about 250 bytes each: k=14 peaks
# at 724 MiB and the count grows about 3.5x per k, so k=16 would need ~9 GiB
_LIST_MAX_K = 15
_CHUNK = 1 << 15  # candidates per block: its few uint32 arrays stay in cache


def _digit_table(D: np.ndarray, O: np.ndarray, positions) -> tuple[np.ndarray, np.ndarray]:
    """Extend the (D, O) mask table by one base-3 digit per position, each
    more significant than the last: digit 0 writes '0', 1 writes '1' and 2
    leaves '-'."""
    for p in positions:
        D = (np.array([1, 1, 0], dtype=D.dtype)[:, None] << p | D).ravel()
        O = (np.array([0, 1, 0], dtype=O.dtype)[:, None] << p | O).ravel()
    return D, O


def _pairing_ok(D: np.ndarray, O: np.ndarray, k: int, q: int) -> np.ndarray:
    """``is_conserved`` for every (D, O) candidate with 0-based star q.  The
    pairs found at offset -t are those at t shifted by t, so one test at
    t > 0 serves both defined positions q - t and q + t."""
    Z = D & ~O
    bad = np.zeros(D.shape, dtype=bool)
    for t in range(1, max(q, k - 1 - q) + 1):
        req = sum(1 << p for p in (q - t, q + t) if 0 <= p < k)
        bad |= ((D & req) != 0) & (((Z & (O >> t)) | (O & (Z >> t))) == 0)
    return ~bad


def _conserved_counts_for_star(k: int, q: int, collect: bool):
    """Count (and optionally collect) conserved landscapes with 0-based star q.

    A candidate's index holds the 2 end bits, then one base-3 digit per
    interior non-star position (see ``_digit_table``).  The candidates are
    the outer OR of a low table (end bits and the lower half of the digits)
    and a high table (the other digits), taken a block of high rows at a
    time, so they come in index order.  Returns (count, (rev, rc) fixed
    points, list of (D, O) packed masks): the fixed points of reversal and
    of reversal-plus-complement are counted on the survivors of the centre
    star (k odd), the only star either maps to itself.
    """
    interior = [p for p in range(1, k - 1) if p != q]
    half = len(interior) // 2
    ends = 1 | 1 << (k - 1)
    lo_D, lo_O = _digit_table(
        np.full(4, ends, dtype=np.uint32), np.array([0, 1, 1 << (k - 1), ends], dtype=np.uint32), interior[:half]
    )
    hi_D, hi_O = _digit_table(np.zeros(1, dtype=np.uint32), np.zeros(1, dtype=np.uint32), interior[half:])
    centre = 2 * q == k - 1
    rev = _rev_index(k) if centre else None
    count = f_rev = f_rc = 0
    survivors = []
    rows = max(1, _CHUNK // lo_D.size)
    for h in range(0, hi_D.size, rows):
        D = (hi_D[h : h + rows, None] | lo_D).ravel()
        O = (hi_O[h : h + rows, None] | lo_O).ravel()
        good = _pairing_ok(D, O, k, q)
        D, O = D[good], O[good]
        count += D.size
        if centre:
            mirror = rev[D] == D
            rev_O = rev[O]
            f_rev += int(np.count_nonzero(mirror & (rev_O == O)))
            f_rc += int(np.count_nonzero(mirror & (rev_O == D & ~O)))
        if collect:
            survivors.append(np.stack([D, O], axis=1))
    return count, (f_rev, f_rc), survivors


def _decode_block(k: int, q: int, block: np.ndarray) -> list[str]:
    """Symbols of packed (D, O) survivors with 0-based star q, in block order."""
    pos = np.arange(k)
    defined = (block[:, :1] >> pos) & 1
    ones = (block[:, 1:] >> pos) & 1
    codes = np.where(defined == 1, ord("0") + ones, ord(DASH)).astype(np.uint32)
    codes[:, q] = ord(STAR)
    return codes.view(f"<U{k}").ravel().tolist()


class ListingCapError(CapExceededError):
    """A landscape listing was asked for above the length it can hold."""


@dataclass(frozen=True)
class EnumerationResult:
    k: int
    count: int
    class_count: int
    landscapes: Optional[tuple[Landscape, ...]] = None

    def to_json(self) -> dict:
        return {"k": self.k, "count": self.count, "classes": self.class_count}


def enumerate_conserved(k: int, include_list: bool = True) -> EnumerationResult:
    """All conserved landscapes of length k with exact orbit-class count.

    One kernel, ``_conserved_counts_for_star``, runs star by star in this
    process: it gives each star's count, its listing blocks and, on the
    centre star, the Burnside fixed points of reversal and of
    reversal-plus-complement in the same pass (pure complement never fixes
    a landscape because the defined ends flip).  The class count from
    Burnside agrees with rule-level canonicalization; the agreement is
    exercised by the test-suite on small k.

    Counts are capped at k <= 18 and the listing (``include_list``) at
    k <= 15: above that it could not fit in memory.  Past either cap a
    ``CapExceededError`` (for the listing, ``ListingCapError``) is raised
    before any work.
    """
    if k < _ENUM_MIN_K:
        raise LiftforgeError(f"enumeration supports {_ENUM_MIN_K} <= k <= {_ENUM_MAX_K}")
    if k > _ENUM_MAX_K:
        raise CapExceededError(f"enumeration supports {_ENUM_MIN_K} <= k <= {_ENUM_MAX_K}")
    if include_list and k > _LIST_MAX_K:
        raise ListingCapError(
            f"a listing of the conserved landscapes stops at k <= {_LIST_MAX_K} "
            f"(k={k} would need several GiB); counts go up to k = {_ENUM_MAX_K}"
        )
    count = fixed = 0
    blocks = []
    for q in range(1, k - 1):
        c, (f_rev, f_rc), survivors = _conserved_counts_for_star(k, q, include_list)
        count += c
        fixed += f_rev + f_rc
        blocks.extend((q, block) for block in survivors)
    if (count + fixed) % 4:
        raise LiftforgeError("internal: conserved landscapes and fixed points do not fill whole orbits")
    landscapes = None
    if include_list:
        landscapes = tuple(
            Landscape(symbols, q + 1) for q, block in blocks for symbols in _decode_block(k, q, block)
        )
    return EnumerationResult(k, count, (count + fixed) // 4, landscapes)


def conserved_class_representatives(k: int) -> list[Landscape]:
    """One landscape per orbit class, by smallest string in the orbit."""
    res = enumerate_conserved(k, include_list=True)
    reps = {}
    for l in res.landscapes:
        reps.setdefault(canonical_symbols(l), l)
    if len(reps) != res.class_count:
        raise LiftforgeError("internal: class representatives disagree with the orbit count")
    return [parse_landscape(s) for s in sorted(reps)]
