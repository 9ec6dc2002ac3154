"""Bundled catalog of the 120 diameter-6 composition expressions with their
stated degrees and per-length differential uniformities, plus the
verification harness, the chain-closure search, and the degree-2
composition probe.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

import numpy as np

from .corefn import (
    EquivClassId,
    LiftforgeError,
    Rule,
    _canon_keys,
    _class_ids,
    _mobius,
    _orbit_arrays,
    _row_tables,
    _take,
    _windows,
    array_to_table,
    degree,
    is_balanced,
)
from .diffunif import DEFAULT_DU_CAP, LengthRangeError, _check_du_cap, _ddt_maxima
from .exprlang import LiftExpr, eval_expr, parse_expr
from .landscape import compile_landscape, enumerate_conserved
from .lifting import DEFAULT_ARITY_CAP, decide_proper

CATALOG_RESOURCE = "appendix_a.tsv"
CATALOG_SHA256 = "bd0be47ea0d5d69c6ef0b6c5bc139cb653b3bd9f0643b9d23811546a657387bb"
CATALOG_SIZE = 120
DEGREE_COUNTS = {3: 1, 4: 42, 5: 77}
DU_RANGE = (6, 12)


class CatalogError(LiftforgeError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    index: int
    text: str
    expr: LiftExpr
    stated_degree: int
    stated_du: Optional[tuple[int, ...]]
    highlight: bool

    def rule(self) -> Rule:
        return eval_expr(self.expr)


def _catalog_bytes() -> bytes:
    return resources.files("liftforge").joinpath("data", CATALOG_RESOURCE).read_bytes()


def load_catalog() -> list[CatalogEntry]:
    """Parse and structurally validate the bundled 120-entry table."""
    raw = _catalog_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != CATALOG_SHA256:
        raise CatalogError(f"catalog checksum mismatch: {digest}")
    rows = []
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CatalogError(f"line {lineno}: expected 3 tab-separated fields")
        text, deg_s, du_s = parts
        du = None if du_s.strip() == "-" else tuple(int(v) for v in du_s.split(","))
        if du is not None and len(du) != DU_RANGE[1] - DU_RANGE[0] + 1:
            raise CatalogError(f"line {lineno}: expected 7 differential-uniformity values")
        rows.append((text, int(deg_s), du))
    if len(rows) != CATALOG_SIZE:
        raise CatalogError(f"expected {CATALOG_SIZE} entries, found {len(rows)}")
    per_degree: dict[int, int] = {}
    for _, d, _ in rows:
        per_degree[d] = per_degree.get(d, 0) + 1
    if per_degree != DEGREE_COUNTS:
        raise CatalogError(f"per-degree counts {per_degree} != {DEGREE_COUNTS}")
    # the two lowest final-column values per degree table are the highlighted ones
    highlights: set[int] = set()
    for d in (4, 5):
        rows_d = [(i, r[2][-1]) for i, r in enumerate(rows) if r[1] == d and r[2]]
        rows_d.sort(key=lambda t: t[1])
        highlights.update(i for i, _ in rows_d[:2])
    out = []
    for i, (text, d, du) in enumerate(rows):
        out.append(CatalogEntry(i, text, parse_expr(text), d, du, i in highlights))
    return out


@dataclass
class Problem:
    index: int
    kind: str
    detail: str

    def __str__(self):
        return f"entry {self.index}: {self.kind}: {self.detail}"


@dataclass
class CatalogReport:
    problems: list[Problem] = field(default_factory=list)
    checked_du_range: Optional[tuple[int, int]] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        if self.ok:
            return "catalog verification clean"
        return "\n".join(str(p) for p in self.problems)


def verify_catalog(
    entries: Optional[list[CatalogEntry]] = None,
    check_du: bool = False,
    du_to: int = 12,
    required_classes=None,
) -> CatalogReport:
    """Check diameter, degree, properness, balance and pairwise class
    distinctness of every entry; optionally the stated per-length
    differential uniformities and containment of a set of class ids.

    The class ids come from one stacked call, the DU values for every
    checked entry at once, one length at a time, and each entry's problems
    are reported together, in the order of the checks."""
    if check_du:  # refused before any rule is built
        _check_du_cap(du_to, DEFAULT_DU_CAP)
        if not DU_RANGE[0] <= du_to <= DU_RANGE[1]:
            raise LengthRangeError(f"DU values are stated for n = {DU_RANGE[0]}..{DU_RANGE[1]}, got du_to={du_to}")
    entries = entries if entries is not None else load_catalog()
    report = CatalogReport()
    seen: dict[EquivClassId, int] = {}
    classes = set()
    per_entry: list[list[Problem]] = []
    du_checked: list[tuple[list[Problem], CatalogEntry, Rule]] = []
    rules = [e.rule() for e in entries]
    six = np.array([r.table_array() for r in rules if r.k == 6], dtype=np.uint8).reshape(-1, 64)
    cids = iter(_class_ids(six, 6))  # one per diameter-6 entry, in entry order
    for e, r in zip(entries, rules):
        problems: list[Problem] = []
        per_entry.append(problems)
        if r.k != 6:
            problems.append(Problem(e.index, "diameter", f"got {r.k}"))
            continue
        d = degree(r)
        if d != e.stated_degree:
            problems.append(Problem(e.index, "degree", f"stated {e.stated_degree}, computed {d}"))
        if not is_balanced(r):
            problems.append(Problem(e.index, "balance", "table is not balanced"))
        cid = next(cids)
        if cid in seen:
            problems.append(Problem(e.index, "duplicate-class", f"same class as entry {seen[cid]}"))
        seen[cid] = e.index
        classes.add(cid)
        verdict = decide_proper(r)
        if not verdict.proper:
            problems.append(Problem(e.index, "not-proper", verdict.to_json()))
        if check_du and e.stated_du is not None:
            du_checked.append((problems, e, r))
    if du_checked:
        lo = DU_RANGE[0]
        rules = [r for _, _, r in du_checked]
        for n in range(lo, du_to + 1):
            for (problems, e, _), (raw, _) in zip(du_checked, _ddt_maxima(rules, n)):
                stated = e.stated_du[n - lo]
                if raw != stated:
                    problems.append(Problem(e.index, "du", f"n={n}: stated {stated}, computed {raw}"))
        report.checked_du_range = (lo, du_to)
    report.problems = [p for problems in per_entry for p in problems]
    if required_classes is not None:
        missing = set(required_classes) - classes
        for cid in sorted(missing, key=lambda c: c.text()):
            report.problems.append(Problem(-1, "missing-class", cid.text()))
    return report


def catalog_function_pool(entries: Optional[list[CatalogEntry]] = None) -> list[Rule]:
    """Orbit expansion of the catalog classes (all members are constant-free)."""
    entries = entries if entries is not None else load_catalog()
    rules = [e.rule() for e in entries]
    seen: dict[int, Rule] = {}
    for k in sorted({r.k for r in rules}):
        members = _orbit_arrays(np.stack([r.table_array() for r in rules if r.k == k]), k)[0]
        for t in _row_tables(members):
            seen.setdefault(t, Rule(k, t, 0))
    return [seen[t] for t in sorted(seen)]


# ---------------------------------------------------------------------------
# closure search


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of :func:`closure_search`.

    ``discovered_classes`` counts every class of the chain closure (diameter
    2..``max_diameter``) seen so far, ``found_classes`` holds those of
    diameter <= 6 and degree >= 2, and ``compositions`` counts truth-table
    compositions spent.  If ``exhausted`` is set the budget ran out before
    the fixpoint, and both class sets are a correct lower bound.
    """

    max_diameter: int
    found_classes: frozenset
    discovered_classes: int
    compositions: int
    exhausted: bool

    @property
    def found_count(self) -> int:
        return len(self.found_classes)


def default_generators() -> list[Rule]:
    """All conserved-landscape functions of diameter 4..6 (90 rules)."""
    gens = []
    for k in (4, 5, 6):
        res = enumerate_conserved(k, include_list=True)
        gens.extend(compile_landscape(l) for l in res.landscapes)
    gens.sort(key=lambda r: (r.k, r.table))
    return gens


_CLASS_BLOCK = 64  # known classes extended together
_GATHER_CHUNK = 1 << 18  # bytes per chunk of composites, gathered or packed

# bit v of a 64-bit word is table entry v; mask i keeps the v whose bit i is 0
_WORD_SHIFTS = np.array([1, 2, 4, 8, 16, 32], dtype=np.uint64)
_WORD_MASKS = np.array(
    [
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x00FF00FF00FF00FF,
        0x0000FFFF0000FFFF,
        0x00000000FFFFFFFF,
    ],
    dtype=np.uint64,
)


def _packed(rows: np.ndarray, k: int) -> np.ndarray:
    """Raw k-variable table rows (uint8 bits) as uint64 words, table entry v
    at bit v % 64 of word v // 64; a row of fewer than 64 entries is tiled
    to 64, so that variables k..5 are dummies."""
    if k < 6:
        rows = np.tile(rows, (1, 1 << (6 - k)))
    return np.packbits(rows, axis=1, bitorder="little").view("<u8")


def _depends(words: np.ndarray, i: int) -> np.ndarray:
    """Whether each row of words (see ``_packed``) depends on variable i: for
    i < 6 inside the words (entry v against entry v + 2**i, over the v whose
    bit i is 0), for i >= 6 by comparing the two halves of each run of
    2**(i - 5) words, which differ only in i."""
    if i < 6:
        return (((words >> _WORD_SHIFTS[i]) ^ words) & _WORD_MASKS[i]).any(axis=1)
    halves = words.reshape(len(words), -1, 2, 1 << (i - 6))
    return (halves[:, :, 0] != halves[:, :, 1]).any(axis=(1, 2))


def _first_dependence(words: np.ndarray, order) -> np.ndarray:
    """The first variable in ``order`` each row of words depends on, or -1:
    one pass per variable over the rows still open."""
    first = np.full(len(words), -1)
    rows = np.arange(len(words))
    for i in order:
        dep = _depends(words, i)
        first[rows[dep]] = i
        if dep.all():
            break
        rows, words = rows[~dep], words[~dep]
    return first


def _trimmed_windows(words: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest essential variable i0 and tight diameter of each raw
    k-variable table, given as rows of words (see ``_packed``); the
    diameter is 0 for a constant table.  Like ``corefn._end_vars``, the
    scans go up from the lowest and down from the highest variable and stop
    at the first one each row depends on."""
    i0 = _first_dependence(words, range(k))
    width = np.zeros(len(words), dtype=np.intp)
    live = np.flatnonzero(i0 >= 0)
    width[live] = _first_dependence(words[live], range(k - 1, -1, -1)) + 1 - i0[live]
    return np.maximum(i0, 0), width


def _cut(words: np.ndarray, keep: np.ndarray, i0: np.ndarray, width: np.ndarray, d: int) -> np.ndarray:
    """Rows ``keep`` of the raw tables ``words`` (see ``_packed``) cut to
    their tight windows: entry j of a cut table is entry j << i0 of its
    row.  The cut tables are uint8 bits, stored 2**d wide, each repeated
    past its own width."""
    rows = np.unpackbits(words[keep].view(np.uint8), axis=1, bitorder="little")
    # holds j < 2**d and every index j << i0 < 2**k
    dtype = np.uint16 if max(rows.shape[1], 1 << d) <= 1 << 16 else np.uint32
    j = np.arange(1 << d, dtype=dtype) & ((1 << width[keep]) - 1).astype(dtype)[:, None]
    return np.take_along_axis(rows, j << i0[keep, None].astype(dtype), axis=1)


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


# byte b with every bit doubled, as a little-endian uint16
_SPREAD = np.packbits(
    np.repeat(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"), 2, axis=1),
    axis=1,
    bitorder="little",
).view("<u2")[:, 0]


def _shift_planes(tables: np.ndarray, kx: int, kg: int) -> np.ndarray:
    """The literal planes of the tables x (r, 2**kx) over K = kx + kg - 1
    variables, for ``_compose_cubes``: (2 kg + 2, r, W) uint64 words, W =
    max(2**K, 64) / 64.  Plane j < kg holds x[(v >> j) & (2**kx - 1)] at bit v
    (see ``_packed``), plane kg + j its complement, then the zero and the
    one plane.  Plane j has period 2**(kx + j) in v: x packed to bytes with
    every bit repeated 2**j times, one doubling (``_SPREAD``) per plane,
    then tiled."""
    r = len(tables)
    n_bytes = max(1 << (kx + kg - 1), 64) >> 3
    period = np.packbits(np.tile(tables, (1, max(1, 8 >> kx))), axis=1, bitorder="little")
    planes = np.empty((2 * kg + 2, r, n_bytes >> 3), dtype=np.uint64)
    for j in range(kg):
        if j:
            period = _SPREAD[period].view(np.uint8)
        # below 8 entries x was tiled, so cut to the plane: still a multiple of the period
        width = min(period.shape[1], n_bytes)
        planes[j].view(np.uint8).reshape(r, -1, width)[:] = period[:, None, :width]
    np.invert(planes[:kg], out=planes[kg : 2 * kg])
    planes[2 * kg] = 0
    planes[2 * kg + 1] = ~np.uint64(0)
    return planes


def _compose_cubes(cubes: list[np.ndarray], planes: np.ndarray) -> np.ndarray:
    """g o x for every cube form g of ``_cube_forms`` and every x of
    ``_shift_planes``, as (n, r, W) words (see ``_packed``): the XOR over
    the cubes of the AND of their literal planes."""
    out = None
    for lits in cubes:
        cube = np.take(planes, lits[:, 0], axis=0)
        for col in lits.T[1:]:
            cube &= np.take(planes, col, axis=0)
        out = cube if out is None else np.bitwise_xor(out, cube, out=out)
    return out


def _gather(tables: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Every table row over every window row: ``np.take(tables, windows,
    axis=1)``.  ``np.take`` copies its indices to intp, so a window row wider
    than ``_GATHER_CHUNK`` (one row per chunk then) goes by ``corefn._take``
    in slices."""
    if windows.shape[1] <= _GATHER_CHUNK:
        return np.take(tables, windows, axis=1)
    return np.stack([[_take(t, w) for w in windows] for t in tables])


def closure_search(
    max_diameter: int = 8,
    budget: int = 500_000,
    generators: Optional[list[Rule]] = None,
    arity_cap: int = DEFAULT_ARITY_CAP,
) -> ClosureResult:
    """Chain closure of the generators, collecting its diameter-<=6,
    degree->=2 classes.

    The chain closure is the smallest set of classes that contains the
    generators and is closed under composing one generator on either side,
    whenever the result has diameter <= max_diameter: it holds the
    composition chains of generators grown one atom at a time, each step
    staying within the cap.  Known classes are taken in discovery order,
    and each is composed with every generator class on both sides.

    Intermediates are memoized by equivalence class: reversal and
    complementation both distribute over composition, so composing a class
    representative (left) with every orbit member of the right operand
    covers every class reachable from the underlying function pairs (orbits
    and class keys from ``corefn._orbit_arrays`` and ``_canon_keys``).  If
    the composition budget runs out the result is a correct lower bound and
    ``exhausted`` is set; a negative budget is refused before anything runs.

    Every composition has a place in one sequence: class x, then generator
    class g (g <= x), then g o x before x o g (once if g is x), then the
    orbit member of the right operand.  The budget counts compositions
    along it, and a run that exhausts the budget keeps exactly the
    composites before the cut, also where a pair is cut midway.

    The work goes in blocks of up to ``_CLASS_BLOCK`` known classes.  The
    composites of a block depend only on the block and the generators, so
    they are all computed first and then added in sequence order, which
    gives the classes the order a one-at-a-time search gives them.  The two
    directions compose differently, many pairs at once:

    * g o x: g(y) is an XOR of cubes of literals y_j or not y_j, and
      (g o x)(v) is g at y_j = x(v >> j), so g o x is the same XOR of cubes
      over the packed shift planes of x (bitslicing, as in Biham's DES,
      FSE 1997).  Each generator representative of one diameter is written
      once in its fixed-polarity Reed-Muller form with the fewest terms
      (``_cube_forms``): a conserved landscape is x_s xor one cube, so 2
      terms for every default generator, and any table is accepted.  Each
      chunk of the block's orbit members is packed once into its planes
      (``_shift_planes``), and g o x is then a few word ANDs per pair
      (``_compose_cubes``).
    * x o g: an arbitrary outer x has no short cube form, so it stays a
      gather ``np.take(x, windows)`` (``_gather``) of the stacked block
      representatives of one diameter over the window arrays
      (``corefn._windows``) of every generator orbit member of one
      diameter, which are kept for the whole run; the composites are then
      packed to words (``_packed``).

    Both directions go in chunks of at most ``_GATHER_CHUNK`` bytes and meet
    in one trim on words: a chunk's tight diameters are read from its
    packed words (``_trimmed_windows``), and only the composites of
    diameter 2..max_diameter are unpacked, cut (``_cut``, as wide as the
    chunk's widest kept composite, whatever max_diameter is) and
    canonicalized.  Memory stays bounded by the chunk, one block's
    candidates and the generator windows; the classes themselves keep only
    their representatives.
    """
    if max_diameter < 6:
        raise LiftforgeError("intermediate diameter cap must be >= 6")
    if budget < 0:
        raise LiftforgeError(f"composition budget must be >= 0, got {budget}")
    gens = generators if generators is not None else default_generators()

    ks: list[int] = []  # diameter per discovered class
    reps: list[np.ndarray] = []  # canonical representative tables (uint8)
    known: set[tuple[int, bytes]] = set()
    found: set[EquivClassId] = set()

    def add(k: int, key: np.ndarray) -> None:
        entry = (k, key.tobytes())
        if entry in known:
            return
        known.add(entry)
        rep = np.unpackbits(key, count=1 << k)
        ks.append(k)
        reps.append(rep)
        if k <= 6:
            rule = Rule(k, array_to_table(rep), 0)
            if degree(rule) >= 2:
                found.add(EquivClassId(k, rule.table))

    for g in gens:
        if 1 < g.k <= max_diameter:
            add(g.k, _canon_keys(g.table_array()[None], g.k)[0])
    n_gen = len(ks)
    gen_ks = np.array(ks, dtype=np.int64)
    gen_forms = {}  # diameter -> (generator ids, cube forms of their representatives)
    gen_members = {}  # diameter -> (stacked orbit members, generator id, member index)
    orbit_size = np.zeros(n_gen, dtype=np.int64)
    for kg in sorted(set(ks)):
        ids = np.flatnonzero(gen_ks == kg)
        stack = np.stack([reps[g] for g in ids])
        members, owner, m = _orbit_arrays(stack, kg)
        orbit_size[ids] = np.bincount(owner, minlength=len(ids))
        gen_forms[kg] = (ids, _cube_forms(stack, kg))
        gen_members[kg] = (members, ids[owner], m)
    before = np.concatenate(([0], np.cumsum(orbit_size)))  # orbit members of the generators < g
    gen_windows: dict[tuple[int, int], np.ndarray] = {}  # (diameter, left diameter)

    compositions = 0
    exhausted = False
    x = 0
    while x < len(ks) and not exhausted:
        # classes added meanwhile lie beyond the block and are extended in turn
        block = np.arange(x, min(len(ks), x + _CLASS_BLOCK))
        bks = np.array(ks[x : x + len(block)])
        groups = []
        n_orbit = np.empty(len(block), dtype=np.int64)
        for kx in sorted(set(bks.tolist())):
            sel = np.flatnonzero(bks == kx)
            stack = np.stack([reps[i] for i in block[sel]])
            members, owner, m = _orbit_arrays(stack, kx)
            n_orbit[sel] = np.bincount(owner, minlength=len(sel))
            groups.append((kx, sel, stack, members, sel[owner], m))
        n_pairs = np.minimum(n_gen, block + 1)  # generators g <= x
        per_class = n_pairs * n_orbit + before[n_pairs] - np.where(block < n_gen, n_orbit, 0)
        start = compositions + np.cumsum(per_class) - per_class  # first index of each class

        candidates: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (index, diameter, table)

        def collect(composites: np.ndarray, k: int, index: np.ndarray, valid: np.ndarray) -> None:
            words = composites.reshape(index.size, -1)
            i0, width = _trimmed_windows(words, k)
            keep = np.flatnonzero(valid.ravel() & (index.ravel() < budget) & (width >= 2) & (width <= max_diameter))
            if keep.size:
                d = int(width[keep].max())
                candidates.append((index.ravel()[keep], width[keep], _cut(words, keep, i0, width, d)))

        for kx, sel, stack, members, member_class, m in groups:
            for kg, (ids, cubes) in gen_forms.items():
                k = kx + kg - 1
                if k > arity_cap:
                    continue
                # g o x: generator cube forms over the block's orbit planes;
                # the planes and the composites each fill at most a chunk's bytes
                bits = _GATHER_CHUNK << 3
                wr = max(1, min(len(members), bits // ((2 * kg + 2) << k)))
                tr = max(1, bits // (wr << k))
                for w0 in range(0, len(members), wr):
                    planes = _shift_planes(members[w0 : w0 + wr], kx, kg)
                    cls = member_class[w0 : w0 + wr]
                    for t0 in range(0, len(ids), tr):
                        g = ids[t0 : t0 + tr, None]
                        index = start[cls] + g * n_orbit[cls] + before[g] + m[w0 : w0 + wr]
                        words = _compose_cubes([c[t0 : t0 + tr] for c in cubes], planes)
                        collect(words, k, index, g < n_pairs[cls])
                # x o g: block representatives over the generator orbit windows
                gmembers, gid, gm = gen_members[kg]
                windows = gen_windows.get((kg, kx))
                if windows is None:
                    windows = gen_windows[kg, kx] = _windows(gmembers, kg, kx)
                # many tables over few window rows: np.take copies the rows to intp
                tr = max(1, min(len(sel), _GATHER_CHUNK >> k))
                wr = max(1, _GATHER_CHUNK // (tr << k))
                for w0 in range(0, len(gmembers), wr):
                    g = gid[w0 : w0 + wr]
                    for t0 in range(0, len(sel), tr):
                        cls = sel[t0 : t0 + tr, None]
                        index = start[cls] + g * n_orbit[cls] + before[g] + n_orbit[cls] + gm[w0 : w0 + wr]
                        valid = (g < n_pairs[cls]) & (g != block[cls])
                        rows = _gather(stack[t0 : t0 + tr], windows[w0 : w0 + wr]).reshape(-1, 1 << k)
                        collect(_packed(rows, k), k, index, valid)

        total = int(per_class.sum())
        if compositions + total > budget:
            compositions, exhausted = budget, True
        else:
            compositions += total
        # add the block's composites in sequence order, each class from its
        # first occurrence; each chunk's tables are as wide as its widest
        # composite, so one diameter is gathered from every chunk at a time
        if candidates:
            index, width = (np.concatenate(a) for a in list(zip(*candidates))[:2])
            firsts = []
            for k2 in np.flatnonzero(np.bincount(width)).tolist():
                at = np.flatnonzero(width == k2)
                order = np.argsort(index[at])
                parts = [t[w == k2, : 1 << k2] for _, w, t in candidates if t.shape[1] >= 1 << k2]
                tables = np.concatenate(parts)[order]
                keys = _canon_keys(tables, k2)
                _, first = np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_index=True)
                firsts.extend(zip(index[at[order[first]]].tolist(), [k2] * len(first), keys[first]))
            for _, k2, key in sorted(firsts, key=lambda t: t[0]):
                add(k2, key)
        x = int(block[-1]) + 1
    return ClosureResult(max_diameter, frozenset(found), len(ks), compositions, exhausted)


# ---------------------------------------------------------------------------
# degree-2 composition probe

PROBE_HEADER = (
    "Universe: the orbit-expanded catalog functions (all constant-free) plus "
    "the orbit-closed conserved-landscape functions of diameter 4 and 5; "
    "'degree <= 6' is read as this diameter-<=6 pool.  All ordered pairs are "
    "composed and the resulting algebraic degree is inspected."
)


@dataclass(frozen=True)
class ProbeReport:
    header: str
    pool_size: int
    pairs: int
    degree2: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.degree2


def _fast_degree_of_composite(ga: np.ndarray, fa: np.ndarray, kg: int, kf: int) -> int:
    """Degree of g o f: the largest monomial of the composite's raw table."""
    coeff = _mobius(_take(ga, _windows(fa, kf, kg)), kg + kf - 1)
    monomials = np.flatnonzero(coeff)
    return int(np.bitwise_count(monomials).max()) if monomials.size else 0


def degree2_probe(entries: Optional[list[CatalogEntry]] = None) -> ProbeReport:
    """Compose every ordered pair from the probe pool and look for an
    algebraic-degree-2 result; the expectation is that none exists."""
    pool = catalog_function_pool(entries)
    for k in (4, 5):
        res = enumerate_conserved(k, include_list=True)
        seen = {r.table for r in pool}
        for l in res.landscapes:
            r = compile_landscape(l)
            if r.table not in seen:
                pool.append(r)
                seen.add(r.table)
    pool.sort(key=lambda r: (r.k, r.table))
    arrays = [(r.table_array(), r.k, r.text()) for r in pool]
    hits = []
    pairs = 0
    for ga, kg, gt in arrays:
        for fa, kf, ft in arrays:
            pairs += 1
            if _fast_degree_of_composite(ga, fa, kg, kf) == 2:
                hits.append((gt, ft))
    return ProbeReport(PROBE_HEADER, len(pool), pairs, tuple(hits))
