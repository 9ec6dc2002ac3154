"""Bundled catalog of the 120 diameter-6 composition expressions with their
stated degrees and per-length differential uniformities, plus the
verification harness, the chain-closure search, and the degree-2
composition probe.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterator, Optional

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
)
from .diffunif import DEFAULT_DU_CAP, LengthRangeError, _check_du_cap, _ddt_maxima
from .exprlang import LiftExpr, eval_expr, parse_expr
from .landscape import compile_landscape, enumerate_conserved
from .lifting import DEFAULT_ARITY_CAP, _pair_graph_verdicts

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

    Every check of the diameter-6 entries is one pass over their stack: the
    class ids and the properness verdicts come from one stacked call each,
    the degrees from one Moebius transform and a popcount of the monomials,
    the balance from one count.  The DU values come for every checked entry
    at once, one length at a time, and each entry's problems are reported
    together, in the order of the checks."""
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
    six_rules = [r for r in rules if r.k == 6]
    six = np.array([r.table_array() for r in six_rules], dtype=np.uint8).reshape(-1, 64)
    degrees = (_mobius(six, 6) * np.bitwise_count(np.arange(64, dtype=np.uint8))).max(axis=1, initial=0).tolist()
    balance = (np.count_nonzero(six, axis=1) == 32).tolist()
    # one tuple per diameter-6 entry, in entry order
    checks = zip(_class_ids(six, 6), degrees, balance, _pair_graph_verdicts(six_rules))
    for e, r in zip(entries, rules):
        problems: list[Problem] = []
        per_entry.append(problems)
        if r.k != 6:
            problems.append(Problem(e.index, "diameter", f"got {r.k}"))
            continue
        cid, d, balanced, verdict = next(checks)
        if d != e.stated_degree:
            problems.append(Problem(e.index, "degree", f"stated {e.stated_degree}, computed {d}"))
        if not balanced:
            problems.append(Problem(e.index, "balance", "table is not balanced"))
        if cid in seen:
            problems.append(Problem(e.index, "duplicate-class", f"same class as entry {seen[cid]}"))
        seen[cid] = e.index
        classes.add(cid)
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
_GATHER_CHUNK = 1 << 18  # bytes of lane words per chunk of composites


def _lane_groups(n: int, k: int) -> Iterator[tuple[int, int, np.dtype]]:
    """n lanes in consecutive groups ``(start, stop, lane word)``: each word
    is the narrowest that holds the lanes left, but none whose row of 2**k
    entries passes a chunk's bytes (uint8, 8 lanes, at least), so that no
    row is larger than one composite's byte table."""
    t0 = 0
    while t0 < n:
        size = 1
        while size < 8 and size << 3 < n - t0 and size << (k + 1) <= _GATHER_CHUNK:
            size <<= 1
        yield t0, min(n, t0 + (size << 3)), np.dtype(f"u{size}")
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
    for w in np.unique(width).tolist():
        at = np.flatnonzero(width == w)
        j = (np.arange(1 << w) * size) << i0[at, None]
        out.append((w, at, (np.take(flat, j + base[at, None]) >> shift[at, None]) & 1))
    return out


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
    gives the classes the order a one-at-a-time search gives them.

    Composites are bitsliced (as in Biham's DES, FSE 1997): a raw
    K-variable composite is a row of 2**K lane words, and bit t of word v
    is entry v of composite t, so each word op acts on a whole lane word of
    composites at once.  The two directions compose differently:

    * g o x: g(y) is an XOR of cubes of literals y_j or not y_j, and
      (g o x)(v) is g at y_j = x(v >> j), so g o x is the same XOR of cubes
      over the shift planes of x.  Each generator representative of one
      diameter is written once in its fixed-polarity Reed-Muller form with
      the fewest terms (``_cube_forms``): a conserved landscape is x_s xor
      one cube, so 2 terms for every default generator, and any table is
      accepted.  The block's orbit members of one diameter kx go into lane
      rows of 2**kx words (``_lanes``), each row into its planes
      (``_lane_planes``: plane j is the row at (v >> j) & (2**kx - 1)), and
      g o x is then a few word ANDs per generator and entry, for every
      member of the lane word (``_compose_cubes``).
    * x o g: an arbitrary outer x has no short cube form, so it stays a
      gather: the lane row of the block representatives of one diameter is
      gathered over the window arrays (``corefn._windows``) of every
      generator orbit member of one diameter, which are kept for the whole
      run, so each gathered word gives one composite per lane.

    Lane words are the narrowest that hold the lanes left, and past
    ``_GATHER_CHUNK`` bytes per row narrower still, down to 8 lanes
    (``_lane_groups``), so no row is larger than one composite's byte
    table.  Both directions go in chunks of at most ``_GATHER_CHUNK`` bytes
    (or one row) and meet in one trim and one cut: ``_lane_windows`` finds
    every lane's tight window in 2K halving passes, and only the lanes of
    diameter 2..max_diameter are cut to tables exactly as wide as their own
    windows (``_lane_cut``), whatever max_diameter is.  The cut tables of
    one diameter are canonicalized once they fill a chunk's bytes, and the
    block holds only their packed class keys until it adds them.  Memory
    stays bounded by the chunk, the planes of one lane row, one block's
    class keys and the generator windows; the classes themselves keep only
    their packed keys.
    """
    if max_diameter < 6:
        raise LiftforgeError("intermediate diameter cap must be >= 6")
    if budget < 0:
        raise LiftforgeError(f"composition budget must be >= 0, got {budget}")
    gens = generators if generators is not None else default_generators()

    ks: list[int] = []  # diameter per discovered class
    reps: list[bytes] = []  # class key of each representative (see ``_canon_keys``)
    known: set[tuple[int, bytes]] = set()
    found: set[EquivClassId] = set()

    def add(k: int, key: np.ndarray) -> None:
        entry = (k, key.tobytes())
        if entry in known:
            return
        known.add(entry)
        ks.append(k)
        reps.append(entry[1])
        if k <= 6:
            rule = Rule(k, array_to_table(np.unpackbits(key, count=1 << k)), 0)
            if degree(rule) >= 2:
                found.add(EquivClassId(k, rule.table))

    def rep_tables(ids, k: int) -> np.ndarray:
        """The representative tables of the classes ``ids``, all of diameter k."""
        keys = np.frombuffer(b"".join(reps[i] for i in ids), dtype=np.uint8).reshape(len(ids), -1)
        return np.unpackbits(keys, axis=1, count=1 << k)

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
        stack = rep_tables(ids, kg)
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
            stack = rep_tables(block[sel], kx)
            members, owner, m = _orbit_arrays(stack, kx)
            n_orbit[sel] = np.bincount(owner, minlength=len(sel))
            groups.append((kx, sel, stack, members, sel[owner], m))
        n_pairs = np.minimum(n_gen, block + 1)  # generators g <= x
        per_class = n_pairs * n_orbit + before[n_pairs] - np.where(block < n_gen, n_orbit, 0)
        start = compositions + np.cumsum(per_class) - per_class  # first index of each class

        held: dict[int, list] = {}  # width -> cut (index, tables) not yet keyed
        keyed: dict[int, list] = {}  # width -> (index, class keys)

        def flush(w: int) -> None:
            index, tables = (np.concatenate(a) for a in zip(*held.pop(w)))
            keyed.setdefault(w, []).append((index, _canon_keys(tables, w)))

        def collect(cols: np.ndarray, k: int, index: np.ndarray, valid: np.ndarray) -> None:
            # lanes past index.shape[1] are unused (0)
            i0, width = (a[:, : index.shape[1]] for a in _lane_windows(cols, k))
            keep = valid & (index < budget) & (width >= 2) & (width <= max_diameter)
            rows, lanes = np.nonzero(keep)
            if rows.size:
                for w, at, tables in _lane_cut(cols, rows, lanes, i0[keep], width[keep]):
                    held.setdefault(w, []).append((index[keep][at], tables))
                    if sum(t.nbytes for _, t in held[w]) >= _GATHER_CHUNK:
                        flush(w)

        for kx, sel, stack, members, member_class, m in groups:
            for kg, (ids, cubes) in gen_forms.items():
                k = kx + kg - 1
                if k > arity_cap:
                    continue
                # g o x: generator cube forms over the lane planes of the block's orbit members
                for w0, w1, dtype in _lane_groups(len(members), k):
                    planes = _lane_planes(_lanes(members[w0:w1], dtype), kx, kg)
                    cls = member_class[w0:w1]
                    n_rows = max(1, _GATHER_CHUNK // (dtype.itemsize << k))  # lane rows per chunk
                    for t0 in range(0, len(ids), n_rows):
                        g = ids[t0 : t0 + n_rows, None]
                        index = start[cls] + g * n_orbit[cls] + before[g] + m[w0:w1]
                        cols = _compose_cubes([c[t0 : t0 + n_rows] for c in cubes], planes)
                        collect(cols, k, index, g < n_pairs[cls])
                # x o g: the block representatives' lane row over the generator orbit windows
                gmembers, gid, gm = gen_members[kg]
                windows = gen_windows.get((kg, kx))
                if windows is None:
                    windows = gen_windows[kg, kx] = _windows(gmembers, kg, kx)
                for t0, t1, dtype in _lane_groups(len(sel), k):
                    col = _lanes(stack[t0:t1], dtype)
                    cls = sel[t0:t1]
                    n_rows = max(1, _GATHER_CHUNK // (dtype.itemsize << k))
                    for w0 in range(0, len(gmembers), n_rows):
                        g = gid[w0 : w0 + n_rows, None]
                        index = start[cls] + g * n_orbit[cls] + before[g] + n_orbit[cls] + gm[w0 : w0 + n_rows, None]
                        valid = (g < n_pairs[cls]) & (g != block[cls])
                        cols = _take(col, windows[w0 : w0 + n_rows].ravel()).reshape(-1, 1 << k)
                        collect(cols, k, index, valid)

        total = int(per_class.sum())
        if compositions + total > budget:
            compositions, exhausted = budget, True
        else:
            compositions += total
        # add the block's composites in sequence order, each class from its
        # first occurrence
        for w in list(held):
            flush(w)
        firsts = []
        for w, parts in keyed.items():
            index, keys = (np.concatenate(a) for a in zip(*parts))
            order = np.argsort(index)
            _, first = np.unique(keys[order].view(f"V{keys.shape[1]}").ravel(), return_index=True)
            at = order[first]
            firsts.extend(zip(index[at].tolist(), [w] * len(at), keys[at]))
        for _, w, key in sorted(firsts, key=lambda t: t[0]):
            add(w, key)
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
