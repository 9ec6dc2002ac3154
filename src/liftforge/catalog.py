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

from . import corefn
from .corefn import (
    EquivClassId,
    LiftforgeError,
    Rule,
    _canon_keys,
    _class_ids,
    _diameter_stacks,
    _orbit_arrays,
    _row_tables,
    _windows,
)
from .diffunif import LengthRangeError, _check_du_cap, _ddt_maxima
from .exprlang import LiftExpr, eval_expr, parse_expr
from .landscape import compile_landscape, enumerate_conserved
from .lifting import ARITY_CAP, _pair_graph_verdicts

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
) -> CatalogReport:
    """Check diameter, degree, properness, balance and pairwise class
    distinctness of every entry; optionally the stated per-length
    differential uniformities.

    Every check of the diameter-6 entries is one pass over their stack: the
    class ids, the degrees and the properness verdicts come from one stacked
    call each, the balance from one count.  The DU values come for every
    checked row of the stack and every length from one call, and each
    entry's problems are reported together, in the order of the checks."""
    if check_du:  # refused before any rule is built
        _check_du_cap(du_to)
        if not DU_RANGE[0] <= du_to <= DU_RANGE[1]:
            raise LengthRangeError(f"DU values are stated for n = {DU_RANGE[0]}..{DU_RANGE[1]}, got du_to={du_to}")
    entries = entries if entries is not None else load_catalog()
    report = CatalogReport()
    seen: dict[EquivClassId, int] = {}
    per_entry: list[list[Problem]] = []
    du_checked: list[tuple[list[Problem], CatalogEntry, int]] = []  # with its row of ``six``
    rules = [e.rule() for e in entries]
    six = np.array([r.table_array() for r in rules if r.k == 6], dtype=np.uint8).reshape(-1, 64)
    degrees = corefn._lane_degrees(six, 6)[:, 0].tolist()
    balance = (np.count_nonzero(six, axis=1) == 32).tolist()
    # one tuple per diameter-6 entry, in entry order
    checks = enumerate(zip(_class_ids(six, 6), degrees, balance, _pair_graph_verdicts(six, 6)))
    for e, r in zip(entries, rules):
        problems: list[Problem] = []
        per_entry.append(problems)
        if r.k != 6:
            problems.append(Problem(e.index, "diameter", f"got {r.k}"))
            continue
        row, (cid, d, balanced, verdict) = next(checks)
        if d != e.stated_degree:
            problems.append(Problem(e.index, "degree", f"stated {e.stated_degree}, computed {d}"))
        if not balanced:
            problems.append(Problem(e.index, "balance", "table is not balanced"))
        if cid in seen:
            problems.append(Problem(e.index, "duplicate-class", f"same class as entry {seen[cid]}"))
        seen[cid] = e.index
        if not verdict.proper:
            problems.append(Problem(e.index, "not-proper", verdict.to_json()))
        if check_du and e.stated_du is not None:
            du_checked.append((problems, e, row))
    if du_checked:
        lo = DU_RANGE[0]
        du_rows = six[[row for _, _, row in du_checked]]
        for (problems, e, _), found in zip(du_checked, _ddt_maxima(du_rows, 6, lo, du_to)):
            for n, ((raw, _), stated) in enumerate(zip(found, e.stated_du), lo):
                if raw != stated:
                    problems.append(Problem(e.index, "du", f"n={n}: stated {stated}, computed {raw}"))
        report.checked_du_range = (lo, du_to)
    report.problems = [p for problems in per_entry for p in problems]
    return report


def catalog_function_pool(entries: Optional[list[CatalogEntry]] = None) -> list[Rule]:
    """Orbit expansion of the catalog classes (all members are constant-free)."""
    entries = entries if entries is not None else load_catalog()
    seen: dict[tuple[int, int], Rule] = {}
    for k, _, stack in _diameter_stacks([e.rule() for e in entries]):
        for t in _row_tables(_orbit_arrays(stack, k)[0]):
            seen.setdefault((k, t), Rule(k, t, 0))
    return [seen[key] for key in sorted(seen)]


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


def closure_search(
    max_diameter: int = 8,
    budget: int = 500_000,
    generators: Optional[list[Rule]] = None,
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

    Composites go on the lanes of ``corefn``: g o x as the cube form of g
    (``_cube_forms``; a conserved landscape is x_s xor one cube) over the
    lane planes of the block's orbit members, and x o g, as an arbitrary x
    has no short cube form, by ``_gather_lanes`` of the block
    representatives over the generator orbit windows, kept for the run.
    Both meet in one trim (``_lane_windows``) and one cut (``_lane_cut``)
    to tables as wide as their windows, for diameters 2..max_diameter.  Cut
    tables are keyed once they fill a chunk's bytes, so memory stays bounded
    by the chunk, one block's class keys and the generator windows.
    """
    if max_diameter < 6:
        raise LiftforgeError("intermediate diameter cap must be >= 6")
    corefn._check_diameter(max_diameter)
    if budget < 0:
        raise LiftforgeError(f"composition budget must be >= 0, got {budget}")
    gens = generators if generators is not None else default_generators()

    ks: list[int] = []  # diameter per discovered class
    reps: list[bytes] = []  # class key of each representative (see ``_canon_keys``)
    known: set[tuple[int, bytes]] = set()

    def add(k: int, key: np.ndarray) -> None:
        entry = (k, key.tobytes())
        if entry in known:
            return
        known.add(entry)
        ks.append(k)
        reps.append(entry[1])

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
        gen_forms[kg] = (ids, corefn._cube_forms(stack, kg))
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
            i0, width = (a[:, : index.shape[1]] for a in corefn._lane_windows(cols, k))
            keep = valid & (index < budget) & (width >= 2) & (width <= max_diameter)
            rows, lanes = np.nonzero(keep)
            if rows.size:
                for w, at, tables in corefn._lane_cut(cols, rows, lanes, i0[keep], width[keep]):
                    held.setdefault(w, []).append((index[keep][at], tables))
                    if sum(t.nbytes for _, t in held[w]) >= corefn._GATHER_CHUNK:
                        flush(w)

        for kx, sel, stack, members, member_class, m in groups:
            for kg, (ids, cubes) in gen_forms.items():
                k = kx + kg - 1
                if k > ARITY_CAP:
                    continue
                # g o x: generator cube forms over the lane planes of the block's orbit members
                for x0, x1, dtype, n_rows in corefn._lane_groups(len(members), k):
                    planes = corefn._lane_planes(corefn._lanes(members[x0:x1], dtype), kx, kg)
                    cls = member_class[x0:x1]
                    for g0 in range(0, len(ids), n_rows):
                        g = ids[g0 : g0 + n_rows, None]
                        index = start[cls] + g * n_orbit[cls] + before[g] + m[x0:x1]
                        cols = corefn._compose_cubes([c[g0 : g0 + n_rows] for c in cubes], planes)
                        collect(cols, k, index, g < n_pairs[cls])
                # x o g: the block representatives over the generator orbit windows
                gmembers, gid, gm = gen_members[kg]
                windows = gen_windows.get((kg, kx))
                if windows is None:
                    windows = gen_windows[kg, kx] = _windows(gmembers, kg, kx)
                for x0, x1, g0, cols in corefn._gather_lanes(stack, windows, k):
                    cls = sel[x0:x1]
                    rows = slice(g0, g0 + len(cols))
                    g = gid[rows, None]
                    index = start[cls] + g * n_orbit[cls] + before[g] + n_orbit[cls] + gm[rows, None]
                    collect(cols, k, index, (g < n_pairs[cls]) & (g != block[cls]))

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
    found = set()
    diameters = np.array(ks)
    for k in {k for k in ks if k <= 6}:
        tables = rep_tables(np.flatnonzero(diameters == k), k)
        found.update(EquivClassId(k, t) for t in _row_tables(tables[corefn._lane_degrees(tables, k)[:, 0] >= 2]))
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
    histogram: dict[int, int]  # degree -> pairs whose composite has it

    @property
    def ok(self) -> bool:
        return not self.degree2


def _probe_pool() -> list[Rule]:
    """The probe's universe (see ``PROBE_HEADER``), in order of (k, table)."""
    extra = [r for r in default_generators() if r.k < 6]
    pool = {r.table: r for r in extra} | {r.table: r for r in catalog_function_pool()}
    return sorted(pool.values(), key=lambda r: (r.k, r.table))


def _composite_degrees(pool: list[Rule]) -> np.ndarray:
    """Degree of g o f for every g (row) and f (column) of ``pool``: the
    tables g of one diameter are the lanes of ``_gather_lanes`` over the
    window rows of the tables f of one diameter."""
    out = np.empty((len(pool), len(pool)), dtype=np.intp)
    stacks = list(_diameter_stacks(pool))
    for kg, gi, outer in stacks:
        for kf, fi, inner in stacks:
            k = kg + kf - 1
            for g0, g1, f0, cols in corefn._gather_lanes(outer, _windows(inner, kf, kg), k):
                out[np.ix_(gi[g0:g1], fi[f0 : f0 + len(cols)])] = corefn._lane_degrees(cols, k)[:, : g1 - g0].T
    return out


def degree2_probe() -> ProbeReport:
    """Compose every ordered pair from the probe pool and look for an
    algebraic-degree-2 result; the expectation is that none exists.  Hits
    are (g, f) for g o f, in pool order of g, then of f."""
    pool = _probe_pool()
    degrees = _composite_degrees(pool)
    hits = tuple((pool[g].text(), pool[f].text()) for g, f in np.argwhere(degrees == 2).tolist())
    histogram = dict(zip(*(a.tolist() for a in np.unique(degrees, return_counts=True))))
    return ProbeReport(PROBE_HEADER, len(pool), degrees.size, hits, histogram)
