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
    _end_vars,
    _mobius,
    _rev_index,
    _windows,
    array_to_table,
    canonicalize,
    degree,
    is_balanced,
    orbit,
)
from .diffunif import ddt_max
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
    differential uniformities and containment of a set of class ids."""
    entries = entries if entries is not None else load_catalog()
    report = CatalogReport()
    seen: dict[EquivClassId, int] = {}
    classes = set()
    for e in entries:
        r = e.rule()
        if r.k != 6:
            report.problems.append(Problem(e.index, "diameter", f"got {r.k}"))
            continue
        d = degree(r)
        if d != e.stated_degree:
            report.problems.append(Problem(e.index, "degree", f"stated {e.stated_degree}, computed {d}"))
        if not is_balanced(r):
            report.problems.append(Problem(e.index, "balance", "table is not balanced"))
        cid = canonicalize(r)
        if cid in seen:
            report.problems.append(Problem(e.index, "duplicate-class", f"same class as entry {seen[cid]}"))
        seen[cid] = e.index
        classes.add(cid)
        verdict = decide_proper(r)
        if not verdict.proper:
            report.problems.append(Problem(e.index, "not-proper", verdict.to_json()))
        if check_du and e.stated_du is not None:
            lo = DU_RANGE[0]
            for n in range(lo, du_to + 1):
                raw, _ = ddt_max(r, n)
                stated = e.stated_du[n - lo]
                if raw != stated:
                    report.problems.append(
                        Problem(e.index, "du", f"n={n}: stated {stated}, computed {raw}")
                    )
            report.checked_du_range = (lo, du_to)
    if required_classes is not None:
        missing = set(required_classes) - classes
        for cid in sorted(missing, key=lambda c: c.text()):
            report.problems.append(Problem(-1, "missing-class", cid.text()))
    return report


def catalog_function_pool(entries: Optional[list[CatalogEntry]] = None) -> list[Rule]:
    """Orbit expansion of the catalog classes (all members are constant-free)."""
    entries = entries if entries is not None else load_catalog()
    seen: dict[int, Rule] = {}
    for e in entries:
        for member in orbit(e.rule()):
            seen.setdefault(member.table, member)
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


def _trim(arr: np.ndarray, k: int) -> Optional[tuple[int, np.ndarray]]:
    """A raw k-variable table array trimmed to its tight window as
    (diameter, table array), or None if it is constant."""
    ends = _end_vars(array_to_table(arr), k)
    if ends is None:
        return None
    i0, j0 = ends
    k2 = j0 - i0 + 1
    if k2 == k:
        return k, arr
    return k2, np.ascontiguousarray(arr[0 : (1 << k2) << i0 : 1 << i0])


def _orbit_arrays(arr: np.ndarray, k: int) -> list[np.ndarray]:
    rev = arr[_rev_index(k)]
    comp = arr[::-1] ^ 1
    revcomp = rev[::-1] ^ 1
    uniq: dict[bytes, np.ndarray] = {}
    for a in (arr, rev, comp, revcomp):
        uniq.setdefault(a.tobytes(), a)
    return list(uniq.values())


def _canon_bytes(arr: np.ndarray, k: int) -> bytes:
    return min(a.tobytes() for a in _orbit_arrays(arr, k))


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
    staying within the cap.  Known classes are taken in discovery order, and each is composed
    with every generator class on both sides.

    Intermediates are memoized by equivalence class: reversal and
    complementation both distribute over composition, so composing a class
    representative (left) with every orbit member of the right operand
    covers every class reachable from the underlying function pairs.  If
    the composition budget runs out the result is a correct lower bound and
    ``exhausted`` is set.

    Each composite is the gather ``left[windows]`` over the right operand's
    window array (``corefn._windows``), which depends only on the right
    orbit member and the left diameter.  The windows of every generator
    orbit member are kept per left diameter for the whole run; those of the
    class x currently being extended are built once per left diameter and
    dropped when the search moves on to the next class, so the cache never
    holds more than one non-generator class.
    """
    if max_diameter < 6:
        raise LiftforgeError("intermediate diameter cap must be >= 6")
    gens = generators if generators is not None else default_generators()

    ks: list[int] = []  # diameter per discovered class
    reps: list[np.ndarray] = []  # canonical representative tables (uint8)
    known: set[tuple[int, bytes]] = set()
    found: set[EquivClassId] = set()

    def add(k: int, arr: np.ndarray) -> None:
        if k > max_diameter or k == 1:
            return
        canon = _canon_bytes(arr, k)
        if (k, canon) in known:
            return
        known.add((k, canon))
        rep = np.frombuffer(canon, dtype=np.uint8)
        ks.append(k)
        reps.append(rep)
        if k <= 6:
            rule = Rule(k, array_to_table(rep), 0)
            if degree(rule) >= 2:
                found.add(EquivClassId(k, rule.table))

    for g in gens:
        add(g.k, g.table_array())
    n_gen = len(ks)
    gen_orbits = [_orbit_arrays(reps[g], ks[g]) for g in range(n_gen)]
    gen_windows: dict[tuple[int, int], list[np.ndarray]] = {}  # (class, left diameter)

    compositions = 0
    exhausted = False
    x = 0
    while x < len(ks) and not exhausted:
        # put each generator class g on either side of class x; a pair of
        # generators is met once, from its later member.  len(ks) is read
        # afresh, so classes added meanwhile are extended in turn.
        x_orbit = _orbit_arrays(reps[x], ks[x]) if x >= n_gen else None
        x_windows: dict[int, list[np.ndarray]] = {}  # per left diameter
        for g in range(min(n_gen, x + 1)):
            for li, ri in ((g, x), (x, g)) if g != x else ((g, x),):
                ka, kb = ks[li], ks[ri]
                if ri < n_gen:
                    members, cache, key = gen_orbits[ri], gen_windows, (ri, ka)
                else:
                    members, cache, key = x_orbit, x_windows, ka
                n = min(len(members), budget - compositions)  # one composition per member
                compositions += n
                if n and ka + kb - 1 <= arity_cap:
                    windows = cache.get(key)
                    if windows is None:
                        windows = cache[key] = [_windows(m, kb, ka) for m in members]
                    left = reps[li]
                    for w in windows[:n]:
                        trimmed = _trim(left[w], ka + kb - 1)
                        if trimmed is not None:
                            add(*trimmed)
                if n < len(members):
                    exhausted = True
                    break
            if exhausted:
                break
        x += 1
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
    coeff = _mobius(ga[_windows(fa, kf, kg)], kg + kf - 1)
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
