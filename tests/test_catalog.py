import dataclasses
import hashlib

import numpy as np
import pytest

import liftforge as lf
from liftforge import catalog, corefn, diffunif, lifting
from liftforge.catalog import (
    CATALOG_SHA256,
    CatalogError,
    ClosureResult,
    _catalog_bytes,
    catalog_function_pool,
    closure_search,
    default_generators,
    degree2_probe,
    load_catalog,
    verify_catalog,
)
from liftforge.corefn import (
    EquivClassId,
    _end_vars,
    _rev_index,
    _windows,
    array_to_table,
    table_to_anf_masks,
    table_to_array,
)
from liftforge.exprlang import eval_expr, parse_expr
from liftforge.landscape import is_conserved
from liftforge.diffunif import LengthRangeError
from liftforge.lifting import ARITY_CAP, CapExceededError


def test_checksum_pinned():
    assert hashlib.sha256(_catalog_bytes()).hexdigest() == CATALOG_SHA256


def test_load_counts(catalog_entries):
    assert len(catalog_entries) == 120
    by_degree = {}
    for e in catalog_entries:
        by_degree[e.stated_degree] = by_degree.get(e.stated_degree, 0) + 1
    assert by_degree == {3: 1, 4: 42, 5: 77}


def test_highlights_are_the_four_lowest_rows(catalog_entries):
    marked = {e.text for e in catalog_entries if e.highlight}
    assert marked == {
        "(0★10)∘(0★110)",
        "(00★10)∘(0★110)∘(0★10)",
        "(0★10)∘(0★110)∘(01★00)",
        "(0★110)∘(0★10)∘(10★011)",
    }


def test_every_atom_is_a_conserved_landscape(catalog_entries):
    for e in catalog_entries:
        for l in e.expr.atoms:
            assert is_conserved(l), (e.text, l.symbols)


def test_orbit_expansion_has_472_functions(catalog_entries):
    pool = catalog_function_pool(catalog_entries)
    assert len(pool) == 472
    assert all(r.bit(0) == 0 for r in pool)


def test_catalog_classes_distinct(catalog_entries):
    ids = {lf.canonicalize(e.rule()) for e in catalog_entries}
    assert len(ids) == 120


def test_classes_count_functions_with_f0_zero(catalog_entries):
    # a class is an orbit of functions with f(0) = 0; the output negation
    # NOT o f (f(0) = 1) is in no catalog class
    rules = [e.rule() for e in catalog_entries]
    ids = {lf.canonicalize(r) for r in rules}
    assert all(r.bit(0) == 0 for r in rules)
    negations = {lf.canonicalize(lf.rule_from_table(r.k, r.table ^ ((1 << (1 << r.k)) - 1))) for r in rules}
    assert len(ids) == len(negations) == 120
    assert not ids & negations


def test_structural_verification_clean(catalog_entries):
    rep = verify_catalog(catalog_entries)
    assert rep.ok, rep.summary()


def test_verification_flags_problems(catalog_entries):
    # swap one entry's stated degree and make sure the report catches it
    import dataclasses

    broken = list(catalog_entries)
    broken[0] = dataclasses.replace(broken[0], stated_degree=4)
    rep = verify_catalog(broken)
    assert any(p.kind in ("degree", "duplicate-class") for p in rep.problems)


def test_required_class_containment(catalog_entries, search6_pooled):
    catalog_ids = {lf.canonicalize(e.rule()) for e in catalog_entries}
    assert search6_pooled.class_ids <= catalog_ids
    # a made-up class id is not among them
    assert lf.canonicalize(lf.rule_from_anf_text("x1 ^ x2*x3")) not in catalog_ids


def test_du_spot_checks_catalog_rows(catalog_entries):
    spot = {
        "(0-★100)∘(0-★110)": (24, 56, 112, 216, 480, 864, 1728),
        "(0★10)∘(0★110)∘(01★00)": (10, 26, 42, 72, 144, 288, 576),
        "(0★110)∘(0★10)∘(10★011)": (16, 24, 46, 96, 194, 388, 776),
    }
    by_text = {e.text: e for e in catalog_entries}
    for text, du in spot.items():
        assert by_text[text].stated_du == du


def _unreachable(*args, **kwargs):
    raise AssertionError("a rule was built or a DDT counted for a refused DU range")


@pytest.mark.parametrize("du_to, error", [(5, LengthRangeError), (13, LengthRangeError), (15, CapExceededError)])
def test_du_range_is_refused_before_any_rule(monkeypatch, catalog_entries, du_to, error):
    # n = 5 is below the stated values (nothing would be checked), 13 past
    # them, 15 past the DU cap
    monkeypatch.setattr(diffunif, "ddt_max", _unreachable)
    monkeypatch.setattr(diffunif, "_ddt_maxima", _unreachable)
    monkeypatch.setattr(catalog, "_ddt_maxima", _unreachable)
    monkeypatch.setattr(catalog.CatalogEntry, "rule", _unreachable)
    with pytest.raises(error):
        verify_catalog(catalog_entries, check_du=True, du_to=du_to)


def _per_entry_problems(entries, du_to):
    """The problems of verify_catalog with check_du, one entry at a time,
    with one ddt_max call per length."""
    problems, seen = [], {}
    for e in entries:
        r = e.rule()
        if r.k != 6:
            problems.append(catalog.Problem(e.index, "diameter", f"got {r.k}"))
            continue
        d = lf.degree(r)
        if d != e.stated_degree:
            problems.append(catalog.Problem(e.index, "degree", f"stated {e.stated_degree}, computed {d}"))
        if not lf.is_balanced(r):
            problems.append(catalog.Problem(e.index, "balance", "table is not balanced"))
        cid = lf.canonicalize(r)
        if cid in seen:
            problems.append(catalog.Problem(e.index, "duplicate-class", f"same class as entry {seen[cid]}"))
        seen[cid] = e.index
        verdict = lf.decide_proper(r)
        if not verdict.proper:
            problems.append(catalog.Problem(e.index, "not-proper", verdict.to_json()))
        if e.stated_du is not None:
            for n in range(6, du_to + 1):
                raw, _ = diffunif.ddt_max(r, n)
                if raw != e.stated_du[n - 6]:
                    problems.append(catalog.Problem(e.index, "du", f"n={n}: stated {e.stated_du[n - 6]}, computed {raw}"))
    return problems


def test_du_problems_keep_the_per_entry_order(catalog_entries):
    import dataclasses

    def bump(du, *lengths):
        return tuple(v + 2 if n in lengths else v for n, v in zip(range(6, 13), du))

    broken = list(catalog_entries)
    e3, e70 = broken[3], broken[70]
    broken[3] = dataclasses.replace(e3, stated_degree=e3.stated_degree + 1, stated_du=bump(e3.stated_du, 7))
    broken[70] = dataclasses.replace(e70, stated_du=bump(e70.stated_du, 6, 9))
    broken[10] = dataclasses.replace(broken[10], stated_du=None)  # not DU-checked
    broken[20] = dataclasses.replace(broken[20], expr=parse_expr("(0★10)"))  # diameter 3, skipped
    broken.append(dataclasses.replace(broken[5], index=120))
    rep = verify_catalog(broken, check_du=True, du_to=10)
    assert [(p.index, p.kind) for p in rep.problems] == [
        (3, "degree"), (3, "du"), (20, "diameter"), (70, "du"), (70, "du"), (120, "duplicate-class")
    ]
    assert rep.problems == _per_entry_problems(broken, 10)
    assert rep.checked_du_range == (6, 10)


@dataclasses.dataclass(frozen=True)
class _TableEntry(catalog.CatalogEntry):
    """A catalog entry whose rule is given by its table."""

    table: int = 0

    def rule(self):
        return lf.rule_from_table(6, self.table)


def test_stacked_checks_report_what_the_per_entry_checks_do(catalog_entries):
    # diameter-6 rules that fail the degree, balance and properness checks,
    # among the catalog's own entries: one pass over the stack per check
    # gives the problems, witnesses included, of one entry at a time
    broken = list(catalog_entries)
    for i, text in ((4, "(0★1111)"), (50, "(10★101)")):  # not proper, of degree 5
        broken[i] = dataclasses.replace(broken[i], expr=parse_expr(text), stated_degree=5)
    x1x6 = sum(1 << v for v in range(64) if v & 1 and v & 32)  # x1*x6: degree 2, unbalanced
    broken[90] = _TableEntry(90, "x1*x6", broken[90].expr, 2, None, False, x1x6)
    rep = verify_catalog(broken)
    assert [(p.index, p.kind) for p in rep.problems] == [
        (4, "not-proper"), (50, "not-proper"), (90, "balance"), (90, "not-proper")
    ]
    assert rep.problems == [p for p in _per_entry_problems(broken, 6) if p.kind != "du"]
    broken[90] = dataclasses.replace(broken[90], stated_degree=3)
    assert [(p.index, p.kind) for p in verify_catalog(broken).problems][2:] == [
        (90, "degree"), (90, "balance"), (90, "not-proper")
    ]


def test_default_generators():
    gens = default_generators()
    assert len(gens) == 90
    assert {g.k for g in gens} == {4, 5, 6}


def test_closure_small_fixpoint_monotone_in_diameter():
    # diameter-4/5 generators only: fixpoints are quick and nested
    gens = [g for g in default_generators() if g.k <= 5]
    results = {}
    for D in (6, 7, 8):
        res = closure_search(D, budget=120_000, generators=gens)
        assert not res.exhausted
        results[D] = res.found_classes
    assert results[6] <= results[7] <= results[8]


def test_closure_matches_breadth_first_chain_search():
    # the closure is the chain closure: a plain breadth-first search of
    # generator appends on the public API must find the same classes
    gens = [g for g in default_generators() if g.k <= 5]
    # the generator set is orbit-closed, so appending each generator function
    # to one representative per class reaches every class of the closure
    tables = {(g.k, g.table) for g in gens}
    assert {(m.k, m.table) for g in gens for m in lf.orbit(g)} == tables
    D = 7
    seen = {lf.canonicalize(g) for g in gens}
    frontier = list(seen)
    while frontier:
        grown = []
        for cid in frontier:
            x = cid.rule()
            for g in gens:
                for h in (lf.compose(g, x), lf.compose(x, g)):
                    # diameter 1 is the identity up to shift, which the
                    # closure does not count as a class
                    if h.k == 1 or h.k > D:
                        continue
                    c = lf.canonicalize(h)
                    if c not in seen:
                        seen.add(c)
                        grown.append(c)
        frontier = grown
    res = closure_search(D, budget=120_000, generators=gens)
    assert not res.exhausted
    assert res.discovered_classes == len(seen) == 86
    assert res.found_classes == {c for c in seen if c.k <= 6 and lf.degree(c.rule()) >= 2}


# ---------------------------------------------------------------------------
# the one-composition-at-a-time closure loop, kept as the reference for the
# block closure


def _ref_trim(arr, k):
    ends = _end_vars(array_to_table(arr), k)
    if ends is None:
        return None
    i0, j0 = ends
    k2 = j0 - i0 + 1
    if k2 == k:
        return k, arr
    return k2, np.ascontiguousarray(arr[0 : (1 << k2) << i0 : 1 << i0])


def _ref_orbit(arr, k):
    rev = arr[_rev_index(k)]
    uniq = {}
    for a in (arr, rev, arr[::-1] ^ 1, rev[::-1] ^ 1):
        uniq.setdefault(a.tobytes(), a)
    return list(uniq.values())


def _reference_closure(max_diameter, budget, generators, arity_cap=ARITY_CAP, log=None):
    """The closure one composition at a time.  With ``log``, every new class
    is logged as (sequence index of its composite, found class or None),
    with index -1 for the generators."""
    ks, reps, known, found = [], [], set(), set()
    at = -1

    def add(k, arr):
        if k > max_diameter or k == 1:
            return
        canon = min(a.tobytes() for a in _ref_orbit(arr, k))
        if (k, canon) in known:
            return
        known.add((k, canon))
        rep = np.frombuffer(canon, dtype=np.uint8)
        ks.append(k)
        reps.append(rep)
        cid = None
        if k <= 6:
            rule = lf.Rule(k, array_to_table(rep), 0)
            if lf.degree(rule) >= 2:
                cid = EquivClassId(k, rule.table)
                found.add(cid)
        if log is not None:
            log.append((at, cid))

    for g in generators:
        add(g.k, g.table_array())
    n_gen = len(ks)
    compositions, exhausted, x = 0, False, 0
    while x < len(ks) and not exhausted:
        for g in range(min(n_gen, x + 1)):
            for li, ri in ((g, x), (x, g)) if g != x else ((g, x),):
                ka, kb = ks[li], ks[ri]
                members = _ref_orbit(reps[ri], kb)
                n = min(len(members), budget - compositions)
                compositions += n
                if n and ka + kb - 1 <= arity_cap:
                    for i, mem in enumerate(members[:n]):
                        at = compositions - n + i
                        trimmed = _ref_trim(reps[li][_windows(mem, kb, ka)], ka + kb - 1)
                        if trimmed is not None:
                            add(*trimmed)
                if n < len(members):
                    exhausted = True
                    break
            if exhausted:
                break
        x += 1
    return ClosureResult(max_diameter, frozenset(found), len(ks), compositions, exhausted)


def _reference_by_budget(max_diameter, generators):
    """The reference result for every budget, from one run to the fixpoint:
    a run cut by the budget is a prefix of the full run."""
    log = []
    full = _reference_closure(max_diameter, 10**9, generators, log=log)
    assert not full.exhausted

    def at(budget):
        seen = [cid for i, cid in log if i < budget]
        found = frozenset(c for c in seen if c is not None)
        return ClosureResult(max_diameter, found, len(seen), min(budget, full.compositions), budget < full.compositions)

    return at


def _embedded_tables(rng, k, n):
    """n random tables on variables i0..j0 only, embedded in k variables,
    as (bits, i0, j0); a third of them constant."""
    out = []
    for t in range(n):
        i0, j0 = sorted(rng.integers(0, k, 2).tolist())
        w = j0 - i0 + 1
        inner = rng.integers(0, 2, 1 << w, dtype=np.uint8) if t % 3 else np.full(1 << w, t % 2, np.uint8)
        out.append(inner[(np.arange(1 << k) >> i0) & ((1 << w) - 1)])
    return np.stack(out)


_LANE_WORDS = [np.dtype(f"u{size}") for size in (1, 2, 4, 8)]


def _lane_bits(cols, n):
    """The first n lanes of lane rows (R, 2**k) as uint8 tables (R, n, 2**k)."""
    bits = np.unpackbits(cols.view(np.uint8).reshape(*cols.shape, -1), axis=2, bitorder="little")
    return bits[:, :, :n].transpose(0, 2, 1)


@pytest.mark.parametrize("k", range(2, 16))
def test_trimmed_windows_match_end_vars(k):
    # partial lanes (the bits past the last table are 0) and every lane word
    rng = np.random.default_rng(k)
    for dtype in _LANE_WORDS:
        for n in sorted({1, 7, min(64, dtype.itemsize * 8)}):
            rows = [_embedded_tables(rng, k, n) for _ in range(2)]
            cols = np.stack([corefn._lanes(t, dtype) for t in rows])
            assert np.array_equal(_lane_bits(cols, n), np.stack(rows))
            i0, width = corefn._lane_windows(cols, k)
            assert i0.shape == width.shape == (2, dtype.itemsize * 8)
            assert (width[:, n:] == 0).all()
            for r, tables in enumerate(rows):
                for t, row in enumerate(tables):
                    ends = _end_vars(array_to_table(row), k)
                    got = (int(i0[r, t]), int(width[r, t]))
                    assert got[1] == 0 if ends is None else got == (ends[0], ends[1] - ends[0] + 1), (dtype, n, r, t)


@pytest.mark.parametrize("k", [12, 17])
def test_cut_reads_tight_windows(k):
    # at k=17 the entries j << i0 of the widest cuts pass 2**16
    rng = np.random.default_rng(k)
    for dtype in _LANE_WORDS:
        cols = rng.integers(0, 256, (3, (1 << k) * dtype.itemsize), dtype=np.uint8).view(dtype)
        bits = _lane_bits(cols, dtype.itemsize * 8)
        rows = np.array([2, 0, 1, 2, 0, 1])
        lanes = np.array([0, 3, 7, dtype.itemsize * 8 - 1, 5, 0])
        i0, width = np.array([0, 3, k - 8, k - 5, 1, k - 8]), np.array([8, 5, 8, 5, 2, 8])
        got = corefn._lane_cut(cols, rows, lanes, i0, width)
        assert [w for w, _, _ in got] == [2, 5, 8]
        for w, at, tables in got:
            assert tables.shape == (len(at), 1 << w) and (width[at] == w).all()
            for c, row in zip(at, tables):
                want = bits[rows[c], lanes[c], 0 : (1 << w) << i0[c] : 1 << i0[c]]
                assert np.array_equal(row, want), (dtype, c)


# ---------------------------------------------------------------------------
# g o x from cube forms over lane planes, against the window gather


def _gathered_words(g, x, kg, kx):
    """g o x for every row of g over every row of x by the byte window
    gather, as uint8 tables (len(g), len(x), 2**K)."""
    k = kx + kg - 1
    return np.take(g, _windows(x, kx, kg), axis=1).reshape(len(g), len(x), 1 << k)


def _lane_compose(cubes, x, kx, kg, dtype):
    """g o x by ``_compose_cubes`` over the lane planes of x, as uint8
    tables (len(g), len(x), 2**K)."""
    planes = corefn._lane_planes(corefn._lanes(x, dtype), kx, kg)
    return _lane_bits(corefn._compose_cubes(cubes, planes), len(x))


def _n_terms(cubes, k):
    """Number of cubes of each row of a cube form (padding is the zero plane)."""
    return sum((lits[:, 0] != 2 * k).astype(int) for lits in cubes)


def _fewest_terms(table, k):
    """The fewest ANF terms of f(z ^ p) over all polarities p, one table at a time."""
    return min(
        len(table_to_anf_masks(array_to_table(table[np.arange(1 << k) ^ p]), k)) for p in range(1 << k)
    )


@pytest.mark.parametrize("kg", range(2, 7))
@pytest.mark.parametrize("kx", range(2, 9))
def test_cube_compose_matches_gather(kx, kg):
    rng = np.random.default_rng(100 * kx + kg)
    g = rng.integers(0, 2, (7, 1 << kg), dtype=np.uint8)
    g[0] = 0  # no cube
    g[1] = 1  # one empty cube
    g[2] = np.arange(1 << kg) >> (kg - 1) & 1  # one literal
    x = rng.integers(0, 2, (5, 1 << kx), dtype=np.uint8)
    cubes = corefn._cube_forms(g, kg)
    for dtype in _LANE_WORDS:
        assert np.array_equal(_lane_compose(cubes, x, kx, kg, dtype), _gathered_words(g, x, kg, kx)), dtype
    assert _n_terms(cubes, kg).tolist() == [_fewest_terms(row, kg) for row in g]


def test_default_generator_orbits_compose_by_two_cubes():
    # every orbit member of a conserved landscape is x_s xor one cube
    members = {(m.k, m.table) for g in default_generators() for m in lf.orbit(g)}
    rng = np.random.default_rng(90)
    for kg in (4, 5, 6):
        g = np.stack([table_to_array(t, kg) for k, t in sorted(members) if k == kg])
        cubes = corefn._cube_forms(g, kg)
        assert (_n_terms(cubes, kg) == 2).all()
        for kx in (2, 5, 8):
            x = rng.integers(0, 2, (3, 1 << kx), dtype=np.uint8)
            got = _lane_compose(cubes, x, kx, kg, np.dtype(np.uint64))
            assert np.array_equal(got, _gathered_words(g, x, kg, kx)), (kg, kx)


@pytest.mark.parametrize("k", range(1, 9))
def test_canon_keys_and_orbits_match_rules(k):
    # the stacked kernel against the reference orbit and a plain
    # lexicographic min over it
    rng = np.random.default_rng(k)
    tables = rng.integers(0, 2, (40, 1 << k), dtype=np.uint8)
    # smaller orbits: a palindrome, x1, and a table fixed by complementation
    tables[0] &= tables[0, _rev_index(k)]
    tables[1] = np.arange(1 << k) & 1
    tables[2, 1 << (k - 1) :] = tables[2, : 1 << (k - 1)][::-1] ^ 1
    members, owner, m = corefn._orbit_arrays(tables, k)
    keys = corefn._canon_keys(tables, k)
    ids = corefn._class_ids(tables, k)
    for i, row in enumerate(tables):
        ref = _ref_orbit(row, k)
        mine = members[owner == i]
        assert [a.tobytes() for a in mine] == [a.tobytes() for a in ref]
        assert m[owner == i].tolist() == list(range(len(ref)))
        least = min(ref, key=lambda a: a.tolist())
        assert np.array_equal(np.unpackbits(keys[i], count=1 << k), least)
        assert ids[i] == EquivClassId(k, array_to_table(least)) == lf.canonicalize(lf.Rule(k, array_to_table(row)))
    assert len(_ref_orbit(tables[0], k)) <= 2 and len(_ref_orbit(tables[2], k)) <= 2


@pytest.fixture(scope="module")
def small_gens():
    return [g for g in default_generators() if g.k <= 5]


@pytest.mark.parametrize("D", [6, 7, 8])
def test_block_closure_matches_reference_small_generators(small_gens, D):
    assert closure_search(D, budget=120_000, generators=small_gens) == _reference_closure(D, 120_000, small_gens)


def test_block_closure_matches_reference_all_generators():
    gens = default_generators()
    got = closure_search(6, budget=100_000, generators=gens)
    assert got == _reference_closure(6, 100_000, gens)
    assert (got.discovered_classes, got.compositions, got.exhausted) == (122, 19_904, False)


@pytest.mark.parametrize("budget", [1, 37, 2_000, 20_000])
def test_block_closure_matches_reference_on_budgets(budget):
    # cuts inside the first block (among the generators), inside a later
    # block, and within or between the pairs of one class
    gens = default_generators()
    got = closure_search(7, budget=budget, generators=gens)
    assert got == _reference_closure(7, budget, gens)
    assert got.exhausted and got.compositions == budget


def test_block_closure_matches_reference_at_every_budget(small_gens):
    # every cut from the first class on: inside a pair, between the two
    # sides of a pair, between pairs and between classes
    at = _reference_by_budget(6, small_gens)
    assert at(37) == _reference_closure(6, 37, small_gens)
    for budget in range(1, 251):
        assert closure_search(6, budget=budget, generators=small_gens) == at(budget), budget


def test_negative_closure_budget_is_refused_before_the_generators(monkeypatch, small_gens):
    def unreachable(*args, **kwargs):
        raise AssertionError("generators built for a refused budget")

    monkeypatch.setattr(catalog, "default_generators", unreachable)
    monkeypatch.setattr(corefn, "_cube_forms", unreachable)
    with pytest.raises(lf.LiftforgeError, match="budget"):
        closure_search(6, budget=-5)
    with pytest.raises(lf.LiftforgeError, match="budget"):
        closure_search(6, budget=-1, generators=small_gens)
    # a budget of 0 composes nothing and reports the generator classes
    monkeypatch.undo()
    got = closure_search(6, budget=0, generators=small_gens)
    assert got.exhausted and got.compositions == 0 and got.discovered_classes > 0


def test_block_closure_budget_on_a_pair_boundary(small_gens):
    # the closure's whole spend is a budget that just suffices; one less
    # cuts the last pair of the last class
    full = _reference_closure(6, 10_000, small_gens)
    for budget in (full.compositions, full.compositions - 1):
        assert closure_search(6, budget=budget, generators=small_gens) == _reference_closure(6, budget, small_gens)


def test_block_closure_matches_reference_with_small_generators(small_gens):
    # k = 2 and k = 3 rules give composites of fewer than 6 variables
    tiny = [lf.rule_from_anf_text("x1 ^ x2"), lf.rule_from_anf_text("x1 ^ x2*x3")]
    gens = tiny + small_gens[:6]
    got = closure_search(6, budget=60_000, generators=gens)
    assert got == _reference_closure(6, 60_000, gens)
    assert got.discovered_classes > len(gens)


def test_block_closure_matches_reference_under_arity_cap(monkeypatch, small_gens):
    # pairs over more than 9 variables are counted but not composed
    full = closure_search(7, budget=120_000, generators=small_gens)
    monkeypatch.setattr(catalog, "ARITY_CAP", 9)
    got = closure_search(7, budget=120_000, generators=small_gens)
    assert got == _reference_closure(7, 120_000, small_gens, arity_cap=9)
    assert got.discovered_classes != full.discovered_classes


@pytest.mark.parametrize("block, chunk", [(1, 1), (1, 1 << 17), (3, 1 << 9), (1 << 10, 1 << 22)])
def test_block_closure_independent_of_block_and_chunk(monkeypatch, small_gens, block, chunk):
    # the chunk is one constant of corefn: every lane group the closure
    # sizes (both directions) gets its rows per chunk from the patched value
    default, lane_groups, groups = corefn._GATHER_CHUNK, corefn._lane_groups, []

    def spy(n, k):
        for group in lane_groups(n, k):
            groups.append((group[2].itemsize << k, group[3]))
            yield group

    monkeypatch.setattr(catalog, "_CLASS_BLOCK", block)
    monkeypatch.setattr(corefn, "_GATHER_CHUNK", chunk)
    monkeypatch.setattr(corefn, "_lane_groups", spy)
    for D, budget in ((7, 120_000), (7, 1_000)):
        assert closure_search(D, budget=budget, generators=small_gens) == _reference_closure(D, budget, small_gens)
    assert groups and all(rows == max(1, chunk // size) for size, rows in groups)
    assert any(rows != max(1, default // size) for size, rows in groups)


def test_cut_is_as_wide_as_the_widest_kept_composite(monkeypatch):
    # every cut table is 2**w wide for its own diameter w, not 2**max_diameter
    # wide, and is canonicalized at that width
    cut, canon_keys = corefn._lane_cut, catalog._canon_keys
    widths, keyed = [], []

    def spy(cols, rows, lanes, i0, width):
        out = cut(cols, rows, lanes, i0, width)
        widths.extend((w, tables.shape[1], set(width[at].tolist())) for w, at, tables in out)
        return out

    def keys_spy(tables, k):
        keyed.append((k, tables.shape[1]))
        return canon_keys(tables, k)

    monkeypatch.setattr(corefn, "_lane_cut", spy)
    monkeypatch.setattr(catalog, "_canon_keys", keys_spy)
    closure_search(16, budget=2_000)
    assert widths and all(size == 1 << w and ws == {w} for w, size, ws in widths)
    assert len({w for w, _, _ in widths}) > 1 and max(w for w, _, _ in widths) < 16
    assert keyed and all(size == 1 << k for k, size in keyed)


def test_closure_rejects_small_cap():
    with pytest.raises(lf.LiftforgeError):
        closure_search(5)


def test_closure_d8_all_generators_at_300k():
    # the 90 generators' wide compositions (up to 8 + 6 - 1 = 13 variables)
    # under a budget cut
    res = closure_search(8, budget=300_000)
    assert (res.discovered_classes, res.compositions, res.exhausted) == (6_997, 300_000, True)
    by_diameter = {}
    for c in res.found_classes:
        by_diameter[c.k] = by_diameter.get(c.k, 0) + 1
    assert by_diameter == {4: 1, 5: 5, 6: 113}


def test_closure_d7_reproduces_the_catalog(catalog_entries):
    res = closure_search(7, budget=600_000)
    assert not res.exhausted
    assert res.discovered_classes == 2777
    catalog = {lf.canonicalize(e.rule()) for e in catalog_entries}
    assert catalog <= res.found_classes
    # the 5 degree>=2 generator classes of diameter 4/5 and one composite-only class
    assert {c.text() for c in res.found_classes - catalog} == {
        "4:D2F0",
        "5:D2F0F0F0",
        "5:D30EFF00",
        "5:EF10FF00",
        "5:F0B4F0F0",
        "5:FD02FF00",
    }
    # composites of proper rules are proper: a check of the pair graph, one
    # stacked call for all 126 found classes
    assert len(res.found_classes) == 126
    assert all(v.proper for v in lifting._pair_graph_verdicts([c.rule() for c in res.found_classes]))
    assert lf.decide_proper(lf.rule_from_text("5:D30EFF00"), method="finite-scan").proper


@pytest.mark.long
def test_closure_d8_all_generators_at_3m():
    # the budget cut is exact, so these counts do not depend on how the
    # composites are computed; the fixpoint lies far beyond this budget
    res = closure_search(8, budget=3_000_000)
    assert (res.discovered_classes, res.compositions, res.exhausted) == (32_440, 3_000_000, True)
    by_diameter = {}
    for c in res.found_classes:
        by_diameter[c.k] = by_diameter.get(c.k, 0) + 1
    assert by_diameter == {4: 1, 5: 5, 6: 118}


def test_degree2_probe_finds_nothing():
    probe = degree2_probe()
    assert probe.pool_size == 490
    assert probe.ok, probe.degree2


PROBE_HISTOGRAM = {1: 186, 3: 184, 4: 1840, 5: 10300, 6: 21054, 7: 61200, 8: 92864, 9: 51260, 10: 1212}


def _composite_degree(ga, fa, kg, kf):
    """Degree of g o f, one pair at a time: the largest monomial of the
    composite's raw table, gathered in bytes."""
    coeff = corefn._mobius(np.take(ga, _windows(fa, kf, kg)), kg + kf - 1)
    monomials = np.flatnonzero(coeff)
    return int(np.bitwise_count(monomials).max()) if monomials.size else 0


@pytest.fixture(scope="module")
def probe_degrees():
    pool = catalog._probe_pool()
    return pool, catalog._composite_degrees(pool)


def test_degree2_probe_histogram_is_pinned():
    probe = degree2_probe()
    assert (probe.pool_size, probe.pairs, probe.degree2) == (490, 240_100, ())
    assert probe.histogram == PROBE_HISTOGRAM


def _check_pairs(pool, degrees, pairs):
    tables = [r.table_array() for r in pool]
    for g, f in pairs:
        want = _composite_degree(tables[g], tables[f], pool[g].k, pool[f].k)
        assert degrees[g, f] == want, (pool[g].text(), pool[f].text())


def test_composite_degrees_match_the_per_pair_reference_on_a_sample(probe_degrees):
    # a seeded sample, a fifth of it with a diameter-4/5 operand on either side
    pool, degrees = probe_degrees
    rng = np.random.default_rng(2411)
    small = np.array([i for i, r in enumerate(pool) if r.k < 6])
    pairs = rng.integers(0, len(pool), (3_000, 2))
    pairs[:300, 0] = rng.choice(small, 300)
    pairs[300:600, 1] = rng.choice(small, 300)
    _check_pairs(pool, degrees, pairs.tolist())
    assert dict(zip(*(a.tolist() for a in np.unique(degrees, return_counts=True)))) == PROBE_HISTOGRAM


@pytest.mark.long
def test_composite_degrees_match_the_per_pair_reference_on_every_pair(probe_degrees):
    pool, degrees = probe_degrees
    _check_pairs(pool, degrees, [(g, f) for g in range(len(pool)) for f in range(len(pool))])


def test_degree2_probe_reports_hits_in_pair_order(monkeypatch):
    # a pool with degree-2 composites, some of them in one order only (x1
    # xor x1 x2 is no lifting): hits are (g, f) for g o f, g outer
    texts = ("x1 ^ x2", "x1 ^ x2*x3", "x1 ^ x2*x3*x4", "x1*x2 ^ x3", "x1 ^ x1*x2", "x2 ^ (x1^1)*x3")
    pool = [lf.rule_from_anf_text(t) for t in texts]
    monkeypatch.setattr(catalog, "_probe_pool", lambda: pool)
    probe = degree2_probe()
    tables = [r.table_array() for r in pool]
    pairs = [(g, f) for g in range(6) for f in range(6)]
    degrees = {(g, f): _composite_degree(tables[g], tables[f], pool[g].k, pool[f].k) for g, f in pairs}
    want = tuple((pool[g].text(), pool[f].text()) for (g, f), d in degrees.items() if d == 2)
    assert len(want) > 3 and any((f, g) not in want for g, f in want)
    assert probe.degree2 == want
    assert (probe.pool_size, probe.pairs) == (6, 36)
    assert probe.histogram == {d: list(degrees.values()).count(d) for d in sorted(set(degrees.values()))}


def test_degree2_probe_composition_facts():
    # composing with the identity keeps the degree; an involution composed
    # with itself collapses to a pure shift of degree 1
    ident = lf.rule_from_table(1, [0, 1])
    r = eval_expr(parse_expr("(0★10)"))
    assert lf.degree(lf.compose(r, ident)) == lf.degree(r)
    assert lf.degree(lf.compose(r, r)) == 1


@pytest.mark.long
def test_full_du_verification(catalog_entries):
    rep = verify_catalog(catalog_entries, check_du=True, du_to=12)
    assert rep.ok, rep.summary()
