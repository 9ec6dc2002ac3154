import hashlib
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import liftforge as lf
from liftforge import catalog, diffunif
from liftforge.corefn import _diameter_stacks, array_to_table, bitmask
from liftforge.diffunif import (
    LengthRangeError,
    ddt_max,
    du_profile,
    du_scaled_table,
    necklace_representatives,
    scale,
)
from liftforge.exprlang import eval_expr, parse_expr
from liftforge.lifting import CapExceededError


def _rule(text):
    return eval_expr(parse_expr(text))


PATT = _rule("(0★10)")


def test_necklace_representative_counts():
    # (1/n) * sum_{d|n} phi(d) 2^(n/d)
    from math import gcd

    def phi(d):
        return sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)

    for n in range(1, 13):
        expect = sum(phi(d) * (1 << (n // d)) for d in range(1, n + 1) if n % d == 0) // n
        assert len(necklace_representatives(n)) == expect


def test_ddt_max_patt_small():
    assert ddt_max(PATT, 4)[0] == 6
    assert ddt_max(PATT, 5)[0] == 14


def test_identity_rule_du():
    ident = lf.rule_from_table(1, [0, 1])
    for n in (3, 5, 8):
        raw, (a, b) = ddt_max(ident, n)
        assert raw == 1 << n
        assert a == b  # F = id realizes b = a for every x


def test_ddt_witness_replays():
    rng = random.Random(4)
    for n in (5, 7, 9):
        raw, (a, b) = ddt_max(PATT, n)
        fm = lf.induce(PATT, n).as_array()
        count = sum(1 for x in range(1 << n) if fm[x ^ a] ^ fm[x] == b)
        assert count == raw


def test_necklace_restriction_matches_full_scan():
    rng = random.Random(12)
    rules = [PATT, _rule("(0★110)"), _rule("(0★10)∘(0★110)")]
    for r in rules:
        for n in range(r.k, 10):
            assert ddt_max(r, n, restrict_necklaces=True)[0] == ddt_max(r, n, restrict_necklaces=False)[0]


def test_du_raw_even_and_bounded():
    rep = du_profile(_rule("(0-★100)∘(0-★110)"), 6, 11)
    for e in rep.entries:
        assert e.raw % 2 == 0 and 2 <= e.raw <= (1 << e.n)


def test_scale_conventions():
    assert scale(6, 24) == 192
    assert scale(9, 72) == 72
    assert scale(10, 234) == 117
    assert scale(12, 100) == Fraction(100, 8)


def test_du_profile_scaled_strings():
    rep = du_profile(PATT, 4, 6)
    assert [e.scaled_str() for e in rep.entries] == ["192", "224", "240"]
    doc = rep.to_json()
    assert doc["entries"][0] == {"n": 4, "raw": 6, "scaled": "192", "a": doc["entries"][0]["a"], "b": doc["entries"][0]["b"]}


def test_stabilization_diagnostic():
    rep = du_profile(PATT, 4, 12)
    assert rep.stabilized is True
    short = du_profile(PATT, 4, 5)
    assert short.stabilized is None


def test_du_cap():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="n <= 14, got n=15"):
            ddt_max(PATT, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a length below the diameter is a malformed length, not a size cap
    with pytest.raises(LengthRangeError, match="circular length 3 below the diameter 4"):
        ddt_max(_rule("(0★10)"), 3)


def test_scaled_table_rows_and_rendering():
    tbl = du_scaled_table([parse_expr("(0★110)∘(0★10)")], 5, 8)
    label, k, deg, vals = tbl.rows[0]
    assert (k, deg) == (5, 4)
    assert [str(v) for v in vals] == ["128", "144", "144", "136"]
    text = tbl.render_text()
    assert "n=5" in text and "128" in text
    assert tbl.render_csv().count(",") > 4
    doc = tbl.to_json()
    assert doc[0]["scaled"]["5"] == 128


def test_scaled_table_below_diameter_cells():
    tbl = du_scaled_table([parse_expr("(0-★100)∘(0-★110)")], 4, 7)
    vals = tbl.rows[0][3]
    assert vals[0] is None and vals[1] is None and str(vals[2]) == "192"


def test_equivalent_rules_same_du(conserved_pool_k6):
    rng = random.Random(9)
    sample = rng.sample(conserved_pool_k6, 12)
    for _, r in sample:
        for n in range(r.k, 10):
            base = ddt_max(r, n)[0]
            for m in lf.orbit(r):
                assert ddt_max(m, n)[0] == base


def _unreachable_ddt_max(*args, **kwargs):
    raise AssertionError("ddt_max reached past the DU cap")


def test_du_cap_fails_before_any_ddt(monkeypatch):
    monkeypatch.setattr(diffunif, "ddt_max", _unreachable_ddt_max)
    monkeypatch.setattr(diffunif, "_ddt_maxima", _unreachable_ddt_max)
    with pytest.raises(CapExceededError, match="n <= 14"):
        du_profile(PATT, 6, 15)
    with pytest.raises(CapExceededError, match="n <= 14"):
        du_scaled_table([parse_expr("(0★110)∘(0★10)")], 6, 15)


def test_du_profile_rejects_an_empty_range():
    with pytest.raises(LengthRangeError):
        du_profile(PATT, 9, 6)
    with pytest.raises(LengthRangeError):
        du_profile(_rule("(0★110)∘(0★10)"), 2, 4)  # wholly below the diameter 5


# ---------------------------------------------------------------------------
# the blocked kernel against the per-row loop it replaced


def _reference_ddt_max(r, n, restrict_necklaces=True):
    """One full-x bincount per difference; the first a with a strictly
    larger maximum wins, then the first b in its row."""
    F = lf.induce(r, n).as_array().astype(np.intp)
    x = np.arange(1 << n)
    best, wit = -1, (0, 0)
    diffs = necklace_representatives(n) if restrict_necklaces else range(1, 1 << n)
    for a in diffs:
        if a == 0:
            continue
        counts = np.bincount(F[x ^ a] ^ F, minlength=1 << n)
        m = int(counts.max())
        if m > best:
            best, wit = m, (int(a), int(counts.argmax()))
    return best, wit


def _random_rule(rng, k):
    while True:
        try:
            return lf.rule_from_table(k, [rng.randint(0, 1) for _ in range(1 << k)])
        except lf.InvalidRuleError:  # a constant table
            pass


def _rule_of_diameter(rng, k):
    """A random rule that reads both end variables of its k-window."""
    while (r := _random_rule(rng, k)).k != k:
        pass
    return r


def _assert_matches_reference(rules_and_lengths):
    for r, n in rules_and_lengths:
        for restrict in (True, False):
            got = ddt_max(r, n, restrict_necklaces=restrict)
            assert got == _reference_ddt_max(r, n, restrict), (r.text(), n, restrict)


def test_ddt_kernel_matches_reference_on_random_rules():
    rng = random.Random(2411)
    cases = []
    for k in range(2, 9):
        for _ in range(4):
            r = _random_rule(rng, k)
            cases.extend((r, n) for n in rng.sample(range(r.k, 12), 2))
    _assert_matches_reference(cases)


def test_ddt_kernel_matches_reference_on_identity_and_patt():
    ident = lf.rule_from_table(1, [0, 1])
    _assert_matches_reference([(ident, n) for n in (1, 2, 3, 6, 9)] + [(PATT, n) for n in range(PATT.k, 10)])


def test_ddt_kernel_matches_reference_on_catalog(catalog_entries):
    _assert_matches_reference([(e.rule(), n) for e in catalog_entries for n in range(6, 10)])


@pytest.mark.long
def test_ddt_kernel_matches_reference_on_catalog_to_n12(catalog_entries):
    _assert_matches_reference([(e.rule(), n) for e in catalog_entries for n in range(10, 13)])


def test_ddt_kernel_matches_reference_at_the_window_edges():
    # S = 9 at n = 9 and 10 above it.  k = 1 gives the widest window map
    # (m = S outputs, built in more than one chunk of components at S = 10);
    # k = 9 = S at n = 9 and k = 10 = S at n >= 10 the narrowest (one
    # output); k = 11 is above S, where every necklace row is counted
    rng = random.Random(909)
    cases = [(_random_rule(rng, k), n) for k in (1, 9) for n in (9, 10, 11)]
    cases += [(_rule_of_diameter(rng, 10), n) for n in (10, 11, 12)]
    cases += [(_rule_of_diameter(rng, 11), n) for n in (11, 12)]
    _assert_matches_reference(cases)


# _ROW_BLOCK keys per block, over the 2^(n-1) states of a row, and groups
# of rules that induce at most twice as many states.  1: one row per block
# and one rule per group; 3 << 7: six rows at n=7 (19 nonzero necklaces,
# so the last block is ragged) in groups of six rules, one row and one
# rule at n >= 9; 1 << 20: every row in one block.  n = 9 and 10 run the
# pruned scan (S = 9 and 10), whose window table H comes from Walsh
# spectra, not from the row kernel, so it does not depend on the block
# size.
@pytest.mark.parametrize("block", [1, 3 << 7, 1 << 20])
def test_ddt_kernel_block_sizes(monkeypatch, catalog_entries, block):
    monkeypatch.setattr(diffunif, "_ROW_BLOCK", block)
    rng = random.Random(block)
    cases = [(_random_rule(rng, k), n) for k in (2, 4, 6) for n in (6, 7, 9)]
    cases += [(catalog_entries[i].rule(), n) for i in (0, 57, 119) for n in (6, 7, 8, 10)]
    _assert_matches_reference(cases)


def _mixed_stack():
    """Rules of every diameter 1..11 (k = 11 is above S), and three more of
    diameters 3 and 6 so that a group can hold several rules, shuffled."""
    rng = random.Random(1711)
    rules = [_rule_of_diameter(rng, k) for k in (*range(1, 12), 3, 6, 6)]
    rng.shuffle(rules)
    return rules


_MIXED = _mixed_stack()


def _maxima(rules, n_from, n_to, **kwargs):
    """``_ddt_maxima`` of rules of any diameters, one stack per diameter
    (``corefn._diameter_stacks``), one list per rule in their order."""
    out = [None] * len(rules)
    for k, idx, tables in _diameter_stacks(rules):
        for i, row in zip(idx, diffunif._ddt_maxima(tables, k, n_from, n_to, **kwargs)):
            out[i] = row
    return out


@lru_cache(maxsize=None)
def _mixed_reference(n, restrict):
    """One row of the reference per rule, None below its diameter."""
    return [_reference_ddt_max(r, n, restrict) if r.k <= n else None for r in _MIXED]


# the default block runs every length to 12; the small ones, which give
# one row per block and one rule per group from n = 9 on, stop at 10, the
# first length of the 10-bit bound
@pytest.mark.parametrize("block, n_to", [(None, 12), (1, 10), (3 << 7, 10)])
def test_batched_kernel_matches_reference_on_a_mixed_stack(monkeypatch, block, n_to):
    if block is not None:
        monkeypatch.setattr(diffunif, "_ROW_BLOCK", block)
    for restrict in (True, False):
        got = _maxima(_MIXED, 1, n_to, restrict_necklaces=restrict)
        for n in range(1, n_to + 1):
            assert [row[n - 1] for row in got] == _mixed_reference(n, restrict), (n, restrict)


@lru_cache(maxsize=None)
def _mixed_ddt_max(n, restrict):
    return [ddt_max(r, n, restrict_necklaces=restrict) if r.k <= n else None for r in _MIXED]


# ranges that start below and above the first pruned length 9 and end
# above and below the diameters of the stack, so that a rule's window
# tables are built at the first length of the range or later, and None
# ends inside the range or fills it
@pytest.mark.parametrize("lo, hi", [(1, 12), (4, 9), (6, 6), (10, 11)])
def test_length_range_matches_ddt_max_row_by_row(lo, hi):
    for restrict in (True, False):
        got = _maxima(_MIXED, lo, hi, restrict_necklaces=restrict)
        assert len(got) == len(_MIXED)
        for i, (r, row) in enumerate(zip(_MIXED, got)):
            assert len(row) == hi - lo + 1
            for n, found in enumerate(row, lo):
                assert (found is None) == (n < r.k), (r.text(), n)
                assert found == _mixed_ddt_max(n, restrict)[i], (r.text(), n, restrict)


def test_length_range_past_the_cap_or_empty():
    with pytest.raises(CapExceededError, match="n <= 14, got n=15"):
        _maxima(_MIXED, 6, 15)
    assert _maxima(_MIXED, 9, 8) == [[] for _ in _MIXED]


def _untrimmed(r, drop_first):
    """The table of r as a raw table one variable wider, which ignores its
    last variable x_K, or two wider, which ignores x_1 and x_K as well."""
    v = np.arange(1 << (r.k + 1 + drop_first)) >> drop_first
    return r.table_array()[v & bitmask(r.k)]


@pytest.mark.parametrize("drop_first", [False, True])
def test_raw_stacks_have_the_maxima_of_their_tight_rules(catalog_entries, drop_first):
    # a census feeds untrimmed candidate tables.  Ignoring x_K leaves the
    # induced map as it is; ignoring x_1 too rotates its outputs, which
    # keeps each row's maximum and its smallest a, and the witness b must
    # still reach the maximum in row a of the raw map
    rng = random.Random(28)
    rules = [_rule_of_diameter(rng, k) for k in (2, 3, 5, 7)] + [catalog_entries[i].rule() for i in (0, 57, 119)]
    for k, idx, tight in _diameter_stacks(rules):
        K = k + 1 + drop_first
        tables = np.stack([_untrimmed(rules[i], drop_first) for i in idx])
        for restrict, n_to in ((True, 12), (False, 9)):
            got = diffunif._ddt_maxima(tables, K, K, n_to, restrict_necklaces=restrict)
            want = diffunif._ddt_maxima(tight, k, K, n_to, restrict_necklaces=restrict)
            for i, tab, row, ref in zip(idx, tables, got, want):
                if not drop_first:
                    assert row == ref, (rules[i].text(), restrict)
                    continue
                for n, (raw, (a, b)), (raw_ref, (a_ref, _)) in zip(range(K, n_to + 1), row, ref):
                    assert (raw, a) == (raw_ref, a_ref), (rules[i].text(), n, restrict)
                    F = lf.induce(lf.Rule(K, array_to_table(tab)), n).as_array()
                    assert np.count_nonzero(F[np.arange(1 << n) ^ a] ^ F == b) == raw, (rules[i].text(), n)


def test_batched_kernel_memory_at_n12(catalog_entries):
    # the 120-rule stack at n = 12 holds its 120 window tables, one
    # table's build, one group's induced maps and one block's keys and
    # counts at a time; the first call fills the per-length caches
    import tracemalloc

    tables = np.stack([e.rule().table_array() for e in catalog_entries])
    expect = diffunif._ddt_maxima(tables, 6, 12, 12)
    tracemalloc.start()
    try:
        got = diffunif._ddt_maxima(tables, 6, 12, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expect
    assert peak < 2 << 20, peak


@pytest.mark.long
def test_pruned_kernel_matches_full_scan_past_n12(catalog_entries):
    # the bound scales by 2^(n-10); n = 14 is DU_CAP
    for i in (0, 57, 119):
        r = catalog_entries[i].rule()
        for n in (13, 14):
            got = ddt_max(r, n)
            assert got[0] == ddt_max(r, n, restrict_necklaces=False)[0], (i, n)
            assert got == _reference_ddt_max(r, n), (i, n)


def test_negated_output_keeps_ddt_max(catalog_entries):
    # F xor 1^n has the same DDT as F, so NOT o f (f(0) = 1, outside the
    # catalog's classes) has the same DU row and witnesses
    rng = random.Random(1411)
    for e in rng.sample(catalog_entries, 6):
        r = e.rule()
        neg = lf.rule_from_table(r.k, r.table ^ ((1 << (1 << r.k)) - 1))
        assert neg.k == r.k and neg.table != r.table
        for n in range(6, 13):
            assert ddt_max(neg, n) == ddt_max(r, n), (e.index, n)


# ---------------------------------------------------------------------------
# the row bound of the pruned necklace scan


def _row_maxima(r, n):
    """The largest count of each nonzero necklace row, one full bincount
    per row."""
    F = lf.induce(r, n).as_array().astype(np.intp)
    x = np.arange(1 << n, dtype=np.intp)
    return np.array([np.bincount(F[x ^ a] ^ F).max() for a in necklace_representatives(n)[1:]])


def _reference_window_row_max(r, S):
    """The largest count in each row w of the DDT of g, where g(z) packs
    f(z_i..z_{i+k-1}) for i = 0..S-k; from the rule's bits, one row at a
    time, in full counts."""
    k = r.k
    z = np.arange(1 << S)
    g = sum(np.array([r.bit((int(v) >> i) & ((1 << k) - 1)) for v in z]) << i for i in range(S - k + 1))
    return np.array([1 << S] + [int(np.bincount(g[z ^ w] ^ g).max()) for w in range(1, 1 << S)])


def _row_bounds(r, n, S):
    """The kernel's row bound of one rule at width S, in full counts."""
    return 2 * diffunif._row_bounds(diffunif._window_row_max(r.k, r.table_array())[S][None], n)[0]


def _reference_row_bounds(r, n, S):
    """2^(n-S) times the least, over the n cyclic S-bit windows w of a, of
    the largest count in row w of g's DDT."""
    H = _reference_window_row_max(r, S)
    out = []
    for a in necklace_representatives(n)[1:]:
        windows = [((a >> j) | (a << (n - j))) & ((1 << S) - 1) for j in range(n)]
        out.append(min(H[w] for w in windows) << (n - S))
    return np.array(out)


def test_necklace_windows_start_at_bit_j():
    # entry [j, i] holds bits j..j+S-1 (mod n) of the i-th nonzero representative
    for n, S in ((9, 9), (12, 10)):
        reps = necklace_representatives(n)[1:]
        windows = diffunif._necklace_windows(n, S)
        assert windows.shape == (n, len(reps))
        for i, a in enumerate(reps):
            bits = format(a, f"0{n}b")[::-1]  # bits[t] is bit t of a
            expect = [int((bits[j:] + bits[:j])[:S][::-1], 2) for j in range(n)]
            assert windows[:, i].tolist() == expect, (n, a)


def _bound_cases(catalog_entries):
    rng = random.Random(9)
    cases = [(_random_rule(rng, k), rng.choice(range(9, 13))) for k in range(1, 10) for _ in range(2)]
    picked = rng.sample(catalog_entries, 12)
    return cases + [(e.rule(), 9 + i % 4) for i, e in enumerate(picked)]


def test_row_bound_covers_every_necklace_row(catalog_entries):
    # both widths bound every row once n >= S; the scan uses the wider one
    for r, n in _bound_cases(catalog_entries):
        maxima = _row_maxima(r, n)
        for S in (9, 10):
            if r.k <= S <= n:
                assert (_row_bounds(r, n, S) >= maxima).all(), (r.text(), n, S)


def test_row_bound_matches_window_reference(catalog_entries):
    for r, n in _bound_cases(catalog_entries)[::4]:
        S = diffunif._window_bits(n)
        assert (_row_bounds(r, n, S) == _reference_row_bounds(r, n, S)).all(), (r.text(), n)


def test_row_bound_is_exact_for_the_identity():
    ident = lf.rule_from_table(1, [0, 1])
    for n in (9, 10, 12):
        assert (_row_bounds(ident, n, diffunif._window_bits(n)) == 1 << n).all()


def test_window_width_per_length():
    assert [diffunif._window_bits(n) for n in (9, 10, 11, 12, 14)] == [9, 10, 10, 10, 10]


def _window_tables(r):
    """The rule's window tables by width."""
    return diffunif._window_row_max(r.k, r.table_array())


def _widths(r):
    return [S for S in (9, 10) if r.k <= S]


def _assert_window_table_matches_counts(r):
    tables = _window_tables(r)
    assert sorted(tables) == _widths(r), r.text()
    for S, H in tables.items():
        assert (2 * H.astype(np.int64) == _reference_window_row_max(r, S)).all(), (r.text(), S)


def test_window_table_matches_counts_on_random_rules():
    # every k <= 10, both widths from the one build where k <= 9: k = 1..4
    # build it in more than one chunk of 2^6 components
    rng = random.Random(1014)
    for k in range(1, 11):
        _assert_window_table_matches_counts(_rule_of_diameter(rng, k))


def test_window_table_matches_counts_on_catalog(catalog_entries):
    for e in catalog_entries:
        _assert_window_table_matches_counts(e.rule())


def _affine_rules():
    """x_1, its negation, x_1 xor x_3 and x_1 xor ... xor x_k for
    k = 2..10: one Walsh spike of 2^S per component, the largest squares
    the build sees.  k = 1 gives the widest window map (m = 10 outputs) and
    the largest B."""
    rules = [lf.rule_from_table(1, [0, 1]), lf.rule_from_table(1, [1, 0])]
    rules.append(lf.rule_from_table(3, [bin(x & 5).count("1") & 1 for x in range(8)]))
    rules += [lf.rule_from_table(k, [bin(x).count("1") & 1 for x in range(1 << k)]) for k in range(2, 11)]
    assert [r.k for r in rules] == [1, 1, 3, *range(2, 11)]
    return rules


def test_window_table_is_exact_on_affine_rules():
    # g is affine, so each row of its DDT is one count of 2^S: H = 2^(S-1)
    for r in _affine_rules():
        _assert_window_table_matches_counts(r)
        for S, H in _window_tables(r).items():
            assert (H == 1 << (S - 1)).all(), (r.text(), S)


def _reference_walsh_row_max(k, table, S):
    """H at one width S from its own build of g's Walsh spectra in float64:
    one build per width, as before the one float32 build and its marginal."""

    def signs(b):
        s = np.ones(1)
        for _ in range(b):
            s = np.concatenate([s, -s])
        return s

    def hadamard(b):
        i = np.arange(1 << b)
        return signs(b)[i[:, None] & i]

    m = S - k + 1
    g = np.zeros(1 << S, dtype=np.intp)
    z = np.arange(1 << S)
    bits = np.array([(table >> x) & 1 for x in range(1 << k)], dtype=np.intp)
    for i in range(m):
        g |= bits[(z >> i) & ((1 << k) - 1)] << i
    lo = S // 2
    hi = S - lo
    c = min(m, 6)
    Hz_hi, Hz_lo, Hc = hadamard(hi), hadamard(lo), hadamard(c)
    B = np.empty((1 << (m - c), 1 << c, 1 << hi, 1 << lo))
    X, W, A = np.empty((3, 1 << c, 1 << hi, 1 << lo))
    for j in range(len(B)):
        np.take(Hc, g & ((1 << c) - 1), axis=1, out=X.reshape(1 << c, 1 << S), mode="clip")
        X *= signs(m - c)[j & (g >> c)].reshape(1 << hi, 1 << lo)
        np.matmul(np.matmul(Hz_hi, X, out=W), Hz_lo, out=A)
        A *= A
        np.matmul(np.matmul(Hz_hi, A, out=W), Hz_lo, out=A)
        np.matmul(Hc, A.transpose(1, 0, 2), out=B[j].transpose(1, 0, 2))
    for t in range(m - c):
        pairs = B.reshape(-1, 2, B.size >> (m - c - t))
        x, y = pairs[:, 0], pairs[:, 1]
        x += y
        y *= -2
        y += x
    T = B.reshape(-1, 1 << S).max(axis=0)
    return (T.astype(np.int64) >> (m + S + 1)).astype(np.uint16)


def _assert_window_table_matches_float64(r):
    tables = _window_tables(r)
    assert sorted(tables) == _widths(r), r.text()
    for S, H in tables.items():
        assert H.dtype == np.uint16 and (H == _reference_walsh_row_max(r.k, r.table, S)).all(), (r.text(), S)


def test_window_table_matches_float64_walsh_on_catalog(catalog_entries):
    for e in catalog_entries:
        _assert_window_table_matches_float64(e.rule())


# 2^6 components per chunk by default; 1 and 2 put every k <= 9 through
# the butterfly across chunks, and the marginal after it
@pytest.mark.parametrize("bits", [None, 1, 2])
def test_window_table_matches_float64_walsh_on_random_rules(monkeypatch, bits):
    if bits is not None:
        monkeypatch.setattr(diffunif, "_COMPONENT_BITS", bits)
    rng = random.Random(2022 + (bits or 0))
    for k in range(1, 11):
        for _ in range(2):
            _assert_window_table_matches_float64(_rule_of_diameter(rng, k))


def test_window_table_in_chunks_matches_one_chunk(monkeypatch):
    # the butterfly across chunks against one chunk of all 2^m components
    rng = random.Random(77)
    rules = [_rule_of_diameter(rng, k) for k in (3, 5, 7)]
    whole = [_window_tables(r) for r in rules]
    for bits in (1, 2):
        monkeypatch.setattr(diffunif, "_COMPONENT_BITS", bits)
        for r, tables in zip(rules, whole):
            got = _window_tables(r)
            assert sorted(got) == [9, 10] and all((got[S] == tables[S]).all() for S in got), (r.text(), bits)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_window_table_memory_is_bounded(k):
    # one build at S = 10 for both widths: B (2^(m+10) float32s), three
    # chunk arrays of 2^(c+10) float32s, c = min(m, 6), and little else;
    # the marginal for S = 9 is summed in place in B
    import tracemalloc

    r = _rule_of_diameter(random.Random(k), k)
    m = 10 - k + 1
    scratch = 4 * ((1 << (m + 10)) + 3 * (1 << (min(m, 6) + 10)))
    tracemalloc.start()
    try:
        tables = _window_tables(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(tables) == [9, 10]
    assert peak < scratch + (256 << 10), (k, peak)


def _count_window_builds(monkeypatch):
    """The (k, packed table) of every window-table build, in call order."""
    builds, window_row_max = [], diffunif._window_row_max

    def counting(k, table):
        builds.append((k, array_to_table(table)))
        return window_row_max(k, table)

    monkeypatch.setattr(diffunif, "_window_row_max", counting)
    return builds


def test_catalog_builds_one_window_table_per_rule(monkeypatch, catalog_entries):
    # n = 9 reads the 9-bit table and n >= 10 the 10-bit one, both from one
    # build per rule in the pass over n = 9..12
    builds = _count_window_builds(monkeypatch)
    rules = [e.rule() for e in catalog_entries]
    _maxima(rules, 9, 12)
    assert len(builds) == len(set(builds)) == len({(r.k, r.table) for r in rules}) == 120


def test_function_pool_builds_one_window_table_per_rule(monkeypatch, catalog_entries):
    # 472 rules, more than any per-process cache of the catalog's size
    # would hold: still one build per rule over the four pruned lengths
    pool = catalog.catalog_function_pool(catalog_entries)
    builds = _count_window_builds(monkeypatch)
    du_scaled_table(pool, 9, 12)
    assert len(builds) == len(set(builds)) == len(pool) == 472


def test_scaled_table_degrees_match_degree_on_a_mixed_stack(catalog_entries):
    # one stacked degree pass per diameter, read back in row order
    rules = catalog.catalog_function_pool(catalog_entries) + [r for r in _MIXED if r.k <= 9]
    random.Random(27).shuffle(rules)
    assert len({r.k for r in rules}) == 9
    tbl = du_scaled_table(rules, 9, 9)
    assert [(k, deg) for _, k, deg, _ in tbl.rows] == [(r.k, lf.degree(r)) for r in rules]


def _hook_row_count(monkeypatch, n):
    """The rows the kernel counts at length n, one entry per call of its
    block counter."""
    counted = []
    count_rows = diffunif._count_rows

    def counting(F, n_, xs, g, a):
        if n_ == n:
            counted.append(len(a))
        return count_rows(F, n_, xs, g, a)

    monkeypatch.setattr(diffunif, "_count_rows", counting)
    return counted


def test_row_bound_prunes_catalog_rows_at_n12(monkeypatch, catalog_entries):
    counted = _hook_row_count(monkeypatch, 12)
    rules = [e.rule() for e in catalog_entries]
    ruled_out = 0
    for e, r, ((raw, _),) in zip(catalog_entries, rules, _maxima(rules, 12, 12)):
        assert raw == e.stated_du[-1]
        ruled_out += int((_row_bounds(r, 12, 10) < raw).sum())
    rows = len(catalog_entries) * (len(necklace_representatives(12)) - 1)
    assert ruled_out > 0
    # 581 of 42,120 rows are counted (12,243 with a 9-bit window); an
    # unpruned scan counts them all
    assert sum(counted) < 0.03 * rows


def test_first_row_alone_prunes_catalog_rows_at_n9(monkeypatch, catalog_entries):
    # row a = 1 of every rule is counted first, and its maximum prunes the
    # rest: a = 1 is the witness for most rules
    counted = _hook_row_count(monkeypatch, 9)
    rules = [e.rule() for e in catalog_entries]
    for e, r, got in zip(catalog_entries, rules, _maxima(rules, 9, 10)):
        assert got == [_reference_ddt_max(r, n) for n in (9, 10)], e.index
    # 2,177 rows; pruned by the bound alone, or by a first block of 32
    # rows, all 7,080 nonzero necklace rows of the 120 rules are counted
    assert sum(counted) < 2_500


def test_catalog_maxima_and_counted_rows_are_pinned(monkeypatch, catalog_entries):
    # every (raw, (a, b)) of the 120 rules at n = 6..12, by digest, and the
    # rows the pruned scan counts at n = 9..12, as the float64 window tables
    # (one build per width) gave them
    counted = dict.fromkeys(range(6, 13), 0)
    count_rows = diffunif._count_rows

    def counting(F, n, xs, g, a):
        counted[n] += len(a)
        return count_rows(F, n, xs, g, a)

    monkeypatch.setattr(diffunif, "_count_rows", counting)
    rules = [e.rule() for e in catalog_entries]
    found = _maxima(rules, 6, 12)
    rows = [[n, [row[n - 6] for row in found]] for n in range(6, 13)]
    digest = "b6c93be00993d94c3db70661350b5f42ce69b563b5873751a3461e6a0bb4d61d"
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest
    assert [counted[n] for n in (9, 10, 11, 12)] == [2_177, 322, 327, 581]


# ---------------------------------------------------------------------------
# threads


def test_ddt_max_from_threads(catalog_entries):
    # more threads than cores; numpy drops the interpreter lock in the
    # kernel, so a buffer shared between threads would mix their counts
    cases = [(catalog_entries[i].rule(), n) for i in (3, 40, 77, 110) for n in (9, 10, 11, 12)]
    expect = [ddt_max(r, n) for r, n in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda c: ddt_max(*c), cases * 3, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == expect * 3
