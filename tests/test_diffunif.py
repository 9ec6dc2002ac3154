import random
from fractions import Fraction

import numpy as np
import pytest

import liftforge as lf
from liftforge import diffunif
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
    with pytest.raises(CapExceededError):
        ddt_max(PATT, 15)
    with pytest.raises(CapExceededError):
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
    F = lf.induce(r, n).as_array()
    x = np.arange(1 << n, dtype=np.uint32)
    best, wit = -1, (0, 0)
    diffs = necklace_representatives(n) if restrict_necklaces else range(1, 1 << n)
    for a in diffs:
        if a == 0:
            continue
        counts = np.bincount(F[x ^ np.uint32(a)] ^ F[x], minlength=1 << n)
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


# 1: one row per block; 3 << 7: three rows at n=7 (19 nonzero necklaces,
# so the last block is ragged), one at n >= 8; 1 << 20: every row in one block
@pytest.mark.parametrize("block", [1, 3 << 7, 1 << 20])
def test_ddt_kernel_block_sizes(monkeypatch, catalog_entries, block):
    monkeypatch.setattr(diffunif, "_ROW_BLOCK", block)
    rng = random.Random(block)
    cases = [(_random_rule(rng, k), n) for k in (2, 4, 6) for n in (6, 7, 9)]
    cases += [(catalog_entries[i].rule(), n) for i in (0, 57, 119) for n in (6, 7, 8)]
    _assert_matches_reference(cases)
