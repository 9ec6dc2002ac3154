import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftforge as lf
from liftforge import corefn
from liftforge.families import ChainFamilyParams, build_chain, build_symmetric, symmetric_params
from liftforge.landscape import compile_landscape, parse_landscape
from liftforge.corefn import (
    Anf,
    InvalidRuleError,
    _compose_table,
    _end_vars,
    _take,
    _var_zero_mask,
    _window_blocks,
    _normalize,
    _windows,
    anf_masks_to_table,
    array_to_table,
    cube_table,
    essential_vars,
    rule_from_table,
    table_to_anf_masks,
    table_to_array,
)


def test_identity_rule():
    r = rule_from_table(1, [0, 1])
    assert (r.k, r.shift) == (1, 0)
    assert r.text() == "1:2"


def test_projection_trims_and_records_shift():
    # g(x1,x2,x3) = x2
    table = [0, 0, 1, 1, 0, 0, 1, 1]
    r = rule_from_table(3, table)
    assert r.k == 1 and r.shift == -1
    assert r.same_function(lf.rule_from_table(1, [0, 1]))


def test_tight_rule_unchanged():
    ref = lf.rule_from_anf_text("x2 ^ x1*(x3^1)*x4")
    r = rule_from_table(4, ref.table_array())
    assert r.k == 4 and r.shift == 0 and r.table == ref.table


def test_constant_rejected():
    with pytest.raises(InvalidRuleError):
        rule_from_table(3, [0] * 8)
    with pytest.raises(InvalidRuleError):
        rule_from_table(2, [1] * 4)


def test_length_mismatch_rejected():
    with pytest.raises(InvalidRuleError):
        rule_from_table(3, [0, 1, 1, 0])


def test_serialization_round_trip():
    r = lf.rule_from_anf_text("x2 ^ x1*(x3^1)*x4")
    assert lf.rule_from_text(r.text()).same_function(r)
    assert r.text().startswith("4:")


def test_anf_known_expansion():
    # x2 + x1(x3+1)x4 expands to {x2, x1x3x4, x1x4}
    r = lf.rule_from_anf_text("x2 ^ x1*(x3^1)*x4")
    monos = {tuple(sorted(m)) for m in lf.to_anf(r).monomials}
    assert monos == {(2,), (1, 3, 4), (1, 4)}


def test_anf_constant_zero_table():
    assert table_to_anf_masks(0, 3) == []
    assert anf_masks_to_table([], 3) == 0


def test_degree_examples():
    patt = lf.rule_from_anf_text("x2 ^ (x1^1)*x3*(x4^1)")
    assert lf.degree(patt) == 3
    assert lf.degree(lf.rule_from_anf_text("x1")) == 1


def _anf_degree(row, k):
    """Reference degree of a 0/1 table: its largest ANF monomial, 0 if none."""
    return max((bin(m).count("1") for m in table_to_anf_masks(array_to_table(row), k)), default=0)


@pytest.mark.parametrize("k", range(1, 13))
def test_lane_degrees_match_anf(k):
    # tables of every degree 0..k (random ANFs with monomials up to d), with
    # the constants 0 and 1, as lanes of every lane word that holds them and
    # as byte rows (one lane, bit 0, per row)
    rng = np.random.default_rng(k)
    weight = np.bitwise_count(np.arange(1 << k))
    for n in (1, 8, 9, 64):
        anf = rng.integers(0, 2, (n, 1 << k), dtype=np.uint8) * (weight <= rng.integers(0, k + 1, (n, 1)))
        tables = corefn._mobius(anf, k)
        tables[0] = 0
        if n > 1:
            tables[1] = 1
        want = [_anf_degree(row, k) for row in tables]
        bytes_got = corefn._lane_degrees(tables, k)
        assert bytes_got[:, 0].tolist() == want and not bytes_got[:, 1:].any()
        for dtype in (np.dtype(f"u{size}") for size in (1, 2, 4, 8) if size * 8 >= n):
            cols = np.stack([corefn._lanes(tables, dtype), corefn._lanes(tables[::-1], dtype)])
            got = corefn._lane_degrees(cols, k)
            assert got.shape == (2, dtype.itemsize * 8) and not got[:, n:].any()
            assert got[0, :n].tolist() == want and got[1, :n].tolist() == want[::-1], (n, dtype)


def test_balance():
    assert lf.is_balanced(lf.rule_from_anf_text("x1 ^ x2"))
    assert not lf.is_balanced(lf.rule_from_anf_text("x1*x2"))


def test_reverse_complement_basics():
    r = lf.rule_from_anf_text("x2 ^ x1*(x3^1)*x4")
    assert lf.reverse(lf.reverse(r)).same_function(r)
    assert lf.complement(lf.complement(r)).same_function(r)
    rev = lf.reverse(r)
    assert rev.same_function(lf.rule_from_anf_text("x3 ^ x4*(x2^1)*x1"))


def test_canonicalize_constant_on_orbit():
    r = lf.rule_from_anf_text("x2 ^ x1*(x3^1)*(x4^1)*x5")
    cid = lf.canonicalize(r)
    assert lf.canonicalize(lf.reverse(r)) == cid
    assert lf.canonicalize(lf.complement(r)) == cid
    assert lf.canonicalize(lf.complement(lf.reverse(r))) == cid
    # idempotent on the canonical representative
    assert lf.canonicalize(cid.rule()) == cid


def test_palindromic_rule_orbit_smaller_than_group():
    # x1 + x2 is fixed by reversal, so its orbit has 2 members, not 4
    r = lf.rule_from_anf_text("x1 ^ x2")
    assert len(lf.orbit(r)) == 2
    # x1 is fixed by both reversal and complementation
    assert len(lf.orbit(lf.rule_from_anf_text("x1"))) == 1


def test_canonicalize_picks_the_lexicographically_least_table():
    # least as the sequence (f(0), f(1), ...), not as the packed integer,
    # whose top bit is the last entry
    rng = random.Random(7)
    orders_differ = 0
    for k in range(1, 9):
        for _ in range(30):
            try:
                r = rule_from_table(k, rng.getrandbits(1 << k))
            except InvalidRuleError:
                continue
            members = lf.orbit(r)
            least = min(members, key=lambda m: m.table_array().tolist())
            assert lf.canonicalize(r) == lf.EquivClassId(r.k, least.table)
            orders_differ += least.table != min(m.table for m in members)
    assert orders_differ > 0


def test_degree_balance_invariant_under_group():
    r = lf.rule_from_anf_text("x2 ^ x1*x3*(x4^1)*(x5^1)")
    for m in lf.orbit(r):
        assert lf.degree(m) == lf.degree(r)
        assert lf.is_balanced(m) == lf.is_balanced(r)


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=1, max_value=9), st.data())
def test_mobius_round_trip(k, data):
    table = data.draw(st.integers(min_value=0, max_value=(1 << (1 << k)) - 1))
    masks = table_to_anf_masks(table, k)
    assert anf_masks_to_table(masks, k) == table


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_from_anf_to_anf_round_trip(k, data):
    table = data.draw(st.integers(min_value=1, max_value=(1 << (1 << k)) - 1))
    try:
        r = rule_from_table(k, table)
    except InvalidRuleError:
        return  # constant draw
    assert lf.from_anf(lf.to_anf(r)).same_function(r)


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_canonicalize_idempotent_and_invariant(k, data):
    table = data.draw(st.integers(min_value=1, max_value=(1 << (1 << k)) - 2))
    try:
        r = rule_from_table(k, table)
    except InvalidRuleError:
        return
    cid = lf.canonicalize(r)
    assert lf.canonicalize(lf.reverse(r)) == cid
    assert lf.canonicalize(lf.complement(r)) == cid


def test_parse_anf_errors():
    with pytest.raises(lf.LiftforgeError):
        lf.parse_anf("x2 ^ (x1")
    with pytest.raises(lf.LiftforgeError):
        lf.parse_anf("y1 ^ x2")


def test_render_parse_round_trip():
    r = lf.rule_from_anf_text("x2 ^ x1*(x4*(x3^1) ^ (x4^1)*x5*(x2^x3^1))")
    text = lf.render_anf(lf.to_anf(r))
    assert lf.rule_from_anf_text(text).same_function(r)


def test_essential_vars():
    r = lf.rule_from_anf_text("x1 ^ x3")
    assert r.k == 3
    assert essential_vars(r.table, 3) == 0b101


def test_var_zero_mask_matches_division_formula():
    for k in range(1, 15):
        size = 1 << k
        for i in range(k):
            period = 1 << (i + 1)
            want = ((1 << (1 << i)) - 1) * (((1 << size) - 1) // ((1 << period) - 1))
            assert _var_zero_mask(i, k) == want, (i, k)


# ---------------------------------------------------------------------------
# the composition kernel against the pointwise definition of g o f


def _pointwise(g: int, kg: int, f: int, kf: int, x: int) -> int:
    """g(f(x_1..x_kf), ..., f(x_kg..x_K)) read bit by bit from the tables."""
    mf = (1 << kf) - 1
    v = sum(((f >> ((x >> j) & mf)) & 1) << j for j in range(kg))
    return (g >> v) & 1


def _random_table(rng, k: int) -> int:
    return int.from_bytes(rng.bytes(max(1, (1 << k) // 8)), "little") & ((1 << (1 << k)) - 1)


@pytest.mark.parametrize("kg", [1, 2, 3, 7, 8, 9, 16, 17])
def test_kernel_matches_pointwise_composition(kg):
    rng = np.random.default_rng(kg)
    for kf in (1, 2, 3, 5):
        K = kg + kf - 1
        g, f = _random_table(rng, kg), _random_table(rng, kf)
        ga, fa = table_to_array(g, kg), table_to_array(f, kf)
        w = _windows(fa, kf, kg)
        assert w.dtype == (np.uint8 if kg <= 8 else np.uint16 if kg <= 16 else np.uint32)
        assert w.shape == (1 << K,)
        raw = _compose_table(ga, kg, fa, kf)
        assert np.array_equal(table_to_array(raw, K), ga[w])
        xs = range(1 << K) if K <= 12 else rng.integers(0, 1 << K, 3000).tolist()
        assert all(((raw >> x) & 1) == _pointwise(g, kg, f, kf, x) for x in xs), (kg, kf)


def test_kernel_blocks_above_2_pow_22_entries():
    rng = np.random.default_rng(23)
    kg = kf = 12
    K = kg + kf - 1
    g, f = _random_table(rng, kg), _random_table(rng, kf)
    ga, fa = table_to_array(g, kg), table_to_array(f, kf)
    blocks = list(_window_blocks(fa, kf, kg))
    assert len(blocks) > 1 and max(b.size for b in blocks) <= 1 << 22
    assert sum(b.size for b in blocks) == 1 << K
    out = table_to_array(_compose_table(ga, kg, fa, kf), K)
    for x in rng.integers(0, 1 << K, 3000).tolist():
        assert out[x] == _pointwise(g, kg, f, kf, x)


@pytest.mark.parametrize("block_bits", [3, 6])
def test_kernel_blocks_of_any_size(monkeypatch, block_bits):
    # small blocks take both block shapes: whole (b, c) planes and part of one
    monkeypatch.setattr(corefn, "_BLOCK_BITS", block_bits)
    rng = np.random.default_rng(block_bits)
    for kg, kf in ((2, 9), (5, 4), (9, 2), (6, 6)):
        g, f = _random_table(rng, kg), _random_table(rng, kf)
        raw = _compose_table(table_to_array(g, kg), kg, table_to_array(f, kf), kf)
        assert all(((raw >> x) & 1) == _pointwise(g, kg, f, kf, x) for x in range(1 << (kg + kf - 1)))


@pytest.mark.parametrize("block_bits", [3, 6, 22])
def test_windows_of_a_stack_match_each_table(monkeypatch, block_bits):
    # a stack of tables gives one window row per table, also in blocks
    monkeypatch.setattr(corefn, "_BLOCK_BITS", block_bits)
    rng = np.random.default_rng(block_bits)
    for kf, m, n in ((4, 1, 3), (4, 6, 5), (5, 8, 7), (6, 7, 1), (2, 9, 4), (6, 3, 64)):
        stack = np.stack([table_to_array(_random_table(rng, kf), kf) for _ in range(n)])
        got = _windows(stack, kf, m)
        assert got.shape == (n, 1 << (m + kf - 1)) and got.dtype == _windows(stack[0], kf, m).dtype
        assert all(np.array_equal(got[i], _windows(stack[i], kf, m)) for i in range(n)), (kf, m, n)


@pytest.mark.parametrize("take_bits", [3, 10])
def test_take_in_slices_matches_indexing(monkeypatch, take_bits):
    monkeypatch.setattr(corefn, "_TAKE_BITS", take_bits)
    rng = np.random.default_rng(take_bits)
    a = rng.integers(0, 2, 1 << 12, dtype=np.uint8)
    for n in (0, 1, 7, 8, 1 << take_bits, (1 << take_bits) + 5, 5000):
        idx = rng.integers(0, a.size, n).astype(np.uint16)
        assert np.array_equal(_take(a, idx), a[idx]), n
    for kg, kf in ((7, 6), (9, 2)):
        g, f = _random_table(rng, kg), _random_table(rng, kf)
        raw = _compose_table(table_to_array(g, kg), kg, table_to_array(f, kf), kf)
        assert all(((raw >> x) & 1) == _pointwise(g, kg, f, kf, x) for x in range(1 << (kg + kf - 1)))


def test_end_vars_match_essential_vars():
    rng = np.random.default_rng(5)
    for k in range(1, 11):
        for _ in range(20):
            # a random table on variables i0..j0 only, embedded in k variables
            i0, j0 = sorted(rng.integers(0, k, 2).tolist())
            inner = table_to_array(_random_table(rng, j0 - i0 + 1), j0 - i0 + 1)
            idx = (np.arange(1 << k) >> i0) & ((1 << (j0 - i0 + 1)) - 1)
            t = int.from_bytes(np.packbits(inner[idx], bitorder="little").tobytes(), "little")
            ess = essential_vars(t, k)
            want = None if ess == 0 else ((ess & -ess).bit_length() - 1, ess.bit_length() - 1)
            assert _end_vars(t, k) == want
        assert _end_vars(0, k) is None
        assert _end_vars((1 << (1 << k)) - 1, k) is None


def test_constant_composite_rejected():
    # x1*x2 after x1*(x2^1): f(x1,x2) and f(x2,x3) are never both 1
    g = lf.rule_from_anf_text("x1*x2")
    f = lf.rule_from_anf_text("x1*(x2^1)")
    with pytest.raises(lf.LiftforgeError):
        lf.compose(g, f)


# ---------------------------------------------------------------------------
# the cube builder and the width check before any table


def test_cube_table_matches_pointwise():
    rng = random.Random(15)
    for _ in range(300):
        K = rng.randint(1, 8)
        center = rng.randint(1, K)
        cubes = []
        for _ in range(rng.randint(0, 4)):
            ones = rng.getrandbits(K)
            cubes.append((ones, rng.getrandbits(K) & ~ones))
        got = cube_table(K, center, cubes)
        want = [any(v & o == o and v & z == 0 for o, z in cubes) ^ (v >> (center - 1) & 1) for v in range(1 << K)]
        assert got.dtype == np.uint8 and got.tolist() == want, (K, center, cubes)


def _reference_from_anf(a):
    """from_anf over 2**(largest variable index) entries."""
    k = max(max(m) for m in a.monomials if m)
    return _normalize(k, anf_masks_to_table(a.masks(), k))


def test_from_anf_over_the_span_matches_the_full_width():
    rng = random.Random(16)
    for _ in range(300):
        monos = {frozenset(rng.sample(range(1, 11), rng.randint(0, 3))) for _ in range(rng.randint(1, 5))}
        a = lf.Anf(frozenset(monos))
        if not any(monos):
            continue
        got, ref = lf.from_anf(a), _reference_from_anf(a)
        assert (got.k, got.table, got.shift) == (ref.k, ref.table, ref.shift), lf.render_anf(a)
    r = lf.rule_from_anf_text("x25")
    assert (r.k, r.table, r.shift) == (1, 0b10, -24)


# builders of a rule of diameter k from a formula; symmetric (k, 12, S) is
# valid at k = 24 (xi = 1) and k = 25 (xi = 2, t = 24)
WIDE_BUILDERS = {
    "cube_table": lambda k: cube_table(k, 1),
    "compile_set": lambda k: compile_landscape(parse_landscape("0★" + "-" * (k - 3) + "1")),
    "build_symmetric": lambda k: build_symmetric(symmetric_params(k, 12, {1, 2, k - 1, k})),
    "build_chain": lambda k: build_chain(ChainFamilyParams(k // 2)),
    "from_anf": lambda k: lf.rule_from_anf_text(f"x2 ^ x{k + 1}"),
}


@pytest.mark.parametrize(
    "name, k",
    [
        ("cube_table", 25),
        ("compile_set", 26),
        ("build_symmetric", 25),
        ("build_chain", 26),
        ("build_chain", 28),
        ("from_anf", 25),
    ],
)
def test_formula_builders_refuse_past_max_diameter_before_allocating(name, k):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidRuleError, match=f"diameter {k} outside 1..24"):
            WIDE_BUILDERS[name](k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name", sorted(WIDE_BUILDERS))
def test_formula_builders_build_at_max_diameter(name):
    got = WIDE_BUILDERS[name](corefn.MAX_DIAMETER)
    assert got.size == 1 << 24 if name == "cube_table" else got.k == 24
