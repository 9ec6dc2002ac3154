import numpy as np
import pytest

import liftforge as lf
from liftforge import lifting
from liftforge.corefn import ArityCapError, _normalize, array_to_table
from liftforge.families import (
    ChainFamilyParams,
    InvalidParamsError,
    build_chain,
    build_symmetric,
    symmetric_params,
    valid_symmetric_params,
    verify_order_claim,
)
from liftforge.landscape import compile_landscape, parse_landscape


def test_symmetric_known_rule():
    p = symmetric_params(4, 2, {1, 4})
    r = build_symmetric(p)
    assert r.same_function(lf.rule_from_anf_text("x2 ^ x1*(x3^1)*x4"))
    assert p.xi == 1 and p.t == 4 and p.r_exp == 2


def test_symmetric_k6_example():
    p = symmetric_params(6, 3, {1, 6})
    r = build_symmetric(p)
    assert r.same_function(lf.rule_from_anf_text("x3 ^ (x4^1)*x1*x6"))
    assert lf.decide_proper(r).proper


@pytest.mark.parametrize(
    "k,j,members,clause",
    [
        (6, 2, {1, 6}, "no-valid-t"),
        (6, 1, {1, 6}, "j-range"),
        (6, 4, {1, 6}, "j-range"),
        (6, 3, {1, 2, 6}, "asymmetric"),
        (6, 3, {2, 5}, "missing-1"),
        (6, 3, {1, 3, 4, 6}, "contains-j"),
        (6, 3, {0, 1, 6}, "subset-range"),
    ],
)
def test_symmetric_param_rejections(k, j, members, clause):
    with pytest.raises(InvalidParamsError) as exc:
        symmetric_params(k, j, members)
    assert exc.value.clause == clause


def test_chain_r2_is_involution_rule():
    r = build_chain(ChainFamilyParams(2))
    assert r.same_function(compile_landscape(parse_landscape("0★10")))
    assert verify_order_claim(r, 2, 2)


def test_chain_r3():
    r = build_chain(ChainFamilyParams(3))
    assert r.k == 6
    assert lf.decide_proper(r).proper
    assert verify_order_claim(r, 3, 3)
    order = lf.iterate_order(r, 3)
    assert order is not None and 3 % order == 0


def test_chain_r4():
    r = build_chain(ChainFamilyParams(4))
    assert r.k == 8
    assert verify_order_claim(r, 4, 4)
    for n in range(8, 17):
        assert lf.is_lifting(r, n)


def test_chain_rejects_small_r():
    with pytest.raises(InvalidParamsError):
        ChainFamilyParams(1)


def test_all_valid_params_k_le_8_proper_and_ordered():
    params = []
    for k in range(4, 9):
        params.extend(valid_symmetric_params(k))
    assert params, "expected at least one valid parameter set"
    for p in params:
        r = build_symmetric(p)
        assert r.k == p.k
        assert lf.decide_proper(r).proper
        assert verify_order_claim(r, 1 << p.r_exp, p.j)


def test_symmetric_k11_order_power_4():
    p = symmetric_params(11, 5, {1, 11})
    assert 1 << p.r_exp == 4
    assert verify_order_claim(build_symmetric(p), 4, p.j)


def test_symmetric_k12_j6_member_needs_a_raw_width_of_26(monkeypatch):
    # the arity cap stays above MAX_DIAMETER: this member's iterates pass
    # through raw composites of 25 and 26 variables that trim back to a Rule
    p = symmetric_params(12, 6, {1, 2, 11, 12})
    r, power = build_symmetric(p), 1 << p.r_exp
    widths, compose_table = [], lifting._compose_table

    def spy(g, gk, f, fk):
        widths.append(gk + fk - 1)
        return compose_table(g, gk, f, fk)

    monkeypatch.setattr(lifting, "_compose_table", spy)
    assert verify_order_claim(r, power, p.j)
    assert max(widths) == 26
    monkeypatch.setattr(lifting, "ARITY_CAP", 24)
    with pytest.raises(ArityCapError, match="needs 25 variables, cap is 24"):
        verify_order_claim(r, power, p.j)


def test_symmetric_second_iterate_identity():
    # under the window convention centered at j, the double iterate is
    # G^2(x)_i = x_i + (x_{i+2*Xi}+1) * prod_{l in S} x_{i-j+l} x_{i+Xi-j+l}
    from liftforge.lifting import induce

    for k, j, S in ((4, 2, {1, 4}), (6, 3, {1, 6}), (8, 3, {1, 4, 5, 8})):
        try:
            p = symmetric_params(k, j, S)
        except InvalidParamsError:
            continue
        r = build_symmetric(p)
        xi = p.xi
        for n in range(k + xi, 14):
            f0 = induce(r, n).as_array()
            dbl = f0[f0]  # offset-0 double iterate
            # G = sigma^(j-1) F0, so G^2 rotates the packed map by 2(j-1)
            c = (2 * (j - 1)) % n
            mask = np.uint32((1 << n) - 1)
            g2 = (((dbl << np.uint32(c)) | (dbl >> np.uint32(n - c))) & mask) if c else dbl
            x = np.arange(1 << n, dtype=np.uint32)

            def bit(m):
                return (x >> np.uint32(m % n)) & 1

            claim = np.zeros_like(x)
            for i in range(n):
                prod = np.ones_like(x)
                for l in sorted(S):
                    prod &= bit(i + l - j) & bit(i + xi + l - j)
                claim |= (bit(i) ^ ((bit(i + 2 * xi) ^ 1) & prod)) << np.uint32(i)
            assert np.array_equal(g2, claim)


# ---------------------------------------------------------------------------
# the cube builders against the bit-plane builders they replaced


def _planes(k):
    idx = np.arange(1 << k, dtype=np.uint32)
    return lambda i: ((idx >> np.uint32(i - 1)) & 1).astype(np.uint8)  # x_i, 1-based


def _reference_symmetric(p):
    k, j, S = p.k, p.j, p.members
    var = _planes(k)
    prod = np.ones(1 << k, dtype=np.uint8)
    for l in S:
        prod &= var(l)
    return _normalize(k, array_to_table(var(j) ^ ((var(k + 1 - j) ^ 1) & prod)))


def _reference_chain(r):
    k = 2 * r
    var = _planes(k)
    acc = var(r)
    for j in range(1, r):
        term = (var(j) ^ 1) & (var(r + j + 1) ^ 1)
        for m in range(1, j + 1):
            term &= var(r + m)
        all_zero = np.ones(1 << k, dtype=np.uint8)
        all_one = np.ones(1 << k, dtype=np.uint8)
        for m in range(j + 1, r + 1):
            all_zero &= var(m) ^ 1
            all_one &= var(m)
        acc ^= term & (all_zero ^ all_one)
    return _normalize(k, array_to_table(acc))


def _key(r):
    return r.k, r.table, r.shift


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8, 10, 11, 12, 16, 20])
def test_symmetric_matches_bit_planes(k):
    for p in valid_symmetric_params(k)[:3]:
        assert _key(build_symmetric(p)) == _key(_reference_symmetric(p)), p


def test_chain_matches_bit_planes():
    for r in range(2, 11):
        assert _key(build_chain(ChainFamilyParams(r))) == _key(_reference_chain(r)), r
