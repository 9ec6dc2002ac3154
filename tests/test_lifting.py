import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

import liftforge as lf
from liftforge import cli, lifting
from liftforge.corefn import ArityCapError, InvalidRuleError, _normalize, _take, bitmask, table_to_array
from liftforge.landscape import compile_landscape, parse_landscape
from liftforge.lifting import (
    CapExceededError,
    _raw_induced_array,
    compose_chain,
    necklace_representatives,
    replay_witness,
    sigma,
)


def _rule(text):
    return compile_landscape(parse_landscape(text))


PATT = _rule("0★10")
XOR2 = lf.rule_from_anf_text("x1 ^ x2")


def test_induce_identity():
    ident = lf.rule_from_table(1, [0, 1])
    fm = lf.induce(ident, 5)
    assert np.array_equal(fm.as_array(), np.arange(32))


def test_induce_patt_bijection_n4():
    fm = lf.induce(PATT, 4)
    assert fm.is_bijective()
    assert sorted(fm.as_array()) == list(range(16))


def test_xor_rule_complement_symmetry():
    fm = lf.induce(XOR2, 6)
    arr = fm.as_array()
    full = (1 << 6) - 1
    x = 0b010011
    assert arr[x] == arr[x ^ full]
    assert not fm.is_bijective()


def test_induce_rejects_short_circle():
    with pytest.raises(InvalidRuleError):
        lf.induce(PATT, 3)


def test_is_lifting_examples():
    assert all(lf.is_lifting(PATT, n) for n in range(4, 17))
    assert not lf.is_lifting(XOR2, 8)
    gf = lf.compose(_rule("1★001"), _rule("1★01"))
    assert all(lf.is_lifting(gf, n) for n in range(5, 15))


def test_is_lifting_cap():
    with pytest.raises(CapExceededError):
        lf.is_lifting(PATT, 25)


def test_shift_invariance_random():
    rng = random.Random(20240810)
    for _ in range(200):
        k = rng.randint(1, 6)
        table = rng.getrandbits(1 << k)
        try:
            r = lf.rule_from_table(k, table)
        except InvalidRuleError:
            continue
        n = rng.randint(r.k, 12)
        fm = lf.induce(r, n)
        x = rng.getrandbits(n)
        assert fm(sigma(x, n)) == sigma(fm(x), n)


def _bits(x, n):
    """Bit i of each x at [..., i]."""
    return (np.asarray(x, dtype=np.int64)[..., None] >> np.arange(n)) & 1


def test_sigma_moves_bit_i_minus_c_to_i():
    # (sigma^c x)_i = x_{i-c} with indices mod n, on ints, on uint32 arrays
    # and with an array of shifts; np.roll is the reference
    rng = np.random.default_rng(2501)
    for n in range(1, 25):
        xs = rng.integers(0, 1 << n, size=16, dtype=np.uint32)
        shifts = np.array([-n, -1, 0, 1, n])
        for c in shifts.tolist():
            expect = np.roll(_bits(xs, n), c, axis=-1)
            got = sigma(xs, n, c)
            assert got.dtype == np.uint32 and np.array_equal(_bits(got, n), expect), (n, c)
            assert [sigma(int(x), n, c) for x in xs] == got.tolist(), (n, c)
        per_shift = sigma(xs[:, None], n, shifts)
        for j, c in enumerate(shifts.tolist()):
            assert np.array_equal(per_shift[:, j], sigma(xs, n, c)), (n, c)


def test_necklace_representatives_are_the_least_rotations():
    from liftforge import diffunif

    assert diffunif.necklace_representatives is necklace_representatives
    for n in range(1, 13):
        words = [format(x, f"0{n}b") for x in range(1 << n)]
        least = {min(int(w[c:] + w[:c], 2) for c in range(n)) for w in words}
        assert necklace_representatives(n) == tuple(sorted(least)), n


def test_single_point_matches_array():
    fm = lf.induce(PATT, 9)
    arr = fm.as_array()
    rng = random.Random(1)
    for _ in range(50):
        x = rng.getrandbits(9)
        assert fm(x) == arr[x]


def test_normalization_preserves_induced_behavior():
    # raw table with a leading dead variable: rule slides, induced maps
    # differ only by the recorded rotation
    raw_k, n = 5, 10
    base = _rule("0★10")
    raw_table = 0
    for v in range(1 << raw_k):
        raw_table |= base.bit((v >> 1) & 0b1111) << v
    r = lf.rule_from_table(raw_k, raw_table)
    assert r.k == 4 and r.shift == -1
    raw_map = _raw_induced_array(raw_table, raw_k, n)
    shifted = sigma(lf.induce(r, n).as_array(), n, r.shift)
    assert np.array_equal(raw_map, shifted)


# ---------------------------------------------------------------------------
# the induced map against the per-position loop it replaced


def _reference_induced(table, k, n):
    """F over all 2**n states, one gather and shift per window position."""
    size = 1 << n
    x = np.arange(size, dtype=np.uint32)
    tab = table_to_array(table, k)
    mk = np.uint32(bitmask(k))
    out = np.zeros(size, dtype=np.uint32)
    for i in range(n):
        if i == 0:
            w = x & mk
        else:
            w = ((x >> np.uint32(i)) | ((x & np.uint32(bitmask(i))) << np.uint32(n - i))) & mk
        out |= _take(tab, w).astype(np.uint32) << np.uint32(i)
    return out


def _padded_tables(seed, k_max, n_max):
    """Seeded (raw k, raw table, n): a random table read through a window
    with dead variables at either end, so its rule has a nonzero shift."""
    rng = random.Random(seed)
    for k in range(1, k_max + 1):
        for n in range(k, n_max + 1):
            inner = rng.randint(1, k)
            lead = rng.randint(0, k - inner)
            base = rng.randrange(1, (1 << (1 << inner)) - 1)  # not constant
            raw = sum(((base >> ((v >> lead) & bitmask(inner))) & 1) << v for v in range(1 << k))
            yield k, raw, n


def _assert_induced_matches_reference(cases):
    for k, raw, n in cases:
        r = lf.rule_from_table(k, raw)
        assert np.array_equal(lf.induce(r, n).as_array(), _reference_induced(r.table, r.k, n)), (k, raw, n)
        shifted = sigma(lf.induce(r, n).as_array(), n, r.shift)
        assert np.array_equal(shifted, _reference_induced(raw, k, n)), (k, raw, n)


def test_induce_matches_reference():
    _assert_induced_matches_reference(_padded_tables(10, 12, 14))


@pytest.mark.parametrize("take_bits", [0, 3])
def test_induce_matches_reference_in_small_slices(monkeypatch, take_bits):
    monkeypatch.setattr(lifting, "_TAKE_BITS", take_bits)
    _assert_induced_matches_reference(_padded_tables(11, 6, 9 if take_bits == 0 else 12))


def test_induce_matches_reference_near_the_cap():
    rng = random.Random(12)
    for k, n in [(6, 22), (20, 20)]:
        t = rng.getrandbits(1 << k)
        assert np.array_equal(_raw_induced_array(t, k, n), _reference_induced(t, k, n)), (k, n)


def test_induce_builds_no_full_size_rotation():
    # the state array, the window array and the output are all a 2**20 map
    # needs; a rotation or gather of full size would add another 4 MiB
    r = _rule("0★------10")
    tracemalloc.start()
    try:
        lf.induce(r, 20).as_array()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20


def _refusal_peak(call, error, match):
    """The tracemalloc peak of a call that must raise ``error``."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_induced_map_past_n_cap_is_refused_before_allocating():
    # at n = 25 the map alone is 128 MiB of uint32
    fm = lf.induce(lf.rule_from_anf_text("x1 ^ x2*x3"), lifting.N_CAP + 1)
    for build in (fm.as_array, fm.is_bijective):
        assert _refusal_peak(build, CapExceededError, "n=25 above cap 24") < 1 << 20


def test_replay_witness_past_n_cap_builds_no_map():
    # single points need no table: the pair-graph witness of x1 ^ x2, repeated
    # past the cap, still collides, and a pair that does not is still refused
    w = lf.decide_proper(XOR2).witness
    reps = lifting.N_CAP // w.n + 1
    period = sum(1 << (i * w.n) for i in range(reps))  # x * period repeats x reps times
    tracemalloc.start()
    try:
        assert replay_witness(XOR2, lf.Witness(w.n * reps, w.x * period, w.y * period))
        assert not replay_witness(XOR2, lf.Witness(w.n * reps, 0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.n * reps > lifting.N_CAP and peak < 1 << 20


# ---------------------------------------------------------------------------
# composition


def test_compose_reproduces_printed_diameter5_rule():
    gf = lf.compose(_rule("1★001"), _rule("1★01"))
    ref = lf.rule_from_anf_text("x2 ^ x1*(x4*(x3^1) ^ (x4^1)*x5*(x2^x3^1))")
    assert gf.k == 5
    assert gf.same_function(ref)


def test_compose_with_identity():
    ident = lf.rule_from_table(1, [0, 1])
    assert lf.compose(ident, PATT).same_function(PATT)
    assert lf.compose(PATT, ident).same_function(PATT)


def test_compose_homomorphism_with_shift():
    rng = random.Random(99)
    pool = [PATT, _rule("1★01"), _rule("0★110"), _rule("10★10"), _rule("1★001")]
    for _ in range(200):
        g, f = rng.choice(pool), rng.choice(pool)
        c = lf.compose(g, f)
        n = rng.randint(max(c.k, g.k, f.k), 12)
        lhs = sigma(lf.induce(c, n).as_array(), n, c.shift)
        fg = sigma(lf.induce(f, n).as_array(), n, f.shift)
        gg = sigma(lf.induce(g, n).as_array(), n, g.shift)
        assert np.array_equal(lhs, gg[fg])


def test_compose_arity_cap():
    r = _rule("0★-----------10")  # diameter 15
    with pytest.raises(ArityCapError):
        lf.compose(r, r)
    # two diameter-14 rules need 27 variables: a 128 MiB raw table
    r = _rule("0★----------10")
    assert r.k == 14
    assert _refusal_peak(lambda: lf.compose(r, r), ArityCapError, "needs 27 variables, cap is 26") < 1 << 20


def test_compose_chain_matches_pairwise():
    rules = [_rule("0★10"), _rule("0★110"), _rule("01★00")]
    a = compose_chain(rules)
    b = lf.compose(lf.compose(rules[0], rules[1]), rules[2])
    assert a.same_function(b) and a.shift == b.shift


# ---------------------------------------------------------------------------
# expansion


def test_expand_patt_stride3():
    f3 = lf.expand(PATT, 3)
    assert f3.k == 10
    # f3(x) = f(x1, x4, x7, x10)
    rng = random.Random(5)
    for _ in range(100):
        v = rng.getrandbits(10)
        w = ((v >> 0) & 1) | (((v >> 3) & 1) << 1) | (((v >> 6) & 1) << 2) | (((v >> 9) & 1) << 3)
        assert f3.bit(v) == PATT.bit(w)


def test_expand_stride1_is_identity():
    assert lf.expand(PATT, 1) is PATT


def test_expand_conjugacy_coprime():
    # for gcd(n, s) = 1 the expanded map is an index-permutation conjugate:
    # bit i of the permuted state reads bit i * s^(-1) mod n of the original
    s, n = 2, 11
    f2 = lf.expand(PATT, s)
    base = lf.induce(PATT, n).as_array()
    exp = lf.induce(f2, n).as_array()
    sinv = pow(s, -1, n)
    perm = [(i * sinv) % n for i in range(n)]

    def apply_perm(x):
        y = 0
        for i in range(n):
            y |= ((x >> perm[i]) & 1) << i
        return y

    rng = random.Random(11)
    for _ in range(200):
        x = rng.getrandbits(n)
        assert apply_perm(base[x]) == exp[apply_perm(x)]


def _reference_expand(f, s):
    """f_s by an index gather: bit j*s of every spread index is variable j."""
    if s == 1:
        return f
    K = (f.k - 1) * s + 1
    idx = np.arange(1 << K, dtype=np.uint64)
    acc = np.zeros(idx.size, dtype=np.uint32)
    for j in range(f.k):
        acc |= ((idx >> np.uint64(j * s)) & np.uint64(1)).astype(np.uint32) << np.uint32(j)
    return _normalize(K, int.from_bytes(np.packbits(f.table_array()[acc], bitorder="little").tobytes(), "little"), f.shift)


def test_expand_matches_reference():
    rng = random.Random(13)
    for k in range(1, 9):
        for s in range(1, 5):
            if (k - 1) * s + 1 > 22:
                continue
            for _ in range(2):
                f = lf.rule_from_table(k, rng.randrange(1, (1 << (1 << k)) - 1))
                got, ref = lf.expand(f, s), _reference_expand(f, s)
                assert (got.k, got.table, got.shift) == (ref.k, ref.table, ref.shift), (k, s, f.table)


def test_expand_cap_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ArityCapError):
            lf.expand(PATT, 20)  # 61 variables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("text, s", [("0★-----10", 3), ("0★0010", 5)])
def test_expand_past_max_diameter_raises_before_allocating(text, s):
    # K = 25 and 26 are under the default arity cap but no Rule holds them
    f = compile_landscape(parse_landscape(text))
    assert (f.k - 1) * s + 1 in (25, 26)
    tracemalloc.start()
    try:
        with pytest.raises(ArityCapError):
            lf.expand(f, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# iterate order and the divisor implication


def test_iterate_order_examples():
    assert lf.iterate_order(PATT, 4) == 2
    assert lf.iterate_order(lf.rule_from_table(1, [0, 1]), 3) == 1
    assert lf.iterate_order(XOR2, 6) is None


def test_iterate_order_records_rotation():
    sq = lf.compose(PATT, PATT)
    assert sq.k == 1 and sq.shift == -2


def test_divisor_check():
    assert lf.divisor_check(PATT, 12, 6)
    assert lf.divisor_check(XOR2, 8, 4)  # vacuous: not a lifting at 8
    with pytest.raises(InvalidRuleError):
        lf.divisor_check(PATT, 12, 5)


def test_divisor_implication_randomized():
    rng = random.Random(20240810)
    checked = 0
    while checked < 200:
        k = rng.randint(2, 5)
        table = rng.getrandbits(1 << k)
        try:
            r = lf.rule_from_table(k, table)
        except InvalidRuleError:
            continue
        n = rng.choice([8, 12, 16])
        m = rng.choice([d for d in range(r.k, n + 1) if n % d == 0])
        assert lf.divisor_check(r, n, m)
        checked += 1


# ---------------------------------------------------------------------------
# properness


def test_decide_proper_patt():
    v = lf.decide_proper(PATT)
    assert v.proper and v.method == "pair-graph" and v.witness is None


def test_decide_proper_xor_witness():
    v = lf.decide_proper(XOR2)
    assert not v.proper
    assert replay_witness(XOR2, v.witness)
    doc = json.loads(v.to_json())
    assert doc["decision"] == "not-proper"
    assert set(doc["witness"]) == {"n", "x", "y"}


def test_finite_scan_agrees_on_conserved_k6(conserved_pool_k6):
    for _, r in conserved_pool_k6:
        assert lf.decide_proper(r).proper
    # conserved landscapes are all proper; scan mode agrees up to its limit
    sample = [r for _, r in conserved_pool_k6[:10]]
    for r in sample:
        assert lf.decide_proper(r, method="finite-scan", scan_limit=12).proper


def test_finite_scan_past_n_cap_raises_before_any_map(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the scan cap must be checked before the first induced map")

    monkeypatch.setattr(lifting, "induce", refuse)
    with pytest.raises(CapExceededError, match="n=25 above cap 24"):
        lf.decide_proper(PATT, method="finite-scan", scan_limit=25)
    monkeypatch.undo()
    assert lf.decide_proper(PATT, method="finite-scan", scan_limit=10).proper


def test_finite_scan_below_the_diameter_is_refused():
    # no length to scan: refused by the first induce, where it used to
    # return "proper" even for the non-proper 1★1
    r = _rule("1★1")
    assert r.k == 3 and not lf.decide_proper(r).proper
    for limit in (2, 0, -1):
        with pytest.raises(InvalidRuleError, match="below diameter 3"):
            lf.decide_proper(r, method="finite-scan", scan_limit=limit)
    assert not lf.decide_proper(r, method="finite-scan", scan_limit=3).proper


def test_finite_scan_agrees_on_random_non_liftings():
    rng = random.Random(77)
    disagreements = 0
    found = 0
    while found < 100:
        k = rng.randint(2, 5)
        table = rng.getrandbits(1 << k)
        try:
            r = lf.rule_from_table(k, table)
        except InvalidRuleError:
            continue
        exact = lf.decide_proper(r)
        if exact.proper:
            continue
        found += 1
        assert replay_witness(r, exact.witness)
        scan = lf.decide_proper(r, method="finite-scan", scan_limit=16)
        if scan.proper:
            disagreements += 1  # scan limit too small to catch it
        else:
            assert replay_witness(r, scan.witness)
    assert disagreements == 0


def test_composition_of_proper_is_proper(conserved_pool_k6):
    rng = random.Random(13)
    pool = [r for _, r in conserved_pool_k6]
    for _ in range(25):
        g, f = rng.choice(pool), rng.choice(pool)
        assert lf.decide_proper(lf.compose(g, f)).proper


def test_equivalence_preserves_lifting_status():
    rng = random.Random(3)
    checked = 0
    while checked < 60:
        k = rng.randint(2, 5)
        table = rng.getrandbits(1 << k)
        try:
            r = lf.rule_from_table(k, table)
        except InvalidRuleError:
            continue
        checked += 1
        for n in range(r.k, 11):
            status = lf.is_lifting(r, n)
            for m in lf.orbit(r):
                assert lf.is_lifting(m, n) == status


# ---------------------------------------------------------------------------
# the stacked pair graph against the per-rule kernel and the dense sweep
# that came before it


def _dense_sweep(tab, k, alive):
    """One dense W x W sweep with index gathers: the nodes of ``alive`` that
    keep a live successor and a live predecessor."""
    W = 1 << (k - 1)
    u = np.arange(W, dtype=np.uint32)
    outs = (tab[u], tab[u | (1 << (k - 1))])
    succs = ((u >> 1).astype(np.intp), ((u >> 1) | (1 << (k - 2))).astype(np.intp))
    pouts = (tab[(u << 1) & bitmask(k)], tab[((u << 1) | 1) & bitmask(k)])
    pws = (((u << 1) & (W - 1)).astype(np.intp), (((u << 1) | 1) & (W - 1)).astype(np.intp))
    fwd = np.zeros((W, W), dtype=bool)
    bwd = np.zeros((W, W), dtype=bool)
    for a in range(2):
        for b in range(2):
            fwd |= (outs[a][:, None] == outs[b][None, :]) & alive[np.ix_(succs[a], succs[b])]
            bwd |= (pouts[a][:, None] == pouts[b][None, :]) & alive[np.ix_(pws[a], pws[b])]
    return alive & fwd & bwd


def _dense_alive(r):
    """Reference: dense sweeps until nothing changes."""
    W = 1 << (r.k - 1)
    alive = np.ones((W, W), dtype=bool)
    while True:
        nxt = _dense_sweep(r.table_array(), r.k, alive)
        if nxt.sum() == alive.sum():
            return nxt
        alive = nxt


def _reference_alive_edges(g):
    g = g.view(np.uint8)
    return g[0, :, 0] | g[0, :, 1] << 1 | g[1, :, 0] << 2 | g[1, :, 1] << 3


def _reference_pair_graph_alive(r):
    """Reference: the per-rule kernel, sweeps on one (W, W) graph and then
    a peel on its flat indices u * W + v."""
    k = r.k
    W = 1 << (k - 1)
    H = W >> 1
    tab = r.table_array()
    succ_first, succ_second = lifting._edge_labels(tab.reshape(2, W))
    pred_first, pred_second = lifting._edge_labels(tab.reshape(W, 2).T)
    succ_first = succ_first.reshape(H, 2)[:, :, None, None]
    succ_second = succ_second.reshape(H, 2)[None, None]
    pred_first = pred_first.reshape(2, H)[:, :, None, None]
    pred_second = pred_second.reshape(2, H)[None, None]
    alive = np.ones((W, W), dtype=bool)
    nxt = np.empty_like(alive)
    succ = np.empty((W, W), dtype=np.uint8)
    pred = np.empty((W, W), dtype=np.uint8)
    succ4 = succ.reshape(H, 2, H, 2)
    pred4 = pred.reshape(2, H, 2, H)
    n_alive = W * W
    while True:
        np.bitwise_xor(succ_first, succ_second, out=succ4)
        succ4 &= _reference_alive_edges(alive.reshape(2, H, 2, H))[:, None, :, None]
        np.bitwise_xor(pred_first, pred_second, out=pred4)
        pred4 &= _reference_alive_edges(alive.reshape(H, 2, H, 2).transpose(1, 0, 3, 2))[None, :, None, :]
        np.logical_and(succ, pred, out=nxt)
        nxt &= alive
        n_next = np.count_nonzero(nxt)
        removed = n_alive - n_next
        if removed == 0:
            return nxt
        if removed * 8 < n_alive:
            break
        alive, nxt = nxt, alive
        n_alive = n_next
    _reference_peel(nxt.reshape(-1), succ.reshape(-1), pred.reshape(-1), np.flatnonzero(alive != nxt), k)
    return nxt


def _reference_peel(alive, succ, pred, dead, k):
    W = 1 << (k - 1)
    H = W >> 1
    succ_offsets = np.array([0, H, H * W, H * W + H])
    pred_offsets = np.array([0, 1, W, W + 1])
    pending = [dead]
    while pending:
        dead = pending.pop()
        u, v = dead >> (k - 1), dead & (W - 1)
        to_succ = (((u >> 1) * W + (v >> 1))[:, None] + succ_offsets).reshape(-1)
        keep_bits = (15 ^ (1 << (2 * (u & 1) + (v & 1)))).astype(np.uint8)
        np.bitwise_and.at(pred, to_succ, np.repeat(keep_bits, 4))
        to_pred = ((2 * W * (u & (H - 1)) + 2 * (v & (H - 1)))[:, None] + pred_offsets).reshape(-1)
        keep_bits = (15 ^ (1 << (2 * (u >> (k - 2)) + (v >> (k - 2))))).astype(np.uint8)
        np.bitwise_and.at(succ, to_pred, np.repeat(keep_bits, 4))
        cand = np.concatenate([to_succ[pred[to_succ] == 0], to_pred[succ[to_pred] == 0]])
        cand = np.unique(cand[alive[cand]])
        if cand.size:
            alive[cand] = False
            pending.append(cand)


def _balanced_rule(k, rng):
    table = np.zeros(1 << k, dtype=np.uint8)
    table[rng.permutation(1 << k)[: 1 << (k - 1)]] = 1
    return lf.rule_from_table(k, table)


def _random_rules(seed, ks, per_k):
    rng = np.random.default_rng(seed)
    out = []
    for k in ks:
        for i in range(per_k):
            if i % 2:
                r = _balanced_rule(k, rng)
            else:
                r = lf.rule_from_table(k, rng.integers(0, 2, 1 << k, dtype=np.uint8))
            if r.k > 1:
                out.append(r)
    return out


def _mixed_rules(seed, k, per_k):
    """Seeded rules of diameter k, shuffled: random tables, balanced and
    not (almost all of them not proper), and compiled conserved landscapes
    (all proper; there are none below k = 4)."""
    rng = np.random.default_rng(seed)
    rules = []
    while len(rules) < per_k:
        table = rng.integers(0, 2, 1 << k, dtype=np.uint8)
        if len(rules) % 2:
            table = np.isin(np.arange(1 << k), rng.permutation(1 << k)[: 1 << (k - 1)]).astype(np.uint8)
        r = lf.rule_from_table(k, table) if table.min() < table.max() else None
        if r is not None and r.k == k:
            rules.append(r)
    listing = lf.enumerate_conserved(k).landscapes if k >= 4 else []
    picks = rng.choice(len(listing), min(per_k, len(listing)), replace=False) if listing else []
    rules += [compile_landscape(listing[i]) for i in picks]
    return [rules[i] for i in rng.permutation(len(rules))]


def _table_stack(rules):
    return np.array([r.table_array() for r in rules])


def _assert_matches_reference(rules):
    """Row by row, the stacked kernel on all rules of one diameter gives the
    alive array of the per-rule kernel and of the dense sweep, and the
    stacked verdicts are the one-row verdicts: proper iff only the diagonal
    is alive, else a replaying witness walked from the first alive
    non-diagonal node in row-major order.  Returns the count not proper."""
    refs = [_dense_alive(r) for r in rules]
    for k in {r.k for r in rules}:
        rows = [i for i, r in enumerate(rules) if r.k == k]
        got = lifting._pair_graph_alive(_table_stack([rules[i] for i in rows]), k)
        assert got.dtype == bool and got.shape == (len(rows),) + refs[rows[0]].shape
        for i, alive in zip(rows, got):
            assert np.array_equal(alive, refs[i]), rules[i].text()
            assert np.array_equal(_reference_pair_graph_alive(rules[i]), refs[i]), rules[i].text()
    not_proper = 0
    for r, ref, v in zip(rules, refs, lifting._pair_graph_verdicts(rules)):
        assert v == lf.decide_proper(r), r.text()
        off = ref & ~np.eye(ref.shape[0], dtype=bool)
        assert v.proper == (not off.any()), r.text()
        if not v.proper:
            not_proper += 1
            assert lifting._first_off_diagonal(ref.copy()) == tuple(int(i) for i in np.argwhere(off)[0])
            assert v.witness == lifting._walk_witness(r, ref)
            assert replay_witness(r, v.witness)
    return not_proper


def test_pair_graph_matches_dense_sweep_on_random_rules():
    rules = _random_rules(20240811, range(2, 11), 12)
    assert _assert_matches_reference(rules) > len(rules) // 2


@pytest.mark.parametrize("k", range(2, 10))
def test_stacked_pair_graph_matches_per_rule_on_mixed_stacks(k):
    rules = _mixed_rules(2100 + k, k, 12)
    assert {r.k for r in rules} == {k}
    not_proper = _assert_matches_reference(rules)
    assert 0 < not_proper and (k < 4 or not_proper < len(rules))


def test_pair_graph_matches_dense_sweep_on_catalog(catalog_entries):
    rules = [e.rule() for e in catalog_entries]
    assert len(rules) == 120
    assert _assert_matches_reference(rules) == 0


def test_pair_graph_matches_dense_sweep_on_conserved_k9_sample():
    listing = lf.enumerate_conserved(9).landscapes
    sample = random.Random(9).sample(listing, 40)
    assert _assert_matches_reference([compile_landscape(l) for l in sample]) == 0


@pytest.mark.long
def test_pair_graph_matches_dense_sweep_on_conserved_k9():
    listing = lf.enumerate_conserved(9).landscapes
    assert len(listing) == 4376
    assert _assert_matches_reference([compile_landscape(l) for l in listing]) == 0


@pytest.mark.long
def test_pair_graph_matches_dense_sweep_at_k12():
    rules = [_rule("100000★00001"), _balanced_rule(12, np.random.default_rng(2024))]
    assert _assert_matches_reference(rules) == 1


def test_stacked_verdicts_follow_the_order_of_the_rules():
    rules = [r for k in range(2, 9) for r in _mixed_rules(2200 + k, k, 6)] + [lf.rule_from_table(1, [1, 0])]
    verdicts = lifting._pair_graph_verdicts(rules)
    assert verdicts == [lf.decide_proper(r) for r in rules]
    perm = np.random.default_rng(2201).permutation(len(rules))
    assert lifting._pair_graph_verdicts([rules[i] for i in perm]) == [verdicts[i] for i in perm]
    assert lifting._pair_graph_verdicts([]) == []


@pytest.mark.parametrize("share, chunk", [(1, 5), (1 << 40, 1 << 16)])
def test_pair_graph_sweep_and_peel_branches(monkeypatch, share, chunk):
    # share 1 hands over to the peel after the first sweep that removes
    # anything, in chunks of 5 nodes; a huge share never hands over.  Each
    # diameter is one stack, so a peel's nodes lie in several rows.
    peeled_rows = []
    peel = lifting._peel

    def spy(alive, succ, pred, dead, k):
        peeled_rows.append(len(np.unique(dead >> (2 * k - 2))))
        return peel(alive, succ, pred, dead, k)

    monkeypatch.setattr(lifting, "_PEEL_SHARE", share)
    monkeypatch.setattr(lifting, "_PEEL_CHUNK", chunk)
    monkeypatch.setattr(lifting, "_peel", spy)
    rules = _random_rules(7, (3, 5, 6, 7), 6) + [_rule("1★01"), _rule("0★110")]
    _assert_matches_reference(rules)
    assert bool(peeled_rows) == (share == 1)
    assert all(n > 0 for n in peeled_rows)
    assert share != 1 or max(peeled_rows) > 1


def _lockstep_dead(tables, k):
    """The nodes the stacked kernel hands to the peel, from lockstep dense
    sweeps over all rows: those removed by the first sweep that removes
    some but less than 1/8 of the stack's alive nodes (None if none does)."""
    W = 1 << (k - 1)
    alive = np.ones((len(tables), W, W), dtype=bool)
    while True:
        nxt = np.array([_dense_sweep(t, k, a) for t, a in zip(tables, alive)])
        removed = alive.sum() - nxt.sum()
        if removed == 0:
            return None
        if removed * 8 < alive.sum():
            return np.flatnonzero(alive & ~nxt)
        alive = nxt


def test_peel_hand_over_is_decided_by_the_whole_stack(monkeypatch):
    # a constant table loses no node in any sweep, so a stack that starts
    # with one must not stop sweeping, nor hand over, when its first row does
    k = 7
    rng = np.random.default_rng(2301)
    rules = [_balanced_rule(k, rng) for _ in range(5)] + [_rule("0★0-110")]  # the last is proper
    assert {r.k for r in rules} == {k}
    tables = np.concatenate([np.zeros((1, 1 << k), dtype=np.uint8), _table_stack(rules)])
    peeled = []
    peel = lifting._peel

    def spy(alive, succ, pred, dead, k):
        peeled.append(dead.copy())
        return peel(alive, succ, pred, dead, k)

    monkeypatch.setattr(lifting, "_peel", spy)
    for order in (np.arange(len(tables)), np.roll(np.arange(len(tables)), -1), rng.permutation(len(tables))):
        peeled.clear()
        stack = tables[order]
        got = lifting._pair_graph_alive(stack, k)
        want = _lockstep_dead(stack, k)
        assert want is not None and len(peeled) == 1 and np.array_equal(peeled[0], want)
        assert got[order == 0].all()  # the constant table keeps every node
        for i, alive in zip(order, got):
            if i:
                assert np.array_equal(alive, _dense_alive(rules[i - 1]))


def test_stacks_go_by_diameter_in_chunks(monkeypatch, catalog_entries):
    six = [e.rule() for e in catalog_entries]
    wide = [_balanced_rule(11, np.random.default_rng(s)) for s in (1, 2)]
    rules = six[:60] + wide[:1] + [_rule("1★01"), _rule("1★1")] + six[60:] + wide[1:]
    shapes = []
    kernel = lifting._pair_graph_alive

    def spy(tables, k):
        shapes.append(tables.shape)
        return kernel(tables, k)

    monkeypatch.setattr(lifting, "_pair_graph_alive", spy)
    verdicts = lifting._pair_graph_verdicts(rules)
    # the whole catalog is one stack; k = 11 holds one row per stack
    assert sorted(shapes) == [(1, 8), (1, 16), (1, 2048), (1, 2048), (120, 64)]
    assert verdicts == [lf.decide_proper(r) for r in rules]
    shapes.clear()
    monkeypatch.setattr(lifting, "_STACK_NODES", 7 * 32 * 32)
    assert lifting._pair_graph_verdicts(six) == verdicts[:60] + verdicts[63:-1]
    assert [s[0] for s in shapes] == [7] * 17 + [1]


def test_stacked_cap_raises_before_any_sweep(monkeypatch, catalog_entries):
    rules = [e.rule() for e in catalog_entries[:8]] + [_rule(K16)] + [e.rule() for e in catalog_entries[8:16]]

    def refuse(*args):
        raise AssertionError("the cap must be checked before the first sweep")

    monkeypatch.setattr(lifting, "_pair_graph_alive", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="diameter 16"):
            lifting._pair_graph_verdicts(rules)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _verdicts_peak(rules):
    tracemalloc.start()
    try:
        verdicts = lifting._pair_graph_verdicts(rules)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return verdicts, peak


def test_stack_of_wide_rules_peaks_at_one_graph():
    # k = 11 graphs have 2**20 nodes each, past the stack bound: the stack
    # goes one row at a time and frees each graph before the next, so three
    # rules take the memory of the largest one, with less slack than one
    # graph's 1 MiB alive array
    rules = [_balanced_rule(11, np.random.default_rng(s)) for s in (3, 4, 5)]
    singles = [_verdicts_peak([r]) for r in rules]
    three, peak_three = _verdicts_peak(rules)
    assert three == [v for (v,), _ in singles] == [lf.decide_proper(r) for r in rules]
    assert peak_three < max(peak for _, peak in singles) + (1 << 19)


def test_pair_graph_estimate_covers_a_k11_peak():
    # below k = 13 the peel's index arrays for one chunk of removed nodes
    # are a large share of the peak: 5 bytes per node alone fall short
    for s in (3, 4, 5):
        _, peak = _verdicts_peak([_balanced_rule(11, np.random.default_rng(s))])
        assert lifting._PAIR_GRAPH_BYTES_PER_NODE << 20 < peak <= lifting._pair_graph_bytes(11), (s, peak)


def test_decide_proper_k12_landscape():
    v = lf.decide_proper(_rule("100000★00001"))
    assert v.proper and v.method == "pair-graph" and v.witness is None


def test_decide_proper_k12_balanced_rule():
    r = _balanced_rule(12, np.random.default_rng(2024))
    assert r.k == 12
    v = lf.decide_proper(r)
    assert not v.proper and replay_witness(r, v.witness)
    # the verdict the dense-sweep implementation gave for this rule
    digest = "8b32020fd1e55d0c95c61c6ce5507cfd5e408365bc0d459cb020c1ad57e507dd"
    assert hashlib.sha256(v.to_json().encode()).hexdigest() == digest


K16 = "1000000★00000001"


def test_pair_graph_cap_raises_before_allocating():
    r = _rule(K16)
    assert r.k == 16
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="diameter 16"):
            lf.decide_proper(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert lf.decide_proper(r, method="finite-scan", scan_limit=16).proper


def test_verify_above_the_pair_graph_cap_is_a_usage_error(capsys):
    assert cli.main(["verify", K16]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "cap is" in captured.err
