import hashlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

import liftforge as lf
from liftforge import landscape
from liftforge.landscape import (
    InvalidLandscapeError,
    Landscape,
    LandscapeSet,
    canonical_symbols,
    compile_landscape,
    compile_set,
    complement_landscape,
    conserved_class_representatives,
    enumerate_conserved,
    is_conserved,
    landscape_orbit,
    parse_landscape,
    reverse_landscape,
)
from liftforge.corefn import _normalize, array_to_table, bitmask, essential_vars
from liftforge.lifting import CapExceededError, compose_chain


def test_parse_examples():
    l = parse_landscape("0★10")
    assert (l.k, l.s) == (4, 2)
    assert l.offsets() == {-1: 0, 1: 1, 2: 0}
    l2 = parse_landscape("0-★100")
    assert (l2.k, l2.s) == (6, 3)
    # ASCII star accepted
    assert parse_landscape("0*10") == l


@pytest.mark.parametrize(
    "bad",
    ["★01", "01★", "0★1★0", "010", "", "0-★", "-0★1", "0★x1", "0★1-"],
)
def test_parse_rejects(bad):
    with pytest.raises(InvalidLandscapeError):
        parse_landscape(bad)


def test_compile_known_rules():
    cases = {
        "1★01": "x2 ^ x1*(x3^1)*x4",
        "0★10": "x2 ^ (x1^1)*x3*(x4^1)",
        "10★10": "x3 ^ x1*(x2^1)*x4*(x5^1)",
        "11★01": "x3 ^ x1*x2*(x4^1)*x5",
    }
    for text, anf in cases.items():
        assert compile_landscape(parse_landscape(text)).same_function(lf.rule_from_anf_text(anf))


def test_is_conserved_examples():
    assert is_conserved(parse_landscape("0★10"))
    assert is_conserved(parse_landscape("1★01"))
    assert not is_conserved(parse_landscape("0★11"))


def test_check_shift_product_examples():
    r = lf.rule_from_anf_text("x2 ^ x1*(x3^1)*x4")
    assert lf.check_shift_product(r) == 2
    assert lf.check_shift_product(lf.rule_from_anf_text("x1 ^ x2")) is None


def test_check_shift_product_on_conserved_pool(conserved_pool_k6):
    for _, r in conserved_pool_k6:
        assert lf.check_shift_product(r) is not None


def _reference_shift_product(r):
    """check_shift_product with one span index array pair per shift t."""
    k = r.k
    arr = r.table_array()
    idx_k = np.arange(1 << k, dtype=np.uint32)
    for j in range(1, k + 1):
        g = arr ^ ((idx_k >> np.uint32(j - 1)) & 1).astype(np.uint8)
        g_t = array_to_table(g)
        if g_t == 0:
            return j
        ess = essential_vars(g_t, k)
        if (ess >> (j - 1)) & 1:
            continue
        ok = True
        for d in range(k):
            if not (ess >> d) & 1:
                continue
            t = (d + 1) - j
            idx = np.arange(1 << (k + abs(t)), dtype=np.uint32)
            lo = idx & np.uint32(bitmask(k))
            hi = (idx >> np.uint32(abs(t))) & np.uint32(bitmask(k))
            w1, w2 = (lo, hi) if t > 0 else (hi, lo)
            if np.any(g[w1] & g[w2]):
                ok = False
                break
        if ok:
            return j
    return None


def test_check_shift_product_matches_reference(conserved_pool_k6):
    rules = [r for _, r in conserved_pool_k6]
    rules += [compile_landscape(l) for l in enumerate_conserved(7).landscapes]
    rng = random.Random(14)
    for _ in range(200):  # random rules, mostly refuted
        k = rng.randint(2, 8)
        rules.append(lf.rule_from_table(k, rng.randrange(1, (1 << (1 << k)) - 1)))
    for _ in range(200):  # x_j plus a random term in the other variables
        k = rng.randint(2, 8)
        j = rng.randint(1, k)
        h = rng.getrandbits(1 << (k - 1)) & rng.getrandbits(1 << (k - 1)) & rng.getrandbits(1 << (k - 1))
        table = 0
        for v in range(1 << k):
            rest = (v & bitmask(j - 1)) | ((v >> j) << (j - 1))
            table |= (((v >> (j - 1)) & 1) ^ ((h >> rest) & 1)) << v
        rules.append(lf.rule_from_table(k, table))
    verdicts = [lf.check_shift_product(r) for r in rules]
    assert verdicts == [_reference_shift_product(r) for r in rules]
    assert verdicts.count(None) > 100 and len(set(verdicts)) > 4


def test_shift_product_success_implies_involution(conserved_pool_k6):
    for _, r in conserved_pool_k6:
        assert lf.iterate_order(r, 2) == 2 or r.k == 1


def test_compile_set_daemen_identities():
    s1 = compile_set([parse_landscape("0★110"), parse_landscape("10★10")])
    c1 = lf.compose(
        compile_landscape(parse_landscape("0★110")),
        compile_landscape(parse_landscape("10★10")),
    )
    assert s1.same_function(c1)

    members = [parse_landscape(t) for t in ("0★10", "0--★10", "0----★10")]
    s2 = compile_set(members)
    c2 = compose_chain(
        [compile_landscape(parse_landscape(t)) for t in ("0-1-1★10", "0-1★10", "0★10")]
    )
    assert s2.same_function(c2)


def test_compile_set_singleton_and_empty():
    l = parse_landscape("0★110")
    assert compile_set([l]).same_function(compile_landscape(l))
    with pytest.raises(InvalidLandscapeError):
        compile_set([])
    with pytest.raises(InvalidLandscapeError):
        LandscapeSet(())


def test_string_ops_commute_with_rule_ops(conserved_pool_k6):
    rng = random.Random(42)
    pool = rng.sample(conserved_pool_k6, 40)
    for l, r in pool:
        assert compile_landscape(reverse_landscape(l)).same_function(lf.reverse(r))
        assert compile_landscape(complement_landscape(l)).same_function(lf.complement(r))


def test_conserved_implies_involution_k_le_8():
    for k in (4, 5, 6, 7, 8):
        res = enumerate_conserved(k, include_list=True)
        for l in res.landscapes:
            r = compile_landscape(l)
            assert lf.iterate_order(r, 2) == 2


def test_enumeration_counts_small():
    assert (enumerate_conserved(4).count, enumerate_conserved(4).class_count) == (4, 1)
    res6 = enumerate_conserved(6)
    assert (res6.count, res6.class_count) == (72, 18)
    for k, want in ((5, (14, 4)), (7, (288, 73)), (8, (1160, 290))):
        res = enumerate_conserved(k)
        assert (res.count, res.class_count) == want


def test_enumeration_listing_matches_every_candidate():
    # every string with 0/1 ends, one interior star and 0/1/- elsewhere,
    # filtered by the pairing criterion
    for k in (4, 5, 6, 7, 8):
        want = set()
        for q in range(1, k - 1):
            for fill in itertools.product("01-", repeat=k - 3):
                for a, b in itertools.product("01", repeat=2):
                    mid = "".join(fill)
                    text = a + mid[: q - 1] + "★" + mid[q - 1 :] + b
                    if is_conserved(parse_landscape(text)):
                        want.add(text)
        listing = enumerate_conserved(k).landscapes
        assert {l.symbols for l in listing} == want and len(listing) == len(want)
        assert all(l == parse_landscape(l.symbols) for l in listing)
        stars = [l.s for l in listing]
        assert stars == sorted(stars)


def test_enumeration_listing_order_k9():
    # the listing order of the per-landscape decoder, star by star in
    # candidate-index order
    listing = enumerate_conserved(9).landscapes
    digest = hashlib.sha256("\n".join(l.symbols for l in listing).encode()).hexdigest()
    assert digest == "93e7bdd3c86d86b33354af63b60af7ac71b46090bbf51a96c88235b314b4bead"


def test_diameter4_landscapes_form_one_class():
    ids = {lf.canonicalize(compile_landscape(parse_landscape(t))) for t in ("0★10", "1★01", "01★0", "10★1")}
    assert len(ids) == 1


def test_enumeration_count_matches_orbit_partition():
    for k in (4, 5, 6, 7):
        res = enumerate_conserved(k, include_list=True)
        reps = {}
        for l in res.landscapes:
            reps.setdefault(canonical_symbols(l), set()).add(l.symbols)
        assert len(reps) == res.class_count
        assert sum(len(v) for v in reps.values()) == res.count
        # orbit sizes divide 4
        assert all(len(v) in (1, 2, 4) for v in reps.values())


def test_burnside_matches_rule_level_canonicalization():
    for k in (4, 5, 6, 7):
        res = enumerate_conserved(k, include_list=True)
        ids = {lf.canonicalize(compile_landscape(l)) for l in res.landscapes}
        assert len(ids) == res.class_count


def test_compile_injective_per_diameter():
    for k in (4, 5, 6, 7):
        res = enumerate_conserved(k, include_list=True)
        tables = {compile_landscape(l).table for l in res.landscapes}
        assert len(tables) == res.count


def test_fixed_point_counts_vanish_for_even_k():
    # no star sits at the centre, so neither reversal fixes a landscape
    for k in (6, 8):
        assert {landscape._conserved_counts_for_star(k, q, False)[1] for q in range(1, k - 1)} == {(0, 0)}


def test_class_representatives():
    reps = conserved_class_representatives(5)
    assert len(reps) == 4
    assert all(is_conserved(l) for l in reps)


def test_enumeration_json():
    doc = enumerate_conserved(5, include_list=False).to_json()
    assert json.loads(json.dumps(doc)) == {"k": 5, "count": 14, "classes": 4}


def test_landscape_orbit_members_valid():
    l = parse_landscape("0-★100")
    for m in landscape_orbit(l):
        assert isinstance(m, Landscape)
        assert m.k == l.k


def test_listing_cap_raises_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("the listing cap must be checked before any enumeration work")

    monkeypatch.setattr(landscape, "_conserved_counts_for_star", refuse)
    for k in (16, 17, 18):
        with pytest.raises(landscape.ListingCapError):
            enumerate_conserved(k, include_list=True)
    assert issubclass(landscape.ListingCapError, CapExceededError)


def test_enumeration_past_its_caps_is_refused_in_bounded_memory():
    enumerate_conserved(4, include_list=False)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="4 <= k <= 18") as count_cap:
            enumerate_conserved(19, include_list=False)
        with pytest.raises(landscape.ListingCapError, match="k <= 15"):
            enumerate_conserved(16, include_list=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert type(count_cap.value) is CapExceededError
    # below the range is a malformed length, not a size cap
    with pytest.raises(lf.LiftforgeError, match="4 <= k <= 18") as too_short:
        enumerate_conserved(3, include_list=False)
    assert not isinstance(too_short.value, CapExceededError)


def test_counting_is_not_capped_by_the_listing_cap(monkeypatch):
    # counts stay allowed up to k=18; the star scans are stubbed out, since
    # a real k=18 count takes about 30 s
    monkeypatch.setattr(landscape, "_conserved_counts_for_star", lambda k, q, collect: (0, (0, 0), []))
    for k in (16, 18):
        assert enumerate_conserved(k, include_list=False).count == 0


# ---------------------------------------------------------------------------
# the cube builder against the bit-plane compiler it replaced


def _reference_compile_set(members):
    """compile_set with one index bit-plane per defined variable."""
    dmin = min(1 - l.s for l in members)
    K = max(l.k - l.s for l in members) - dmin + 1
    s = 1 - dmin
    idx = np.arange(1 << K, dtype=np.uint32)
    flip = np.zeros(idx.size, dtype=bool)
    for l in members:
        match = np.ones(idx.size, dtype=bool)
        for d, e in l.offsets().items():
            match &= ((idx >> np.uint32(s + d - 1)) & 1) == e
        flip |= match
    center = ((idx >> np.uint32(s - 1)) & 1).astype(np.uint8)
    return _normalize(K, array_to_table(center ^ flip.astype(np.uint8)))


def _key(r):
    return r.k, r.table, r.shift


def test_compile_landscape_matches_bit_planes():
    for k in range(4, 9):
        for l in enumerate_conserved(k).landscapes:
            assert _key(compile_landscape(l)) == _key(_reference_compile_set([l])), l.symbols


def test_compile_set_matches_bit_planes():
    pool = enumerate_conserved(6).landscapes
    rng = random.Random(15)
    for _ in range(300):
        members = rng.sample(pool, rng.randint(1, 4))
        got, ref = compile_set(members), _reference_compile_set(members)
        assert _key(got) == _key(ref), [l.symbols for l in members]


# ---------------------------------------------------------------------------
# the candidate kernel against the per-digit decoder and the string-level
# fixed points it replaced


def _ref_counts_for_star(k, q):
    """Count and collect the conserved landscapes with 0-based star q,
    decoding each candidate index digit by digit: 2 end bits, then one
    base-3 digit per interior non-star position."""
    interior = [p for p in range(1, k - 1) if p != q]
    total = 4 * 3 ** len(interior)
    idx = np.arange(total, dtype=np.int64)
    D = np.full(total, 1 | (1 << (k - 1)), dtype=np.int64)
    O = (idx & 1) | (((idx >> 1) & 1) << (k - 1))
    rest = idx >> 2
    p3 = 1
    for p in interior:
        digit = (rest // p3) % 3
        p3 *= 3
        D |= (digit < 2).astype(np.int64) << p
        O |= (digit == 1).astype(np.int64) << p
    Z = D & ~O
    bad = np.zeros(total, dtype=bool)
    for t in [p - q for p in range(k) if p != q]:
        req = ((D >> (q + t)) & 1) == 1
        if t >= 0:
            found = (Z & (O >> t)) | (O & (Z >> t))
        else:
            found = (Z & (O << -t)) | (O & (Z << -t))
        bad |= req & (found == 0)
    good = ~bad
    return int(good.sum()), np.stack([D[good], O[good]], axis=1)


def _ref_fixed_point_count(k, transform):
    """Conserved landscapes fixed by string reversal ('rev') or by
    reversal-plus-complement ('rc'), built symbol by symbol from the half
    right of the centre star."""
    if k % 2 == 0:
        return 0
    q = (k - 1) // 2
    half = list(range(q + 1, k - 1))  # the mirror determines p < q
    count = 0
    for last in "01":
        for fill in itertools.product("01-", repeat=len(half)):
            chars = [None] * k
            chars[q] = "★"
            chars[k - 1] = last
            for p, ch in zip(half, fill):
                chars[p] = ch
            for p in range(q):
                src = chars[k - 1 - p]
                chars[p] = src if transform == "rev" else {"0": "1", "1": "0", "-": "-"}[src]
            if chars[0] in "01" and is_conserved(Landscape("".join(chars), q + 1)):
                count += 1
    return count


def test_star_kernel_matches_digit_decoder():
    for k in range(4, 13):
        for q in range(1, k - 1):
            count, _, blocks = landscape._conserved_counts_for_star(k, q, True)
            want, survivors = _ref_counts_for_star(k, q)
            assert count == want, (k, q)
            assert np.array_equal(np.concatenate(blocks), survivors), (k, q)


def _kernel_fixed_points(k):
    per_star = [landscape._conserved_counts_for_star(k, q, False)[1] for q in range(1, k - 1)]
    return tuple(int(sum(f)) for f in zip(*per_star))


def test_fixed_points_match_string_reference():
    for k in range(4, 14):
        assert _kernel_fixed_points(k) == (_ref_fixed_point_count(k, "rev"), _ref_fixed_point_count(k, "rc")), k
    assert _kernel_fixed_points(11) == (24, 34)
    assert _kernel_fixed_points(13) == (90, 168)


def test_enumeration_counts_k13_in_bounded_memory():
    enumerate_conserved(4, include_list=False)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        res = enumerate_conserved(13, include_list=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.count, res.class_count, res.landscapes) == (775_930, 194_047, None)
    assert peak < 4 << 20


@pytest.mark.long
@pytest.mark.parametrize(
    "k, want", [(14, (2_724_072, 681_018)), (15, (9_394_778, 2_348_878)), (16, (32_291_160, 8_072_790))]
)
def test_enumeration_counts_past_k13(k, want):
    res = enumerate_conserved(k, include_list=False)
    assert (res.count, res.class_count) == want
