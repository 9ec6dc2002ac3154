import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest

import liftforge as lf
from liftforge import search6
from liftforge.landscape import compile_landscape, parse_landscape
from liftforge.search6 import (
    NecklaceClass,
    _class_map_options,
    _extend_all,
    count_period_mappings,
    count_primitive_sequences,
    enumerate_periodic_assignments,
    involution_rule_check,
    primitive_necklace_classes,
    short_period_words,
)


def test_primitive_sequence_counts():
    assert [count_primitive_sequences(p) for p in (1, 2, 3, 4, 5, 6)] == [2, 2, 6, 12, 30, 54]


def test_necklace_class_counts_match_bp():
    for p in range(1, 7):
        classes = primitive_necklace_classes(p)
        assert len(classes) * p == count_primitive_sequences(p)


def test_necklace_members():
    c = NecklaceClass(3, 0b001)
    assert sorted(c.members) == [0b001, 0b010, 0b100]


def _reference_primitive_classes(p):
    """(representative, members) of each necklace of primitive period p, by
    one scan of all 2^p words: the c-th member is the word rotated right by c."""
    mask = (1 << p) - 1
    out = []
    for v in range(1 << p):
        rots = tuple(((v >> c) | (v << (p - c))) & mask for c in range(p))
        if len(set(rots)) == p and min(rots) == v:
            out.append((v, rots))
    return out


def test_primitive_necklace_classes_match_the_word_scan():
    for p in range(1, 11):
        classes = primitive_necklace_classes(p)
        assert all(c.p == p for c in classes)
        assert [(c.representative, c.members) for c in classes] == _reference_primitive_classes(p), p


def test_period_mapping_counts():
    assert [count_period_mappings(p) for p in (1, 2, 3, 4, 5)] == [2, 2, 4, 32, 3076]


def test_class_map_options_match_formula():
    for p in range(1, 6):
        assert len(_class_map_options(p, False)) == count_period_mappings(p)
    assert len(_class_map_options(1, True)) == 1


def test_mapping_count_brute_force_small_p():
    # independent oracle: enumerate involutions of the full sequence space
    # that commute with rotation and preserve primitive period, for p <= 4
    for p in (1, 2, 3, 4):
        classes = primitive_necklace_classes(p)
        seqs = sorted({m for c in classes for m in c.members})
        idx = {v: i for i, v in enumerate(seqs)}
        mask = (1 << p) - 1

        def rot(v, c):
            return ((v << c) | (v >> (p - c))) & mask

        count = 0
        # a shift-commuting map is fixed by the images of class representatives
        for images in itertools.product(seqs, repeat=len(classes)):
            maps = {}
            ok = True
            for cls, img in zip(classes, images):
                for c in range(p):
                    src = rot(cls.representative, c)
                    tgt = rot(img, c)
                    if src in maps and maps[src] != tgt:
                        ok = False
                        break
                    maps[src] = tgt
                if not ok:
                    break
            if not ok:
                continue
            if all(maps[maps[v]] == v for v in seqs):
                count += 1
        assert count == count_period_mappings(p)


def test_short_period_words_count():
    assert short_period_words().bit_count() == 44


def test_assignment_scan_counts():
    scan2 = enumerate_periodic_assignments(2)
    assert scan2.scanned == 787_456
    assert len(scan2.survivors) == 4296
    assert scan2.fixed_window_count == 44
    scan3 = enumerate_periodic_assignments(3)
    assert scan3.scanned == 787_456
    assert len(scan3.survivors) == 4564
    assert set(scan3.def_masks.tolist()) == {short_period_words()}


# ---------------------------------------------------------------------------
# the nested-loop scan over class maps built one at a time, kept as the
# reference for enumerate_periodic_assignments


@functools.lru_cache(maxsize=16)
def _ref_class_map_options(p, fix_all_zero):
    """Involutive class maps for period p as sorted tuples of (src, dst,
    rotation), the first pair's rotation and the first fixed class's flip
    varying slowest."""
    r = len(primitive_necklace_classes(p))
    flips = (0,) if p % 2 else (0, p // 2)
    options = []
    for pairs in search6._matchings(list(range(r))):
        paired = {i for pair in pairs for i in pair}
        fixed = [i for i in range(r) if i not in paired]
        for choice in itertools.product(*[range(p)] * len(pairs), *[flips] * len(fixed)):
            entry = [(a, b, c) for (a, b), c in zip(pairs, choice)]
            entry += [(b, a, -c % p) for (a, b), c in zip(pairs, choice)]
            entry += [(i, i, d) for i, d in zip(fixed, choice[len(pairs) :])]
            options.append(tuple(sorted(entry)))
    if p == 1 and fix_all_zero:
        options = [o for o in options if all(a == b for a, b, _ in o)]
    return tuple(options)


@functools.lru_cache(maxsize=None)
def _ref_triple_masks(p, src, dst, c, s):
    """(defined, ones) masks over the windows pinned by mapping class src to
    class dst with rotation c, one window a = bits a..a+5 of src at a time."""
    classes = primitive_necklace_classes(p)
    pat, tgt = classes[src].representative, classes[dst].representative
    def_mask = ones = 0
    for a in range(p):
        w = sum(((pat >> ((a + u) % p)) & 1) << u for u in range(6))
        val = (tgt >> ((a + s - 1 - c) % p)) & 1
        assert not (def_mask >> w) & 1
        def_mask |= 1 << w
        ones |= val << w
    return def_mask, ones


def _ref_forced_masks(p, option, s):
    def_mask = ones = 0
    for src, dst, c in option:
        d, o = _ref_triple_masks(p, src, dst, c, s)
        assert not (def_mask & d) & (ones ^ o)
        def_mask |= d
        ones |= o
    return def_mask, ones


def _ref_scan(s, include_complemented=False):
    """(scanned, survivors as (defined, ones) pairs, fixed windows,
    collision counts), one prefix of p1..p4 maps at a time."""
    per_p = []
    for p in range(1, 6):
        opts = _ref_class_map_options(p, p == 1 and not include_complemented)
        per_p.append([_ref_forced_masks(p, o, s) for o in opts])
    p5 = per_p[4]
    scanned = 0
    survivors = []
    collisions = {"prefix": 0, "p5": 0}
    for d1, v1 in per_p[0]:
        for d2, v2 in per_p[1]:
            for d3, v3 in per_p[2]:
                if (d2 & d3) & (v2 ^ v3):
                    scanned += len(per_p[3]) * len(p5)
                    collisions["prefix"] += len(per_p[3]) * len(p5)
                    continue
                for d4, v4 in per_p[3]:
                    scanned += len(p5)
                    if ((d1 | d2 | d3) & d4) & ((v1 | v2 | v3) ^ v4):
                        collisions["prefix"] += len(p5)
                        continue
                    pre_d, pre_v = d1 | d2 | d3 | d4, v1 | v2 | v3 | v4
                    for d5, v5 in p5:
                        if (pre_d & d5) & (pre_v ^ v5):
                            collisions["p5"] += 1
                        else:
                            survivors.append((pre_d | d5, pre_v | v5))
    fixed = survivors[0][0].bit_count() if survivors else 0
    return scanned, survivors, fixed, collisions


def test_class_map_options_match_reference():
    for p in range(1, 6):
        for fix in (False, True):
            got = [tuple((a, int(b), int(c)) for a, (b, c) in enumerate(row)) for row in _class_map_options(p, fix)]
            assert got == list(_ref_class_map_options(p, fix))


def test_period_masks_match_reference():
    for p in range(1, 6):
        for s in (2, 3):
            for fix in (False, True):
                d, o = search6._period_masks(p, s, fix)
                assert d.dtype == o.dtype == np.uint64
                want = [_ref_forced_masks(p, option, s) for option in _ref_class_map_options(p, fix)]
                assert [(int(d), v) for v in o.tolist()] == want, (p, s, fix)


def test_period_masks_refuse_a_non_primitive_class(monkeypatch):
    # 0101 has period 2: its windows at phases 0 and 2 coincide
    classes = primitive_necklace_classes(4)
    patched = (*classes[:-1], NecklaceClass(4, 0b0101))
    monkeypatch.setattr(search6, "primitive_necklace_classes", lambda p: patched)
    with pytest.raises(lf.LiftforgeError, match="self-conflicting class map"):
        search6._period_masks(4, 2, False)


@pytest.mark.parametrize(
    "s, complemented, p5_collisions",
    [(2, False, 783_160), (3, False, 782_892), (2, True, 1_566_320)],
)
def test_assignment_scan_matches_reference(s, complemented, p5_collisions):
    scan = enumerate_periodic_assignments(s, complemented)
    scanned, survivors, fixed, collisions = _ref_scan(s, complemented)
    assert collisions == {"prefix": 0, "p5": p5_collisions}
    assert list(zip(scan.def_masks.tolist(), scan.ones_masks.tolist())) == survivors
    assert (scan.scanned, scan.fixed_window_count, scan.collision_counts) == (scanned, fixed, collisions)
    assert scan.survivors.tolist() == [list(a) for a in survivors]
    assert scanned == len(survivors) + p5_collisions == (1_574_912 if complemented else 787_456)
    if complemented:
        assert len(survivors) == 8592


def test_assignment_scan_allocation_bound():
    enumerate_periodic_assignments(3)  # the cached class maps are not counted
    tracemalloc.start()
    try:
        scan = enumerate_periodic_assignments(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scan.def_masks) == 4564
    assert peak < 1.5 * (1 << 20)


def test_assignment_scan_rejects_bad_offset():
    with pytest.raises(lf.LiftforgeError):
        enumerate_periodic_assignments(4)


def test_involution_rule_check_examples(search6_pooled):
    inv = search6_pooled.by_offset[2].involutions[0]
    assert involution_rule_check(inv.rule, 2)
    # embedded smaller-diameter rule: not a diameter-6 rule at all
    patt = compile_landscape(parse_landscape("0★10"))
    assert not involution_rule_check(patt, 2)
    # a balanced rule that is no involution
    r = lf.rule_from_table(6, 0x00000000FFFFFFFF)
    assert not involution_rule_check(r, 2)
    assert not involution_rule_check(r, 3)


def test_search_counts(search6_pooled):
    res2 = search6_pooled.by_offset[2]
    res3 = search6_pooled.by_offset[3]
    assert len(res2.involutions) == 20 and len(res2.class_ids) == 10
    assert len(res3.involutions) == 56 and len(res3.class_ids) == 30
    assert search6_pooled.function_count == 152
    assert search6_pooled.class_count == 40


def test_offsets_4_5_are_reversals(search6_pooled):
    rev3 = {lf.reverse(i.rule).table for i in search6_pooled.by_offset[3].involutions}
    s4 = {i.rule.table for i in search6_pooled.by_offset[4].involutions}
    assert rev3 == s4
    rev2 = {lf.reverse(i.rule).table for i in search6_pooled.by_offset[2].involutions}
    s5 = {i.rule.table for i in search6_pooled.by_offset[5].involutions}
    assert rev2 == s5


def test_offsets_4_5_carry_their_source_counters(search6_pooled):
    for s_src, s_dst in ((3, 4), (2, 5)):
        src, dst = search6_pooled.by_offset[s_src], search6_pooled.by_offset[s_dst]
        assert isinstance(dst, search6.SearchResult) and dst.s == s_dst
        assert {i.s for i in dst.involutions} == {s_dst}
        fields = ("completions", "scanned", "scan_survivors", "searched")
        assert [getattr(dst, f) for f in fields] == [getattr(src, f) for f in fields]


def test_results_have_no_constant_term(search6_pooled):
    for s in (2, 3):
        for inv in search6_pooled.by_offset[s].involutions:
            assert inv.rule.bit(0) == 0
            assert inv.rule.bit(63) == 1


def test_results_are_proper_liftings(search6_pooled):
    rng = random.Random(6)
    sample = rng.sample(list(search6_pooled.by_offset[3].involutions), 8)
    sample += list(search6_pooled.by_offset[2].involutions)[:4]
    for inv in sample:
        assert lf.decide_proper(inv.rule).proper
        for n in range(6, 15):
            assert lf.is_lifting(inv.rule, n)


@pytest.mark.long
def test_results_all_proper_all_lengths(search6_pooled):
    for s in (2, 3):
        for inv in search6_pooled.by_offset[s].involutions:
            assert lf.decide_proper(inv.rule).proper
            assert all(lf.is_lifting(inv.rule, n) for n in range(6, 15))


def test_complemented_branch_universe():
    from liftforge.search6 import search_all

    full = search_all(include_complemented=True)
    # the swap branch adds the involutions exchanging the two constant
    # sequences: 8 functions in 4 classes on top of the 152 in 40
    assert full.function_count == 160
    assert full.class_count == 44
    counts = {s: full.by_offset[s] for s in (2, 3)}
    assert [(r.scan_survivors, r.searched, r.completions) for r in counts.values()] == [
        (8592, 68, 28),
        (9128, 260, 76),
    ]


def test_pinned_word_filter_leaves_few_survivors(search6_pooled):
    for s, searched in ((2, 34), (3, 130)):
        res = search6_pooled.by_offset[s]
        assert res.searched == searched < res.scan_survivors


# ---------------------------------------------------------------------------
# the one-survivor-at-a-time extension, kept as the reference for _extend_all


@functools.lru_cache(maxsize=4)
def _ref_constraints(s: int):
    """For each 11-bit word z: its six 6-bit windows; for each window, the
    words it occurs in; the target bit index."""
    windows = [[(z >> j) & 63 for j in range(6)] for z in range(1 << 11)]
    occ = [[] for _ in range(64)]
    for z, ws in enumerate(windows):
        for w in ws:
            occ[w].append(z)
    return windows, [tuple(o) for o in occ], 2 * s - 2


def _ref_bit_rows(masks):
    buf = b"".join(m.to_bytes(8, "little") for m in masks)
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little").reshape(len(masks), 64)


def _ref_refuted_by_pinned_words(assignments, s):
    """Mask of the (defined, ones) assignments whose pinned values already contradict the
    identity on a word whose six windows are all short-period words."""
    z = np.arange(1 << 11, dtype=np.intp)
    windows = (z[:, None] >> np.arange(6)) & 63
    keep = _ref_bit_rows([short_period_words()])[0][windows].all(axis=1)
    windows, target = windows[keep], ((z[keep] >> (2 * s - 2)) & 1).astype(np.uint8)
    defined = _ref_bit_rows([d for d, _ in assignments])
    ones = _ref_bit_rows([o for _, o in assignments])
    z_defined = defined[:, windows].all(axis=2)
    v = np.packbits(ones[:, windows], axis=2, bitorder="little")[:, :, 0].astype(np.intp)
    fv = np.take_along_axis(ones, v, axis=1)
    v_defined = np.take_along_axis(defined, v, axis=1)
    return (z_defined & (v_defined == 1) & (fv != target)).any(axis=1)


def _ref_extend(def_mask, ones_mask, s):
    """Depth-first completion with eager unit propagation, one window at a
    time: every full table extending the pinned windows that satisfies the
    involution identity."""
    windows, occ, tbit = _ref_constraints(s)
    UNSET = 2
    table = [UNSET] * 64
    cnt = [6] * (1 << 11)
    trail = []
    solutions = []

    def assign(w, val):
        stack = [(w, val)]
        while stack:
            w, val = stack.pop()
            if table[w] != UNSET:
                if table[w] != val:
                    return False
                continue
            table[w] = val
            trail.append(w)
            failed = False
            # decrement every occurrence even on conflict, so undo stays exact
            for z in occ[w]:
                cnt[z] -= 1
                if not failed and cnt[z] == 0:
                    v = sum(table[x] << j for j, x in enumerate(windows[z]))
                    t = (z >> tbit) & 1
                    if table[v] == UNSET:
                        stack.append((v, t))
                    elif table[v] != t:
                        failed = True
            if failed:
                return False
        return True

    def undo(mark):
        while len(trail) > mark:
            w = trail.pop()
            table[w] = UNSET
            for z in occ[w]:
                cnt[z] += 1

    def dfs():
        w = next((i for i in range(64) if table[i] == UNSET), None)
        if w is None:
            solutions.append(sum(table[i] << i for i in range(64)))
            return
        for val in (0, 1):
            mark = len(trail)
            if assign(w, val):
                dfs()
            undo(mark)

    if all(assign(w, (ones_mask >> w) & 1) for w in range(64) if (def_mask >> w) & 1):
        dfs()
    return solutions


@pytest.fixture(scope="module")
def reference_extension():
    """Per offset: the scan survivors the pinned-word filter keeps, the
    reference completions of all of them, and a seeded sample of 100 it
    refutes."""
    rng = random.Random(2411)
    out = {}
    for s in (2, 3):
        survivors = [tuple(a) for a in enumerate_periodic_assignments(s).survivors.tolist()]
        refuted = _ref_refuted_by_pinned_words(survivors, s)
        kept = [a for a, r in zip(survivors, refuted) if not r]
        tables = sorted(t for a in kept for t in _ref_extend(*a, s))
        dropped = rng.sample([a for a, r in zip(survivors, refuted) if r], 100)
        out[s] = kept, tables, dropped
    return out


def _masks(assignments):
    return [d for d, _ in assignments], [o for _, o in assignments]


def test_pinned_word_filter_drops_only_unextendable_survivors(reference_extension):
    for s, (kept, _, dropped) in reference_extension.items():
        assert len(kept) == {2: 34, 3: 130}[s]
        for a in dropped:
            assert _ref_extend(*a, s) == []


@pytest.mark.parametrize("block", [None, 1, 3])
def test_extend_all_matches_reference(reference_extension, monkeypatch, block):
    if block is not None:
        # the first round uses the 278 words whose windows are all pinned
        monkeypatch.setattr(search6, "_WORD_BUDGET", block * 278)
        sizes = []
        propagate = search6._propagate

        def counted(defined, *args):
            sizes.append(len(defined))
            return propagate(defined, *args)

        monkeypatch.setattr(search6, "_propagate", counted)
        _extend_all(*_masks(reference_extension[2][0]), 2)
        assert sizes[: 34 // block] == [block] * (34 // block)  # the 34 rows kept at s=2
    for s, (kept, tables, dropped) in reference_extension.items():
        got, searched = _extend_all(*_masks(kept), s)
        assert (sorted(got), searched) == (tables, len(kept))
        assert _extend_all(*_masks(dropped), s) == ([], 0)
        # kept and refuted rows mixed in one call, refuted ones first
        got, searched = _extend_all(*_masks(dropped + kept), s)
        assert (sorted(got), searched) == (tables, len(kept))
    assert _extend_all([], [], 2) == ([], 0)


FULL = (1 << 64) - 1


def test_extend_all_matches_reference_near_involutions(search6_pooled):
    # involutions with 2..19 windows chosen: one re-pinned to a random value,
    # the others unset
    rng = random.Random(11)
    for s in (2, 3):
        rows = []
        for _ in range(50):
            table = rng.choice(search6_pooled.by_offset[s].involutions).rule.table
            unset = rng.sample(range(64), rng.randrange(2, 20))
            d = FULL ^ sum(1 << w for w in unset[1:])
            rows.append((d, (table & d) ^ (rng.getrandbits(1) << unset[0])))
        got, _ = _extend_all([d for d, _ in rows], [o for _, o in rows], s)
        assert sorted(got) == sorted(t for d, o in rows for t in _ref_extend(d, o, s))


def test_opposite_forcings_refute_a_row():
    # an s=3 involution with window 17 flipped and windows 21 and 37 unset:
    # no forced value contradicts a defined one, but two words force opposite
    # values on an unset window, and only that refutes the row
    table = 0xF078F0D2F0F0F0F0
    assert involution_rule_check(lf.rule_from_table(6, table), 3)
    d = FULL ^ (1 << 21) ^ (1 << 37)
    o = (table ^ (1 << 17)) & d
    defined, ones = np.array([d], dtype="<u8"), np.array([o], dtype="<u8")
    *_, pinned, clash = search6._propagate(defined, ones, defined.copy(), 3)
    assert (pinned[0], clash[0]) == (False, True)
    assert _extend_all([d], [o], 3) == ([], 1)
    assert _ref_extend(d, o, 3) == []


def test_extend_all_allocation_bound():
    scan = enumerate_periodic_assignments(3)
    masks = scan.def_masks.tolist(), scan.ones_masks.tolist()
    _extend_all(scan.def_masks[:1], scan.ones_masks[:1], 3)  # the cached word planes are not counted
    tracemalloc.start()
    try:
        tables, searched = _extend_all(*masks, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(tables), searched) == (71, 130)
    assert peak < 4 << 20


def test_search_result_counts(search6_pooled):
    res2 = search6_pooled.by_offset[2]
    res3 = search6_pooled.by_offset[3]
    assert (res2.scanned, res2.scan_survivors, res2.completions) == (787_456, 4296, 27)
    assert (res3.scanned, res3.scan_survivors, res3.completions) == (787_456, 4564, 71)
