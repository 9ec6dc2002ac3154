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
    assert {a.def_mask for a in scan3.survivors} == {short_period_words()}


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
    """Mask of the assignments whose pinned values already contradict the
    identity on a word whose six windows are all short-period words."""
    z = np.arange(1 << 11, dtype=np.intp)
    windows = (z[:, None] >> np.arange(6)) & 63
    keep = _ref_bit_rows([short_period_words()])[0][windows].all(axis=1)
    windows, target = windows[keep], ((z[keep] >> (2 * s - 2)) & 1).astype(np.uint8)
    ones = _ref_bit_rows([a.ones_mask for a in assignments])
    defined = _ref_bit_rows([a.def_mask for a in assignments])
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
        survivors = enumerate_periodic_assignments(s).survivors
        refuted = _ref_refuted_by_pinned_words(survivors, s)
        kept = [a for a, r in zip(survivors, refuted) if not r]
        tables = sorted(t for a in kept for t in _ref_extend(a.def_mask, a.ones_mask, s))
        dropped = rng.sample([a for a, r in zip(survivors, refuted) if r], 100)
        out[s] = kept, tables, dropped
    return out


def _masks(assignments):
    return [a.def_mask for a in assignments], [a.ones_mask for a in assignments]


def test_pinned_word_filter_drops_only_unextendable_survivors(reference_extension):
    for s, (kept, _, dropped) in reference_extension.items():
        assert len(kept) == {2: 34, 3: 130}[s]
        for a in dropped:
            assert _ref_extend(a.def_mask, a.ones_mask, s) == []


@pytest.mark.parametrize("block", [None, 1, 3])
def test_extend_all_matches_reference(reference_extension, monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(search6, "_ROW_BLOCK", block)
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
    survivors = enumerate_periodic_assignments(3).survivors
    masks = _masks(survivors)
    _extend_all(*_masks(survivors[:1]), 3)  # the cached word planes are not counted
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
