import itertools
import random

import pytest

import liftforge as lf
from liftforge.landscape import compile_landscape, parse_landscape
from liftforge.search6 import (
    NecklaceClass,
    _class_map_options,
    _extend_assignment,
    _refuted_by_pinned_words,
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
    s4 = {i.rule.table for i in search6_pooled.by_offset[4]}
    assert rev3 == s4
    rev2 = {lf.reverse(i.rule).table for i in search6_pooled.by_offset[2].involutions}
    s5 = {i.rule.table for i in search6_pooled.by_offset[5]}
    assert rev2 == s5


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


@pytest.mark.long
def test_complemented_branch_universe():
    from liftforge.search6 import search_all

    full = search_all(include_complemented=True)
    # the swap branch adds the involutions exchanging the two constant
    # sequences: 8 functions in 4 classes on top of the 152 in 40
    assert full.function_count == 160
    assert full.class_count == 44


def test_pinned_word_filter_leaves_few_survivors(search6_pooled):
    for s, searched in ((2, 34), (3, 130)):
        res = search6_pooled.by_offset[s]
        assert res.searched == searched < res.scan_survivors


def test_pinned_word_filter_drops_only_unextendable_survivors():
    rng = random.Random(2411)
    for s in (2, 3):
        survivors = enumerate_periodic_assignments(s).survivors
        refuted = _refuted_by_pinned_words(survivors, s)
        dropped = [a for a, r in zip(survivors, refuted) if r]
        for a in rng.sample(dropped, 100):
            assert _extend_assignment(a.def_mask, a.ones_mask, s) == []


def test_search_result_counts(search6_pooled):
    res2 = search6_pooled.by_offset[2]
    res3 = search6_pooled.by_offset[3]
    assert (res2.scanned, res2.scan_survivors, res2.completions) == (787_456, 4296, 27)
    assert (res3.scanned, res3.scan_survivors, res3.completions) == (787_456, 4564, 71)
