import hashlib

import pytest

import liftforge as lf
from liftforge.catalog import (
    CATALOG_SHA256,
    CatalogError,
    _catalog_bytes,
    catalog_function_pool,
    closure_search,
    default_generators,
    degree2_probe,
    load_catalog,
    verify_catalog,
)
from liftforge.exprlang import atoms, eval_expr, parse_expr
from liftforge.landscape import is_conserved


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
        for l in atoms(e.expr):
            assert is_conserved(l), (e.text, l.symbols)


def test_orbit_expansion_has_472_functions(catalog_entries):
    pool = catalog_function_pool(catalog_entries)
    assert len(pool) == 472
    assert all(r.bit(0) == 0 for r in pool)


def test_catalog_classes_distinct(catalog_entries):
    ids = {lf.canonicalize(e.rule()) for e in catalog_entries}
    assert len(ids) == 120


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
    rep = verify_catalog(catalog_entries, required_classes=search6_pooled.class_ids)
    assert rep.ok, rep.summary()
    # a made-up class id is reported missing
    fake = lf.canonicalize(lf.rule_from_anf_text("x1 ^ x2*x3"))
    rep2 = verify_catalog(catalog_entries, required_classes={fake})
    assert any(p.kind == "missing-class" for p in rep2.problems)


def test_du_spot_checks_catalog_rows(catalog_entries):
    spot = {
        "(0-★100)∘(0-★110)": (24, 56, 112, 216, 480, 864, 1728),
        "(0★10)∘(0★110)∘(01★00)": (10, 26, 42, 72, 144, 288, 576),
        "(0★110)∘(0★10)∘(10★011)": (16, 24, 46, 96, 194, 388, 776),
    }
    by_text = {e.text: e for e in catalog_entries}
    for text, du in spot.items():
        assert by_text[text].stated_du == du


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


def test_closure_rejects_small_cap():
    with pytest.raises(lf.LiftforgeError):
        closure_search(5)


@pytest.mark.long
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
    # composites of proper rules are proper: a check of the pair graph
    assert all(lf.decide_proper(c.rule()).proper for c in res.found_classes)
    assert lf.decide_proper(lf.rule_from_text("5:D30EFF00"), method="finite-scan").proper


@pytest.mark.long
def test_degree2_probe_finds_nothing():
    probe = degree2_probe()
    assert probe.pool_size == 490
    assert probe.ok, probe.degree2


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
