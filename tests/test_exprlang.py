import random

import pytest

import liftforge as lf
from liftforge.exprlang import (
    ExprSyntaxError,
    LiftExpr,
    eval_expr,
    parse_expr,
    print_expr,
)


def test_parse_two_atom_chain():
    e = parse_expr("(0★10)∘(0★110)")
    assert isinstance(e, LiftExpr)
    assert [l.symbols for l in e.atoms] == ["0★10", "0★110"]


def test_parse_six_atom_chain():
    e = parse_expr("(0★011)∘(100★11)∘(10★11)∘(0★0011)∘(10★11)∘(0★011)")
    assert len(e.atoms) == 6
    # leftmost (applied last) first
    assert e.atoms[0].symbols == "0★011" and e.atoms[-1].symbols == "0★011" and e.atoms[1].symbols == "100★11"


def test_parse_errors_have_positions():
    with pytest.raises(ExprSyntaxError):
        parse_expr("(0★10")
    with pytest.raises(ExprSyntaxError):
        parse_expr("(0★10)∘")
    with pytest.raises(ExprSyntaxError):
        parse_expr("(0★1★0)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("")


def test_ascii_forms_accepted():
    assert parse_expr("(0*10)o(0*110)") == parse_expr("(0★10)∘(0★110)")
    assert parse_expr("0★10") == LiftExpr((lf.parse_landscape("0★10"),))


def test_nested_parentheses_flatten():
    flat = parse_expr("(0★10)∘(0★110)∘(01★00)")
    nested = parse_expr("((0★10)∘(0★110))∘(01★00)")
    nested2 = parse_expr("(0★10)∘((0★110)∘(01★00))")
    assert flat == nested == nested2


def test_print_round_trip():
    texts = [
        "(0★10)",
        "(0★10)∘(0★110)",
        "(0★011)∘(100★11)∘(10★11)∘(0★0011)∘(10★11)∘(0★011)",
    ]
    for t in texts:
        e = parse_expr(t)
        assert print_expr(e) == t
        assert parse_expr(print_expr(e)) == e


def test_print_ascii_mode():
    e = parse_expr("(0★10)∘(0★110)")
    assert print_expr(e, ascii=True) == "(0*10)o(0*110)"
    assert parse_expr(print_expr(e, ascii=True)) == e


def test_eval_single_atom():
    e = parse_expr("(1★01)")
    assert eval_expr(e).same_function(lf.compile_landscape(lf.parse_landscape("1★01")))


def test_eval_is_composition_homomorphism():
    e = parse_expr("(1★001)∘(1★01)")
    direct = lf.compose(
        lf.compile_landscape(lf.parse_landscape("1★001")),
        lf.compile_landscape(lf.parse_landscape("1★01")),
    )
    r = eval_expr(e)
    assert r.same_function(direct) and r.shift == direct.shift


def test_eval_body_table_row():
    r = eval_expr(parse_expr("(00★10)∘(0★110)∘(0★10)"))
    assert r.k == 6 and lf.degree(r) == 4


def test_round_trip_random_chains(catalog_entries):
    rng = random.Random(2024)
    pool = [l for e in catalog_entries for l in e.expr.atoms]
    for _ in range(200):
        chain = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        text = "∘".join(f"({l.symbols})" for l in chain)
        e = parse_expr(text)
        assert print_expr(e) == text
        assert parse_expr(print_expr(e)) == e


def test_catalog_round_trips(catalog_entries):
    for e in catalog_entries:
        assert print_expr(e.expr) == e.text
        assert parse_expr(print_expr(e.expr)) == e.expr
