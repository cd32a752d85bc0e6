"""Expression AST, parser, formatter, and polynomial normal form."""

import copy
import dataclasses
import gc
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

from helpers import corpus, gen_expr, naive_format, unshare
from mprat import expression
from mprat.expression import (
    Alphabet,
    Const,
    ExprHasInverse,
    ExprSyntaxError,
    Inverse,
    Product,
    Sum,
    Var,
    _format_roots,
    expr_neg,
    expr_product,
    expr_sum,
    format_expr,
    inverse_of,
    inversion_height,
    parse,
    poly_normal_form,
    subexpr_at,
    validate_vars,
    walk,
)
from mprat.identity import TestConfig
from mprat.matrix_kernel import QQ, Matrix
from mprat.matrix_rational import ExprMatrix, matrix_inverse_expr, partial_evaluate

F = Fraction

AB = Alphabet((2, 2))


# -- alphabet -----------------------------------------------------------------


def test_alphabet_slots_and_letters():
    a = Alphabet((2, 1))
    assert a.parts == 2
    assert a.slots() == ((1, False), (2, False))
    assert a.letters() == (Var(1, 1), Var(1, 2), Var(2, 1))

    primed = a.with_primed(2)
    assert primed.slots() == ((1, False), (2, True), (2, False))
    assert primed.letters() == (Var(1, 1), Var(1, 2), Var(2, 1, True), Var(2, 1))
    assert primed.slot_index(2, True) == 1


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet((2, 0))
    with pytest.raises(ValueError):
        Alphabet((2,)).with_primed(2)


def test_validate_vars():
    validate_vars(parse("X1_1 * X2_2", AB), AB)
    with pytest.raises(ValueError):
        validate_vars(Var(3, 1), AB)
    with pytest.raises(ValueError):
        validate_vars(Var(1, 3), AB)
    with pytest.raises(ValueError):
        validate_vars(Var(1, 1, True), AB)


# -- parsing ------------------------------------------------------------------


def test_parse_basic_shapes():
    assert parse("X1_1", AB) == Var(1, 1)
    assert parse("3/2", AB) == Const(F(3, 2))
    assert parse("X1_1 + X2_1", AB) == Sum((Var(1, 1), Var(2, 1)))
    assert parse("X1_1 * X1_2", AB) == Product((Var(1, 1), Var(1, 2)))
    assert parse("inv(X1_1)", AB) == Inverse(Var(1, 1))


def test_parse_precedence_and_grouping():
    e = parse("X1_1 + X1_2 * X2_1", AB)
    assert e == Sum((Var(1, 1), Product((Var(1, 2), Var(2, 1)))))
    e = parse("(X1_1 + X1_2) * X2_1", AB)
    assert e == Product((Sum((Var(1, 1), Var(1, 2))), Var(2, 1)))


def test_parse_minus_and_unary():
    assert parse("X1_1 - X1_2", AB) == Sum((Var(1, 1), Product((Const(F(-1)), Var(1, 2)))))
    assert parse("-X1_1", AB) == Product((Const(F(-1)), Var(1, 1)))
    assert parse("- - X1_1", AB) == Var(1, 1)
    assert parse("-3", AB) == Const(F(-3))


def test_parse_primed_variable():
    primed = AB.with_primed(1)
    assert parse("X1_2'", primed) == Var(1, 2, True)
    with pytest.raises(ExprSyntaxError):
        parse("X1_2'", AB)


def test_parse_literal_folding():
    assert parse("2 + 3", AB) == Const(F(5))
    assert parse("2 * 3", AB) == Const(F(6))
    assert parse("1 * X1_1", AB) == Var(1, 1)
    assert parse("0 + X1_1", AB) == Var(1, 1)
    assert parse("inv(2)", AB) == Const(F(1, 2))
    assert parse("inv(1/3)", AB) == Const(F(3))
    # zero inverses and zero products keep their written structure
    assert parse("inv(0)", AB) == Inverse(Const(F(0)))
    assert parse("0 * inv(X1_1)", AB) == Product((Const(F(0)), Inverse(Var(1, 1))))


def test_parse_keeps_source_order():
    e = parse("X1_1 * 2 * X1_2", AB)
    assert e == Product((Var(1, 1), Const(F(2)), Var(1, 2)))


def test_parse_flattens_nested_sums():
    assert parse("X1_1 + (X1_2 + X2_1)", AB) == Sum((Var(1, 1), Var(1, 2), Var(2, 1)))
    assert parse("X1_1 * (X1_2 * X2_1)", AB) == Product((Var(1, 1), Var(1, 2), Var(2, 1)))


def test_parse_error_positions():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("X1_", AB)
    assert exc.value.position == 3

    with pytest.raises(ExprSyntaxError) as exc:
        parse("X1_1 + ", AB)
    assert exc.value.position == 7

    with pytest.raises(ExprSyntaxError) as exc:
        parse("X1_1 ** X1_2", AB)
    assert exc.value.position == 6

    with pytest.raises(ExprSyntaxError) as exc:
        parse("inv(X1_1", AB)
    assert exc.value.position == 8

    with pytest.raises(ExprSyntaxError) as exc:
        parse("X1_1)", AB)
    assert exc.value.position == 4

    with pytest.raises(ExprSyntaxError) as exc:
        parse("X3_1", AB)
    assert exc.value.position == 0

    with pytest.raises(ExprSyntaxError) as exc:
        parse("1/0", AB)
    assert exc.value.position == 2


def test_parse_whitespace_insensitive():
    assert parse("X1_1+X1_2*X2_1", AB) == parse(" X1_1 + X1_2 * X2_1 ", AB)


# -- builders -----------------------------------------------------------------


def test_builders_fold_constants():
    x = Var(1, 1)
    assert expr_sum([Const(F(2)), Const(F(3)), x]) == Sum((Const(F(5)), x))
    assert expr_sum([Const(F(2)), Const(F(-2))]) == Const(F(0))
    assert expr_sum([x]) == x
    assert expr_sum([]) == Const(F(0))
    assert expr_product([Const(F(2)), Const(F(3))]) == Const(F(6))
    assert expr_product([Const(F(1)), x]) == x
    assert expr_product([]) == Const(F(1))
    assert expr_neg(expr_neg(x)) == x


def test_builders_zero_handling():
    x = Var(1, 1)
    kept = expr_product([Const(F(0)), Inverse(x)])
    assert kept == Product((Const(F(0)), Inverse(x)))
    absorbed = expr_product([Const(F(0)), Inverse(x)], absorb_zero=True)
    assert absorbed == Const(F(0))


def test_builders_do_not_reorder():
    x, y = Var(1, 1), Var(1, 2)
    e = expr_product([Const(F(2)), x, Const(F(3)), y])
    assert e == Product((Const(F(2)), x, Const(F(3)), y))


def test_inverse_of():
    assert inverse_of(Const(F(2))) == Const(F(1, 2))
    assert inverse_of(Const(F(0))) == Inverse(Const(F(0)))
    assert inverse_of(Var(1, 1)) == Inverse(Var(1, 1))


def test_subexpr_at():
    e = parse("X1_1 + X1_2 * inv(X2_1)", AB)
    assert subexpr_at(e, ()) is e
    assert subexpr_at(e, (0,)) == Var(1, 1)
    assert subexpr_at(e, (1, 1)) == Inverse(Var(2, 1))
    assert subexpr_at(e, (1, 1, 0)) == Var(2, 1)
    for bad in ((0, 0), (2,), (-1,), (1, -1), (1, 2), (1, 1, 1), (1, 1, -1)):
        with pytest.raises(ValueError):
            subexpr_at(e, bad)


# -- formatting ---------------------------------------------------------------


def test_format_basic():
    assert format_expr(parse("X1_1 + X1_2 * X2_1", AB)) == "X1_1 + X1_2 * X2_1"
    assert format_expr(parse("(X1_1 + X1_2) * X2_1", AB)) == "(X1_1 + X1_2) * X2_1"
    assert format_expr(parse("inv(X1_1 + 1)", AB)) == "inv(X1_1 + 1)"
    assert format_expr(Const(F(-3, 2))) == "-3/2"


def test_format_negatives():
    assert format_expr(parse("X1_1 - X1_2", AB)) == "X1_1 - X1_2"
    assert format_expr(parse("-X1_1 * X1_2", AB)) == "-X1_1 * X1_2"
    assert format_expr(parse("X1_1 - 2 * X1_2", AB)) == "X1_1 - 2 * X1_2"
    assert format_expr(expr_neg(parse("inv(X1_1)", AB))) == "-inv(X1_1)"


def test_format_parse_round_trip():
    sources = [
        "X1_1",
        "-5/3",
        "X1_1 + X1_2 - X2_1",
        "X1_1 * X1_2 * X1_1",
        "inv(X1_1 * X2_1 - 1)",
        "(X1_1 - X1_2) * inv(X1_1 + X1_2) * X2_1",
        "2 * X1_1 - 3/2 * inv(X2_2)",
        "0 * inv(X1_1)",
        "inv(inv(X1_1) + inv(X1_2))",
        "-(X1_1 + X2_1)",
    ]
    for src in sources:
        e = parse(src, AB)
        assert parse(format_expr(e), AB) == e


def test_format_parse_round_trip_random():
    rng = random.Random("roundtrip")
    letters = [Var(p, i) for p in (1, 2) for i in (1, 2)]

    def gen(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            if rng.random() < 0.25:
                return Const(F(rng.randint(-4, 4), rng.randint(1, 3)))
            return rng.choice(letters)
        if roll < 0.55:
            return expr_sum([gen(depth - 1) for _ in range(rng.randint(2, 3))])
        if roll < 0.8:
            return expr_product([gen(depth - 1) for _ in range(rng.randint(2, 3))])
        if roll < 0.9:
            return expr_neg(gen(depth - 1))
        return inverse_of(gen(depth - 1))

    for _ in range(150):
        e = gen(3)
        assert parse(format_expr(e), AB) == e


def assert_prints_as_a_tree(e, want):
    # shared nodes print from memo; the text must be that of the tree
    text = format_expr(e)
    assert text == want
    assert naive_format(e) == want
    assert format_expr(parse(text, AB)) == want


def test_format_shared_negative_product():
    # split into " - ..." as a later sum term, kept whole first and as a factor
    p = Product((Const(F(-2)), Var(1, 2)))
    assert_prints_as_a_tree(Sum((p, Var(1, 1), p, Product((Var(2, 1), p)))),
                            "-2 * X1_2 + X1_1 - 2 * X1_2 + X2_1 * -2 * X1_2")
    # a unit coefficient leaves a parenthesised sum behind its minus
    q = expr_neg(parse("X1_1 + X1_2", AB))
    x = Var(2, 1)
    assert_prints_as_a_tree(expr_sum([x, q, inverse_of(q), q]),
                            "X2_1 - (X1_1 + X1_2) + inv(-(X1_1 + X1_2)) - (X1_1 + X1_2)")
    c = Const(F(-3, 2))
    assert_prints_as_a_tree(Sum((c, x, c)), "-3/2 + X2_1 - 3/2")


def test_format_shared_sum():
    s = parse("X1_1 + 1", AB)
    assert_prints_as_a_tree(s, "X1_1 + 1")
    assert_prints_as_a_tree(Product((s, Inverse(s), Var(2, 1), s)),
                            "(X1_1 + 1) * inv(X1_1 + 1) * X2_1 * (X1_1 + 1)")


def test_format_root_shared_in_another_expression():
    s = parse("X1_1 + 1", AB)
    r = expr_sum([expr_product([s, Var(2, 1)]), inverse_of(s)])
    text = "(X1_1 + 1) * X2_1 + inv(X1_1 + 1)"
    assert_prints_as_a_tree(r, text)
    assert_prints_as_a_tree(expr_product([r, Var(1, 2), inverse_of(r)]),
                            f"({text}) * X1_2 * inv({text})")


def test_format_matches_the_naive_printer():
    # each random expression recurs as a term, a factor and a negated term
    rng = random.Random("naive-format")
    exprs = corpus()
    for _ in range(300):
        e = gen_expr(rng, AB, 3)
        exprs.append(expr_sum([e, expr_product([e, Var(1, 1)]), expr_neg(e)]))
    for e in exprs:
        assert format_expr(e) == naive_format(e)


def test_long_output_is_written_in_chunks():
    # 6000 pieces: more than one chunk of the writer
    text = " + ".join(f"{k} * X1_1" for k in range(2, 3002))
    assert format_expr(parse(text, AB)) == text


def assert_roots_print_alone(roots):
    # one memo over all roots writes each root as format_expr alone does
    assert _format_roots(roots) == [format_expr(r) for r in roots]


def test_many_roots_print_as_each_root_alone():
    x, y = Var(1, 1), Var(2, 1)
    s = parse("X1_1 + 1", AB)
    p = Product((Const(F(-2)), Var(1, 2)))  # prints " - 2 * X1_2" as a later term
    c = Const(F(-3, 2))
    cases = [
        [s, Product((s, y)), Inverse(s)],  # a root that is a node of later roots
        [Product((s, y)), expr_neg(s), s],  # ... and of earlier ones
        [s, s, Sum((x, s))],  # one object as two roots
        [Sum((x, p)), p, Sum((y, p)), Product((p, x))],  # the split of a stored term
        [c, Sum((x, c)), Const(F(0)), c],  # constant roots
        [expr_neg(s), Sum((y, expr_neg(s))), Product((x, expr_neg(s)))],
    ]
    for roots in cases:
        assert_roots_print_alone(roots)
    q = expr_neg(s)
    assert _format_roots([Sum((y, q)), q]) == ["X2_1 - (X1_1 + 1)", "-(X1_1 + 1)"]


def test_many_roots_print_builder_matrices_as_each_entry_alone():
    rng = random.Random("many-roots")
    ab = Alphabet((2,))
    for d in range(2, 6):
        rows = [[parse(f"{rng.randint(2, 9)}*X1_1 + {rng.randint(2, 9)}*X1_2 + "
                       f"{rng.randint(2, 9)}", ab) for _ in range(d)] for _ in range(d)]
        inv = matrix_inverse_expr(ExprMatrix(ab, rows), TestConfig(seed=d)).matrix
        assert_roots_print_alone([e for row in inv.entries for e in row])
    e = parse("inv(X1_1*X2_1 + X1_2) * X1_2 + X2_1*X1_1 - inv(X1_1 + X2_1)",
              Alphabet((2, 1)))
    a1 = [Matrix.of(QQ, [[1, 2, 0], [0, 1, 3], [4, 0, 1]]),
          Matrix.of(QQ, [[2, 0, 1], [1, 3, 0], [0, 1, 2]])]
    part = partial_evaluate(e, Alphabet((2, 1)), a1, TestConfig())
    assert_roots_print_alone([e for row in part.entries for e in row])


# -- repr -----------------------------------------------------------------------


def test_repr_is_the_dataclass_text():
    e = parse("-2 * inv(X1_1 + 1/2) * X2_1", AB)
    assert repr(e) == ("Product(factors=(Const(value=Fraction(-2, 1)), "
                       "Inverse(arg=Sum(terms=(Var(part=1, index=1, primed=False), "
                       "Const(value=Fraction(1, 2))))), "
                       "Var(part=2, index=1, primed=False)))")
    assert repr(Var(1, 2, True)) == "Var(part=1, index=2, primed=True)"


# -- interning -------------------------------------------------------------------


def test_structure_alone_decides_identity():
    for e in corpus():
        assert unshare(e) is e
    text = "inv(X1_1 + X2_1) * X1_2 + inv(X1_1 + X2_1)"
    e = parse(text, AB)
    assert parse(text, AB) is e
    assert e.terms[0].factors[0] is e.terms[1]
    assert Var(1, 1) is Var(1, 1, 0) and Const(2) is Const(F(4, 2))


def test_copies_are_the_node_itself():
    e = parse("-2 * inv(X1_1 + 1/2) * X2_1' + X1_1", AB.with_primed(2))
    for node in walk(e):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node
        assert dataclasses.replace(node) is node


def test_dropped_nodes_leave_the_intern_table():
    gc.collect()
    before = len(expression._nodes)
    e = parse("inv(X1_1 * 1234567 + X2_2 * 7654321) * X1_2 - 98765", AB)
    assert all(expression._nodes[(type(n), *n.__reduce__()[1])] is n for n in walk(e))
    assert len(expression._nodes) > before
    del e
    gc.collect()
    assert len(expression._nodes) == before


def test_threads_building_one_structure_get_one_node():
    # the table's lookup and insert are one step under a lock: two threads
    # that both miss must not build two nodes of one structure
    rounds, workers = 300, 4
    built = [[None] * workers for _ in range(rounds)]
    barrier = threading.Barrier(workers, timeout=30)

    def work(w):
        for r in range(rounds):
            barrier.wait()
            built[r][w] = parse(f"inv(X1_1 + {10**6 + r}) * X2_1 - {10**6 + r}", AB)

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert all(row[0] is not None and all(e is row[0] for e in row) for row in built)


# -- inversion height ---------------------------------------------------------


def test_inversion_height():
    assert inversion_height(parse("X1_1 * X2_1 + 2", AB)) == 0
    assert inversion_height(parse("inv(X1_1) + inv(X1_2)", AB)) == 1
    assert inversion_height(parse("inv(inv(X1_1) + X1_2)", AB)) == 2
    assert inversion_height(parse("inv(X1_1) * inv(inv(X2_1))", AB)) == 2


# -- polynomial normal form ---------------------------------------------------


def test_normal_form_separates_parts():
    # cross-part letters commute, same-part letters do not
    xu = poly_normal_form(parse("X1_1 * X2_1", AB), AB)
    ux = poly_normal_form(parse("X2_1 * X1_1", AB), AB)
    assert xu == ux

    xy = poly_normal_form(parse("X1_1 * X1_2", AB), AB)
    yx = poly_normal_form(parse("X1_2 * X1_1", AB), AB)
    assert xy != yx


def test_normal_form_zero_detection():
    e = parse("X1_1 * X2_1 - X2_1 * X1_1", AB)
    assert poly_normal_form(e, AB) == {}
    e = parse("(X1_1 + X1_2) * (X1_1 - X1_2) - X1_1 * X1_1 "
              "+ X1_2 * X1_2 - X1_2 * X1_1 + X1_1 * X1_2", AB)
    assert poly_normal_form(e, AB) == {}
    assert poly_normal_form(parse("X1_1 * X1_2 - X1_2 * X1_1", AB), AB) == {
        ((1, 2), ()): F(1), ((2, 1), ()): F(-1)}


def test_normal_form_terms():
    nf = poly_normal_form(parse("2 * X1_1 * X1_1 + 3", AB), AB)
    assert nf == {((), ()): F(3), ((1, 1), ()): F(2)}
    assert poly_normal_form(Const(F(0)), AB) == {}
    # a term that cancels leaves no zero coefficient behind
    assert poly_normal_form(parse("X1_1 + 2 - X1_1", AB), AB) == {((), ()): F(2)}


def test_normal_form_ring_laws():
    rng = random.Random("nf-ring")
    letters = [Var(p, i) for p in (1, 2) for i in (1, 2)]

    def gen(depth):
        if depth == 0 or rng.random() < 0.4:
            if rng.random() < 0.3:
                return Const(F(rng.randint(-3, 3)))
            return rng.choice(letters)
        kids = [gen(depth - 1) for _ in range(2)]
        return expr_sum(kids) if rng.random() < 0.5 else expr_product(kids)

    for _ in range(40):
        a, b = gen(2), gen(2)
        nf_sum = poly_normal_form(expr_sum([a, b]), AB)
        nf_prod = poly_normal_form(expr_product([a, b]), AB)
        na, nb = poly_normal_form(a, AB), poly_normal_form(b, AB)
        merged = dict(na)
        for m, c in nb.items():
            merged[m] = merged.get(m, F(0)) + c
        assert nf_sum == {m: c for m, c in merged.items() if c}
        prod_terms = {}
        for ma, ca in na.items():
            for mb, cb in nb.items():
                key = tuple(wa + wb for wa, wb in zip(ma, mb))
                prod_terms[key] = prod_terms.get(key, F(0)) + ca * cb
        assert nf_prod == {m: c for m, c in prod_terms.items() if c}


def test_normal_form_rejects_inverse():
    with pytest.raises(ExprHasInverse):
        poly_normal_form(parse("inv(X1_1)", AB), AB)


def test_normal_form_primed_slots():
    primed = AB.with_primed(1)
    e = parse("X1_1' * X1_1", primed)
    nf = poly_normal_form(e, primed)
    assert nf == {((1,), (1,), ()): F(1)}
