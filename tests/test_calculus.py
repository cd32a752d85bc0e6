"""Difference-differential operator and block-matrix verification."""

import random
from fractions import Fraction

import pytest

import mprat.calculus
from helpers import rand_invertible, rand_matrix
from mprat.calculus import (
    delta,
    directional_delta,
    fund_block_point,
    prime_part,
    verify_fund,
)
from mprat.evaluation import UndefinedError, mp_evaluate
from mprat.expression import (
    Alphabet,
    Const,
    Var,
    expr_product,
    expr_sum,
    format_expr,
    parse,
)
from mprat.identity import ExactZero, NonzeroWitness, NowhereDefined, TestConfig, equivalent
from mprat.matrix_kernel import QQ, Matrix

F = Fraction

AB1 = Alphabet((2,))
AB11 = Alphabet((1, 1))
AB2 = Alphabet((2, 2))


def test_delta_letter():
    assert delta(1, 1, parse("X1_1", AB1), AB1) == Const(F(1))
    assert delta(1, 2, parse("X1_1", AB1), AB1) == Const(F(0))
    assert delta(2, 1, parse("X1_1", AB11), AB11) == Const(F(0))
    assert delta(1, 1, parse("7", AB1), AB1) == Const(F(0))


def test_delta_square():
    d = delta(1, 1, parse("X1_1 * X1_1", AB1), AB1)
    assert format_expr(d) == "X1_1' + X1_1"


def test_delta_inverse():
    d = delta(1, 1, parse("inv(X1_1)", AB1), AB1)
    assert format_expr(d) == "-inv(X1_1') * inv(X1_1)"


def test_delta_triple_product():
    ab = Alphabet((3,))
    d = delta(1, 2, parse("X1_1 * X1_2 * X1_3", ab), ab)
    assert format_expr(d) == "X1_1' * X1_3"


def test_delta_other_part_passes_through():
    d = delta(2, 1, parse("X1_1 * X2_1", AB11), AB11)
    assert d == Var(1, 1)


def test_delta_validation():
    with pytest.raises(ValueError):
        delta(1, 3, parse("X1_1", AB1), AB1)
    with pytest.raises(ValueError):
        delta(3, 1, parse("X1_1", AB1), AB1)
    with pytest.raises(ValueError):
        delta(1, 1, parse("X1_1", AB1), AB1.with_primed(1))


def test_prime_part_renames_only_that_part():
    e = parse("X1_1 * X2_1 + inv(X1_2)", AB2)
    p = prime_part(e, 1)
    assert format_expr(p) == "X1_1' * X2_1 + inv(X1_2')"
    with pytest.raises(ValueError):
        prime_part(p, 1)


def test_delta_linearity():
    ext = AB1.with_primed(1)
    e1 = parse("X1_1 * X1_2", AB1)
    e2 = parse("inv(X1_1 + 3)", AB1)
    lhs = delta(1, 1, expr_sum([e1, e2]), AB1)
    rhs = expr_sum([delta(1, 1, e1, AB1), delta(1, 1, e2, AB1)])
    v = equivalent(lhs, rhs, ext, TestConfig(max_level=2, trials_per_level=4))
    assert not isinstance(v, (NonzeroWitness, NowhereDefined))


@pytest.mark.parametrize("t1,t2", [
    ("X1_1", "X1_2"),
    ("X1_1 * X2_1", "inv(X1_2 + 2)"),
    ("inv(X1_1)", "X2_2 * X1_1"),
])
def test_delta_derivation_law(t1, t2):
    ext = AB2.with_primed(1)
    e1, e2 = parse(t1, AB2), parse(t2, AB2)
    lhs = delta(1, 1, expr_product([e1, e2]), AB2)
    rhs = expr_sum([
        expr_product([prime_part(e1, 1), delta(1, 1, e2, AB2)]),
        expr_product([delta(1, 1, e1, AB2), e2]),
    ])
    v = equivalent(lhs, rhs, ext, TestConfig(max_level=2, trials_per_level=4))
    assert not isinstance(v, (NonzeroWitness, NowhereDefined))


def test_delta_well_defined_on_equivalent_pairs():
    ab = Alphabet((2,))
    ext = ab.with_primed(1)
    pairs = [
        ("inv(inv(X1_1 + 2))", "X1_1 + 2"),
        ("inv(X1_1 * X1_2)", "inv(X1_2) * inv(X1_1)"),
    ]
    cfg = TestConfig(max_level=2, trials_per_level=4)
    for t1, t2 in pairs:
        d1 = delta(1, 1, parse(t1, ab), ab)
        d2 = delta(1, 1, parse(t2, ab), ab)
        v = equivalent(d1, d2, ext, cfg)
        assert not isinstance(v, (NonzeroWitness, NowhereDefined))


def test_directional_delta_combines():
    e = parse("X1_1 * X1_2", AB1)
    d = directional_delta(1, (F(2), F(3)), e, AB1)
    # 2*(X1_2) + 3*(X1_1')
    ext = AB1.with_primed(1)
    ref = parse("3 * X1_1' + 2 * X1_2", ext)
    assert isinstance(equivalent(d, ref, ext, TestConfig(max_level=2)), ExactZero)
    with pytest.raises(ValueError):
        directional_delta(1, (F(1),), e, AB1)


def test_directional_delta_along_a_unit_vector_is_delta():
    # one fold builds both, so a unit direction gives the very same node
    exprs = [parse(text, AB2) for text in (
        "X1_1 * X2_1 * X1_2", "inv(X1_1 + X2_2) * X1_1 - 3", "X1_2 * inv(1 + X1_1 * X1_2)")]
    for e in exprs:
        for part in (1, 2):
            for j in (1, 2):
                unit = [int(k == j) for k in (1, 2)]
                assert directional_delta(part, unit, e, AB2) is delta(part, j, e, AB2)


def test_fund_block_point_scalar_case():
    p = fund_block_point(
        (Matrix.of(QQ, [[F(2)]]),), (Matrix.of(QQ, [[F(5)]]),), (F(7),), ()
    )
    assert p.parts[0][0].data == [[F(2), F(7)], [F(0), F(5)]]


def test_fund_block_point_zero_direction_is_block_diagonal():
    rng = random.Random("fbp0")
    ap = rand_matrix(rng, 2)
    a = rand_matrix(rng, 2)
    p = fund_block_point((ap,), (a,), (0,), ())
    b = p.parts[0][0]
    assert b.submatrix(0, 4, 4, 8).is_zero()
    assert b.submatrix(4, 8, 0, 4).is_zero()


def test_fund_block_point_kron_assembly():
    ap = Matrix.of(QQ, [[1, 2], [3, 4]])
    a = Matrix.of(QQ, [[5, 6], [7, 8]])
    p = fund_block_point((ap,), (a,), (1,), ())
    expected = [
        [1, 0, 2, 0, 1, 0, 0, 0],
        [0, 1, 0, 2, 0, 1, 0, 0],
        [3, 0, 4, 0, 0, 0, 1, 0],
        [0, 3, 0, 4, 0, 0, 0, 1],
        [0, 0, 0, 0, 5, 6, 0, 0],
        [0, 0, 0, 0, 7, 8, 0, 0],
        [0, 0, 0, 0, 0, 0, 5, 6],
        [0, 0, 0, 0, 0, 0, 7, 8],
    ]
    assert p.parts[0][0].data == [[F(x) for x in row] for row in expected]


def test_fund_block_point_shape_errors():
    a = Matrix.identity(2)
    with pytest.raises(ValueError):
        fund_block_point((a,), (a, a), (1, 1), ())
    with pytest.raises(ValueError):
        fund_block_point((Matrix.zeros(2, 3),), (a,), (1,), ())


def test_verify_fund_linear():
    ab = Alphabet((1,))
    rng = random.Random("vf-lin")
    ap, a = rand_matrix(rng, 2), rand_matrix(rng, 2)
    e = parse("X1_1", ab)
    assert verify_fund(e, (ap,), (a,), (F(3),), (), ab)
    val = mp_evaluate(e, fund_block_point((ap,), (a,), (F(3),), ()))
    assert val.submatrix(0, 4, 4, 8).data == [
        [F(3) if i == j else F(0) for j in range(4)] for i in range(4)
    ]


def test_verify_fund_square():
    ab = Alphabet((1,))
    rng = random.Random("vf-sq")
    for _ in range(3):
        ap, a = rand_matrix(rng, 2), rand_matrix(rng, 2)
        assert verify_fund(parse("X1_1 * X1_1", ab), (ap,), (a,), (F(1),), (), ab)


def test_verify_fund_inverse():
    ab = Alphabet((1,))
    rng = random.Random("vf-inv")
    for _ in range(3):
        ap, a = rand_invertible(rng, 2), rand_invertible(rng, 2)
        assert verify_fund(parse("inv(X1_1)", ab), (ap,), (a,), (F(2),), (), ab)


def test_verify_fund_rectangular_sizes():
    # m' = 1, m = 2: the two part-1 tuples need not share a size
    ab = Alphabet((1,))
    rng = random.Random("vf-rect")
    ap = rand_invertible(rng, 1)
    a = rand_invertible(rng, 2)
    assert verify_fund(parse("inv(X1_1) * X1_1 + X1_1", ab), (ap,), (a,), (F(1),), (), ab)


@pytest.mark.parametrize("text", [
    "X1_1 * X2_1 - X2_1 * X1_1",
    "inv(X1_1) * X1_2",
    "inv(X1_1 * X2_1 + 2)",
    "X1_1 * inv(X1_1 + X1_2) * X1_2",
])
def test_verify_fund_corpus(text):
    e = parse(text, AB2)
    rng = random.Random("vf-" + text)
    checked = 0
    for _ in range(8):
        ap = tuple(rand_matrix(rng, 2) for _ in range(2))
        a = tuple(rand_matrix(rng, 2) for _ in range(2))
        rest = ((rand_matrix(rng, 2), rand_matrix(rng, 2)),)
        v = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        try:
            assert verify_fund(e, ap, a, v, rest, AB2)
        except UndefinedError:
            continue
        checked += 1
    assert checked >= 2


def test_fund_lower_left_exactly_zero():
    e = parse("inv(X1_1 * X2_1 + 2)", AB2)
    rng = random.Random("vf-ll")
    for _ in range(6):
        ap = tuple(rand_matrix(rng, 2) for _ in range(2))
        a = tuple(rand_matrix(rng, 2) for _ in range(2))
        rest = ((rand_matrix(rng, 2), rand_matrix(rng, 2)),)
        p = fund_block_point(ap, a, (F(1), F(-1)), rest)
        val = mp_evaluate(e, p)
        if isinstance(val, Matrix):
            half = val.rows // 2
            assert val.submatrix(half, 2 * half, 0, half).is_zero()
            return
    pytest.fail("no defined sample found")


def test_verify_fund_undefined_raises():
    ab = Alphabet((1,))
    z = Matrix.zeros(2, 2)
    a = Matrix.identity(2)
    with pytest.raises(UndefinedError):
        verify_fund(parse("inv(X1_1)", ab), (a,), (z,), (F(1),), (), ab)


def test_verify_fund_false_when_the_corner_is_wrong(monkeypatch):
    # a directional delta off by one puts the wrong upper-right block beside
    # the evaluated one
    ab = Alphabet((1,))
    rng = random.Random("vf-false")
    ap, a = rand_matrix(rng, 2), rand_matrix(rng, 2)
    e = parse("X1_1 * X1_1", ab)
    assert verify_fund(e, (ap,), (a,), (F(1),), (), ab)
    right = mprat.calculus.directional_delta
    monkeypatch.setattr(mprat.calculus, "directional_delta",
                        lambda *args: expr_sum([right(*args), Const(F(1))]))
    assert verify_fund(e, (ap,), (a,), (F(1),), (), ab) is False
