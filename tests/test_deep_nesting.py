"""Every expression transform answers input nested deeper than the
interpreter's recursion limit.

The limit is lowered for these tests so that they stay quick: realize costs
a number of matrix products quadratic in the depth.
"""

import sys
from fractions import Fraction

import pytest

from mprat.calculus import delta, prime_part
from mprat.evaluation import MpPoint, Undefined, mp_evaluate
from mprat.expression import (
    Alphabet,
    Const,
    Inverse,
    Product,
    Sum,
    Var,
    format_expr,
    parse,
    poly_normal_form,
    validate_vars,
)
from mprat.identity import NonzeroWitness, ProbablyZeroUpTo, TestConfig, equivalent, is_zero
from mprat.matrix_kernel import QQ, Matrix
from mprat.matrix_rational import partial_evaluate
from mprat.realization import realize

F = Fraction
LIMIT = 250
N = LIMIT + 101  # odd: the chain below is 1 / (X1_1 + 1)
AB = Alphabet((1,))
AB2 = Alphabet((1, 1))


@pytest.fixture(autouse=True)
def low_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def chain(inner: str) -> str:
    return "inv(" * N + inner + ")" * N


def ladder(inner: str) -> str:
    # 1 + 2 * (1 + 2 * ( ... inner)): sums and products alternate, 2N deep
    return "1 + 2 * (" * N + inner + ")" * N


def scalar(x) -> Matrix:
    return Matrix.of(QQ, [[x]])


def f(x):
    return 1 / F(x + 1)


def check_parse():
    text = chain("X1_1 + 1")
    assert format_expr(parse(text, AB)) == text


def check_eq_and_hash():
    a, b = parse(chain("X1_1 + 1"), AB), parse(chain("X1_1 + 1"), AB)
    c = parse(chain("X1_1 + 2"), AB)
    assert a == b and hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2


def check_eq_and_hash_on_shared_subtrees():
    # N doublings: 2^N leaves as a tree, N + 1 nodes as a DAG
    def doubled(leaf):
        e = leaf
        for _ in range(N):
            e = Sum((e, e))
        return e
    a, b = doubled(Var(1, 1)), doubled(Var(1, 1))
    assert a == b and hash(a) == hash(b)
    assert a != doubled(Var(1, 2))


def check_format_expr():
    e = Sum((Var(1, 1), Const(F(1))))
    for _ in range(N):
        e = Inverse(e)
    assert format_expr(e) == chain("X1_1 + 1")


def check_format_expr_with_sharing():
    # one X1_1 + 1 node at every level, and the root twice at the top
    s = Sum((Var(1, 1), Const(F(1))))
    e, text = s, "(X1_1 + 1)"
    for _ in range(N):
        e, text = Inverse(Product((e, s))), f"inv({text} * (X1_1 + 1))"
    assert format_expr(Product((e, e))) == f"{text} * {text}"


def check_repr():
    # the dataclass text; an undefined inverse at the root carries it whole
    x = "Inverse(arg=" * N + ("Sum(terms=(Var(part=1, index=1, primed=False), "
                              "Const(value=Fraction(1, 1))))") + ")" * N
    e = parse(f"inv({chain('X1_1 + 1')} - {chain('X1_1 + 1')})", AB)
    u = mp_evaluate(e, MpPoint(AB, ((scalar(2),),)))
    assert isinstance(u, Undefined) and u.path == ()
    assert repr(u) == (f"Undefined(subexpr=Inverse(arg=Sum(terms=({x}, Product(factors=("
                       f"Const(value=Fraction(-1, 1)), {x}))))), path=())")


def check_validate_vars():
    validate_vars(parse(chain("X1_1 + 1"), AB), AB)
    with pytest.raises(ValueError):
        validate_vars(parse(chain("X1_2"), Alphabet((2,))), AB)


def check_mp_evaluate():
    value = mp_evaluate(parse(chain("X1_1 + 1"), AB), MpPoint(AB, ((scalar(2),),)))
    assert value == scalar(f(2))


def check_is_zero():
    verdict = is_zero(parse(chain("X1_1 + 1"), AB), AB)
    assert isinstance(verdict, NonzeroWitness)
    assert verdict.value == scalar(f(verdict.point.parts[0][0].entry(0, 0)))


def check_equivalent():
    cfg = TestConfig(max_level=2, trials_per_level=2)
    e = parse(chain("X1_1 + 1"), AB)
    assert isinstance(equivalent(e, e, AB, cfg), ProbablyZeroUpTo)


def check_delta():
    # at commuting 1x1 letters delta is the difference quotient
    d = delta(1, 1, parse(chain("X1_1 + 1"), AB), AB)
    point = MpPoint(AB.with_primed(1), ((scalar(2),), (scalar(5),)))
    assert mp_evaluate(d, point) == scalar((f(2) - f(5)) / (2 - 5))


def check_prime_part():
    e = prime_part(parse(chain("X1_1 + 1"), AB), 1)
    assert format_expr(e) == chain("X1_1' + 1")


def check_poly_normal_form():
    nf = poly_normal_form(parse(ladder("X1_1"), AB), AB)
    assert nf == {((),): 2 ** N - 1, ((1,),): 2 ** N}


def check_partial_evaluate():
    m = partial_evaluate(parse(ladder("X1_1 + X2_1"), AB2), AB2, [scalar(3)])
    assert format_expr(m.entries[0][0]) == ladder("3 + X1_1")


def check_realize():
    # the pencil argument vanishes at the base point, so the value there is c . b
    r = realize(parse(ladder("X1_1"), AB), AB, [scalar(2)])
    value = sum((c @ b for c, b in zip(r.c, r.b)), Matrix.zeros(1, 1))
    assert value == scalar(2 ** N - 1 + 2 ** N * 2)


@pytest.mark.parametrize("check", [
    check_parse, check_eq_and_hash, check_eq_and_hash_on_shared_subtrees,
    check_format_expr, check_format_expr_with_sharing, check_repr,
    check_validate_vars, check_mp_evaluate, check_is_zero, check_equivalent,
    check_delta, check_prime_part, check_poly_normal_form,
    check_partial_evaluate, check_realize,
], ids=lambda c: c.__name__.removeprefix("check_"))
def test_deeper_than_the_recursion_limit(check):
    assert N > sys.getrecursionlimit()
    check()
