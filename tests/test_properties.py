"""Property tests of the expression core on generated expressions.

Development-only: skipped when hypothesis is not installed.  Every test is
derandomized, so a run is as deterministic as the rest of the suite.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st  # noqa: E402

from helpers import naive_mp_eval, rand_mp_point  # noqa: E402
from mprat.evaluation import Undefined, mp_evaluate  # noqa: E402
from mprat.expression import (  # noqa: E402
    Alphabet,
    Const,
    expr_neg,
    expr_product,
    expr_sum,
    format_expr,
    inverse_of,
    parse,
)

AB = Alphabet((2, 2))
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=150)

leaves = st.one_of(
    st.sampled_from(AB.letters()),
    st.builds(lambda n, d: Const(Fraction(n, d)), st.integers(-4, 4), st.integers(1, 3)),
)


def _grow(inner):
    children = st.lists(inner, min_size=2, max_size=3)
    return st.one_of(
        children.map(expr_sum),
        children.map(expr_product),
        inner.map(expr_neg),
        inner.map(inverse_of),
        # one subtree under two parents: exercises the shared-node paths
        inner.map(lambda e: expr_product([e, expr_sum([e, Const(Fraction(1))])])),
    )


exprs = st.recursive(leaves, _grow, max_leaves=12)


@SETTINGS
@hypothesis.given(exprs)
def test_format_parse_format_is_stable(e):
    text = format_expr(e)
    assert format_expr(parse(text, AB)) == text


@SETTINGS
@hypothesis.given(exprs, st.integers(0, 2 ** 32), st.sampled_from([(1, 1), (1, 2), (2, 1)]))
def test_mp_evaluate_matches_the_naive_evaluator(e, seed, dims):
    point = rand_mp_point(random.Random(seed), AB, dims, bound=3)
    got = mp_evaluate(e, point)
    want = naive_mp_eval(e, point)
    if want is None:
        assert isinstance(got, Undefined)
    else:
        assert not isinstance(got, Undefined)
        assert got.data == want
