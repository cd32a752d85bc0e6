"""Property tests of the expression core, the rational kernel and the builders.

Development-only: skipped when hypothesis is not installed.  Every test is
derandomized, so a run is as deterministic as the rest of the suite.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    l_add,
    l_inv,
    l_kron,
    l_mul,
    l_scalar,
    laplace_det,
    naive_mp_eval,
    naive_nc_eval,
    rand_matrix,
    naive_format,
    rand_mp_point,
    unshare,
)
from mprat.calculus import verify_fund  # noqa: E402
from mprat.evaluation import MpPoint, Undefined, UndefinedError, mp_evaluate  # noqa: E402
from mprat.expression import (  # noqa: E402
    Alphabet,
    _format_roots,
    Const,
    expr_neg,
    expr_product,
    expr_sum,
    format_expr,
    inverse_of,
    parse,
    poly_normal_form,
)
from mprat.identity import (  # noqa: E402
    ExactZero,
    TestConfig,
    _hunt_polynomial_witness,
    is_zero,
)
from mprat.matrix_kernel import (  # noqa: E402
    QQ,
    Matrix,
    block_matrix,
    det,
    inv_det,
    kron,
    solve,
)
from mprat.matrix_rational import (  # noqa: E402
    ExprMatrix,
    NotInvertible,
    PartialUndefined,
    matrix_inverse_expr,
    matrix_mp_evaluate,
    partial_evaluate,
)
from mprat.realization import (  # noqa: E402
    PencilSingular,
    real_domain_contains,
    real_evaluate,
    real_reduce,
    realize,
)

AB = Alphabet((2, 2))
# three slots: part 1 primed (slots 0 and 1), part 2 (slot 2)
AB3 = Alphabet((2, 1), primed_parts={1})
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=150)

consts = st.builds(lambda n, d: Const(Fraction(n, d)), st.integers(-4, 4), st.integers(1, 3))


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


def slot_products(alphabet):
    """Products of one letter from each of two or more distinct slots, the
    slots in any order: on AB3, X1_1' * X2_1 * X1_1 multiplies a value on
    slots {0, 2} by one on slot {1}."""
    slots = alphabet.slots()
    by_slot = [[v for v in alphabet.letters() if (v.part, v.primed) == slot] for slot in slots]
    order = st.lists(st.integers(0, len(slots) - 1), min_size=2, max_size=len(slots), unique=True)
    return order.flatmap(lambda o: st.tuples(*(st.sampled_from(by_slot[i]) for i in o))).map(
        expr_product)


def expressions(alphabet, max_leaves=12):
    letters = st.sampled_from(alphabet.letters())
    # a product of two letters starts out on up to two tensor slots
    pairs = st.lists(letters, min_size=2, max_size=2).map(expr_product)
    leaves = st.one_of(letters, consts, pairs, slot_products(alphabet))
    return st.recursive(leaves, _grow, max_leaves=max_leaves)


exprs = expressions(AB)


@SETTINGS
@hypothesis.given(exprs)
def test_format_parse_format_is_stable(e):
    text = format_expr(e)
    assert format_expr(parse(text, AB)) == text


@SETTINGS
@hypothesis.given(exprs)
def test_structure_alone_decides_identity(e):
    assert unshare(e) is e


@SETTINGS
@hypothesis.given(exprs)
def test_format_of_a_dag_is_the_format_of_its_tree(e):
    assert format_expr(e) == naive_format(e)


@SETTINGS
@hypothesis.given(st.lists(expressions(AB3), min_size=1, max_size=4))
def test_printed_text_needs_no_json_escaping(roots):
    # the command line writes printed text between quotes as it is
    for text in [format_expr(roots[0]), *_format_roots(roots)]:
        assert json.dumps(text) == '"' + text + '"'


# On AB3, values live on slot unions such as {0, 2}, and a product of
# values on {0, 2} and {1} is a Kronecker product with its factors
# reordered.  The reorder moves entries only when slot 1 and slot 0 or 2
# are larger than 1, so such dims come first: the derandomized draw
# favours the first entries of the list.
@pytest.mark.parametrize("alphabet, dims_list", [
    (AB, [(1, 1), (1, 2), (2, 1)]),
    (AB3, [(2, 2, 2), (1, 3, 2), (2, 1, 3), (3, 2, 1)]),
], ids=["AB", "AB3"])
@SETTINGS
@hypothesis.given(st.data(), st.integers(0, 2 ** 32))
def test_mp_evaluate_matches_the_naive_evaluator(alphabet, dims_list, data, seed):
    e = data.draw(expressions(alphabet))
    dims = data.draw(st.sampled_from(dims_list))
    point = rand_mp_point(random.Random(seed), alphabet, dims, bound=3)
    got = mp_evaluate(e, point)
    want = naive_mp_eval(e, point)
    if want is None:
        assert isinstance(got, Undefined)
    else:
        assert not isinstance(got, Undefined)
        assert got.data == want


def _assign(mats):
    return {(v.part, v.index, v.primed): m.data for v, m in zip(AB.letters(), mats)}


@SETTINGS
@hypothesis.given(exprs, st.integers(0, 2 ** 32), st.sampled_from([(1, 1), (1, 2), (2, 1)]))
def test_reduced_realization_matches_the_naive_evaluator(e, seed, sizes):
    # base size m, point size s * m; bases where e is undefined are skipped.
    # The domain test must agree with the evaluation at every drawn point.
    m, s = sizes
    rng = random.Random(seed)
    base = next((b for b in (tuple(rand_matrix(rng, m, 3) for _ in AB.letters())
                             for _ in range(4))
                 if naive_nc_eval(e, _assign(b), m) is not None), None)
    if base is None:
        return
    r = real_reduce(realize(e, AB, base))
    a = tuple(rand_matrix(rng, s * m, 3) for _ in AB.letters())
    want = naive_nc_eval(e, _assign(a), s * m)
    value = real_evaluate(r, a)
    assert real_domain_contains(r, a) == (not isinstance(value, PencilSingular))
    if want is not None:
        assert value.data == want


def _grow_polynomial(inner):
    children = st.lists(inner, min_size=2, max_size=3)
    return st.one_of(children.map(expr_sum), children.map(expr_product), inner.map(expr_neg))


def _commutator(x, y):
    return expr_sum([expr_product([x, y]), expr_neg(expr_product([y, x]))])


# commutators are zero at level 1, and zero outright across parts
polynomials = st.recursive(
    st.one_of(st.sampled_from(AB.letters()), consts,
              st.builds(_commutator, st.sampled_from(AB.letters()), st.sampled_from(AB.letters()))),
    _grow_polynomial, max_leaves=10)


@SETTINGS
@hypothesis.given(polynomials)
def test_inverse_free_zero_test_matches_the_normal_form_first_route(e):
    cfg = TestConfig(max_level=2, trials_per_level=3)
    nf = poly_normal_form(e, AB)
    if not nf:
        want = ExactZero()
    else:
        degree = max(len(word) for mono in nf for word in mono)
        # the oracle hunts from level 1, so it also covers the level-1
        # points that is_zero tries before the normal form
        want = _hunt_polynomial_witness(e, AB, cfg, degree // 2 + 1,
                                        lambda x, trial, a: mp_evaluate(x, a), first_level=1)
    assert is_zero(e, AB, cfg) == want


# zeros and small integers (zero pivots, integral lines) mixed with large
# fractions over unrelated denominators
entries = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6)),
)


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def fractions_only(m):
    return all(type(x) is Fraction for row in m.data for x in row)


@SETTINGS
@hypothesis.given(st.integers(0, 4), st.integers(1, 4), st.integers(0, 4), st.data())
def test_matrix_product_matches_the_reference(n, m, k, data):
    a, b = data.draw(matrices(n, m)), data.draw(matrices(m, k))
    got = Matrix(QQ, a, m) @ Matrix(QQ, b, k)
    assert (got.rows, got.cols) == (n, k)
    assert got.data == l_mul(a, b)
    assert fractions_only(got)


@SETTINGS
@hypothesis.given(st.integers(1, 4), st.booleans(), st.data())
def test_inverse_determinant_and_solve_match_the_reference(n, singular, data):
    rows = data.draw(matrices(n, n))
    if singular:
        # the last row becomes a combination of the others (zero when n = 1)
        c = data.draw(entries)
        rows[-1] = [c * sum(col[:-1], Fraction(0)) for col in zip(*rows)]
    a = Matrix(QQ, rows, n)
    b = data.draw(matrices(n, 2))
    want = l_inv(rows)
    d = det(a)
    assert d == laplace_det(a) and type(d) is Fraction
    if want is None:
        assert d == 0
        assert inv_det(a) is None and solve(a, Matrix(QQ, b, 2)) is None
        return
    inv, d2 = inv_det(a)
    assert inv.data == want and d2 == d
    x = solve(a, Matrix(QQ, b, 2))
    assert x.data == l_mul(want, b)
    assert fractions_only(inv) and fractions_only(x)


def canonical(m):
    """Integer rows of the stated shape over a positive den sharing no
    factor with all of them."""
    ks = [k for row in m.num for k in row]
    return (len(m.num) == m.rows and all(len(row) == m.cols for row in m.num)
            and all(type(k) is int for k in ks) and m.den > 0 and gcd(m.den, *ks) == 1)


def l_product(a, b, cols):
    # l_mul for any inner size, 0 included
    return [[sum((x * row[j] for x, row in zip(ra, b)), Fraction(0)) for j in range(cols)]
            for ra in a]


@SETTINGS
@hypothesis.given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_integer_rows_over_one_denominator_match_the_list_reference(n, m, k, data):
    a_rows, b_rows = data.draw(matrices(n, m)), data.draw(matrices(n, m))
    e_rows, s_rows = data.draw(matrices(m, k)), data.draw(matrices(n, n))
    rhs = data.draw(matrices(n, k))
    c = data.draw(entries)
    r0, r1 = sorted(data.draw(st.integers(0, n)) for _ in range(2))
    c0, c1 = sorted(data.draw(st.integers(0, m)) for _ in range(2))
    a, b, e, s = (Matrix(QQ, a_rows, m), Matrix(QQ, b_rows, m), Matrix(QQ, e_rows, k),
                  Matrix(QQ, s_rows, n))
    ae, be = l_product(a_rows, e_rows, k), l_product(b_rows, e_rows, k)
    results = [
        (a + b, l_add(a_rows, b_rows)),
        (a - b, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a_rows, b_rows)]),
        (-a, [[-x for x in row] for row in a_rows]),
        (a @ e, ae),
        (a.scale(c), [[c * x for x in row] for row in a_rows]),
        (s.add_scalar(c), l_add(s_rows, l_scalar(n, c))),
        (kron(a, e), l_kron(a_rows, e_rows)),
        (block_matrix([[a, a @ e], [b, b @ e]]),
         [ra + rx for ra, rx in zip(a_rows + b_rows, ae + be)]),
        (a.submatrix(r0, r1, c0, c1), [row[c0:c1] for row in a_rows[r0:r1]]),
        (a.transpose(), [list(col) for col in zip(*a_rows)] if n else [[]] * m),
    ]
    d = det(s)
    assert d == laplace_det(s) and type(d) is Fraction
    if n:
        # negating a row negates the determinant: one of the two is negative
        # whenever s is invertible
        flipped = Matrix(QQ, [[-x for x in s_rows[0]]] + s_rows[1:], n)
        assert det(flipped) == -d
    want = l_inv(s_rows)
    if want is None:
        assert d == 0 and inv_det(s) is None and solve(s, Matrix(QQ, rhs, k)) is None
    else:
        inv, d2 = inv_det(s)
        assert d2 == d
        results += [(inv, want), (solve(s, Matrix(QQ, rhs, k)), l_product(want, rhs, k))]
    for got, ref in results:
        assert got.data == ref
        assert canonical(got)
        assert fractions_only(got)
        assert Matrix(QQ, ref, got.cols) == got
    # == compares den and num, so it holds exactly when the values agree
    assert (a + b) - b == a
    assert (a == b) == (a.data == b.data)
    assert (a.scale(c) == a) == (a.data == [[c * x for x in row] for row in a_rows])


# -- the builders against evaluation --------------------------------------------


AB21 = Alphabet((2, 1))
# the pivot searches of the Schur inverses a builder takes
BUILDER_CFG = TestConfig(max_level=2, trials_per_level=3)


@SETTINGS
@hypothesis.given(expressions(AB21), st.sampled_from([(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 1)]),
                  st.integers(0, 2 ** 32))
def test_fund_block_identity_holds_wherever_it_is_defined(e, sizes, seed):
    # sizes (m', m, n) of the two part-1 tuples and of part 2; the corner of
    # the block value is directional_delta's expression at (a', a, rest)
    mp, m, n = sizes
    rng = random.Random(seed)
    a_prime = tuple(rand_matrix(rng, mp, 3) for _ in range(2))
    a = tuple(rand_matrix(rng, m, 3) for _ in range(2))
    v = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2))
    rest = ((rand_matrix(rng, n, 3),),)
    try:
        holds = verify_fund(e, a_prime, a, v, rest, AB21)
    except UndefinedError:
        return
    assert holds is True


@SETTINGS
@hypothesis.given(exprs, st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]), st.integers(0, 2 ** 32))
def test_partial_evaluation_matches_evaluation_at_the_joined_point(e, sizes, seed):
    # d x d part-1 matrices, then n x n part-2 matrices: the blocks of the
    # partial value are the blocks of the full one
    d, n = sizes
    rng = random.Random(seed)
    a1 = tuple(rand_matrix(rng, d, 3) for _ in range(2))
    try:
        s = partial_evaluate(e, AB, a1, BUILDER_CFG)
    except PartialUndefined:
        return
    c = tuple(rand_matrix(rng, n, 3) for _ in range(2))
    part = matrix_mp_evaluate(s, MpPoint(s.alphabet, (c,)))
    full = mp_evaluate(e, MpPoint(AB, (a1, c)))
    if not isinstance(part, Undefined) and not isinstance(full, Undefined):
        assert part == full


@SETTINGS
@hypothesis.given(st.lists(expressions(AB, max_leaves=4), min_size=4, max_size=4),
                  st.integers(0, 2 ** 32))
def test_schur_inverse_times_the_matrix_is_the_identity(entries, seed):
    m = ExprMatrix(AB, (tuple(entries[:2]), tuple(entries[2:])))
    try:
        inv = matrix_inverse_expr(m, BUILDER_CFG).matrix
    except NotInvertible:
        return
    rng = random.Random(seed)
    for dims in [(1, 1), (2, 1), (1, 2)]:
        a = rand_mp_point(rng, AB, dims, bound=3)
        mv, nv = matrix_mp_evaluate(m, a), matrix_mp_evaluate(inv, a)
        if not isinstance(mv, Undefined) and not isinstance(nv, Undefined):
            eye = Matrix.identity(mv.rows)
            assert mv @ nv == eye and nv @ mv == eye
