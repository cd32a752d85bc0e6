"""Linear-pencil realizations: construction, evaluation, domain, reduction."""

import random
from fractions import Fraction

import pytest

from helpers import CORPUS_ALPHABET, corpus, rand_invertible, rand_matrix
from mprat.evaluation import MpPoint, NcPoint, Undefined, nc_evaluate, mp_evaluate, tau_point
from mprat.expression import Alphabet, Const, Inverse, Product, Sum, Var, parse
from mprat.matrix_kernel import QQ, Matrix, inv_det, scalar_matrix
from mprat.realization import (
    BasePointOutsideDomain,
    PencilSingular,
    Realization,
    real_domain_contains,
    real_evaluate,
    real_reduce,
    realize,
)

F = Fraction

AB1 = Alphabet((2,))


def rand_base(rng, alphabet, m, invertible=False, bound=10):
    gen = rand_invertible if invertible else rand_matrix
    return tuple(gen(rng, m, bound) for _ in alphabet.letters())


def test_const_realization():
    rng = random.Random("re-const")
    p = rand_base(rng, AB1, 2)
    r = realize(Const(F(5)), AB1, p)
    assert r.dim == 1 and r.rho == 0
    for s in (1, 2):
        a = [rand_matrix(rng, 2 * s) for _ in range(2)]
        assert real_evaluate(r, a) == scalar_matrix(2 * s, F(5))
        assert real_domain_contains(r, a)


def test_letter_realization():
    rng = random.Random("re-letter")
    p = rand_base(rng, AB1, 2)
    r = realize(parse("X1_1", AB1), AB1, p)
    assert r.dim == 2
    for _ in range(10):
        a = [rand_matrix(rng, 2), rand_matrix(rng, 2)]
        assert real_evaluate(r, a) == a[0]


def test_base_point_in_domain_and_exact_value():
    rng = random.Random("re-base")
    for e in corpus():
        for attempt in range(8):
            p = rand_base(rng, CORPUS_ALPHABET, 2)
            val = nc_evaluate(e, NcPoint(CORPUS_ALPHABET, p))
            if isinstance(val, Matrix):
                r = realize(e, CORPUS_ALPHABET, p)
                assert real_domain_contains(r, p)
                assert real_evaluate(r, p) == val
                break
        else:
            pytest.fail("no valid base point found")


def test_base_point_outside_domain():
    p = (Matrix.zeros(2, 2), Matrix.identity(2))
    with pytest.raises(BasePointOutsideDomain) as exc:
        realize(parse("inv(X1_1)", AB1), AB1, p)
    assert exc.value.undefined.path == ()


@pytest.mark.parametrize("m", [1, 2])
def test_realize_is_undefined_exactly_where_nc_evaluate_is(m):
    # entries in {-1, 0, 1}: many base points make some inverse singular
    rng = random.Random(f"re-domain {m}")
    seen = {True: 0, False: 0}
    for e in corpus():
        for _ in range(6):
            p = rand_base(rng, CORPUS_ALPHABET, m, bound=1)
            val = nc_evaluate(e, NcPoint(CORPUS_ALPHABET, p))
            seen[isinstance(val, Undefined)] += 1
            if isinstance(val, Undefined):
                with pytest.raises(BasePointOutsideDomain) as exc:
                    realize(e, CORPUS_ALPHABET, p)
                assert exc.value.undefined == val
                assert exc.value.undefined.subexpr is val.subexpr
            else:
                assert real_evaluate(realize(e, CORPUS_ALPHABET, p), p) == val
    assert seen[True] >= 10 and seen[False] >= 10


def test_realize_rejects_letters_and_points_that_do_not_fit():
    zero, eye = Matrix.zeros(1, 1), Matrix.identity(1)
    bad_letter = (Var(1, 3), Sum((Inverse(Var(1, 1)), Var(1, 3))))
    for e in bad_letter:
        # a letter outside the alphabet is reported even after a singular inverse
        with pytest.raises(ValueError) as exc:
            realize(e, AB1, (zero, eye))
        assert not isinstance(exc.value, BasePointOutsideDomain)
    with pytest.raises(ValueError) as exc:
        realize(parse("X1_1", AB1), AB1, (eye,))
    assert not isinstance(exc.value, BasePointOutsideDomain)


@pytest.mark.parametrize("m", [1, 2])
def test_no_stored_block_is_zero(m):
    # couplings that cancel must be dropped, not kept as zero blocks
    rng = random.Random(f"re-nonzero {m}")
    checked = 0
    for e in corpus():
        for bound in (1, 3, 10):
            try:
                r = realize(e, CORPUS_ALPHABET, rand_base(rng, CORPUS_ALPHABET, m, bound=bound))
            except BasePointOutsideDomain:
                continue
            for real in (r, real_reduce(r)):
                assert not any(mat.is_zero() for mat in real.C.values())
                checked += 1
    assert checked >= 80


def test_inverse_of_a_letter_free_sum():
    # the builders fold Sum((2, 3)) away; the raw constructors keep it, so
    # the inverse takes its base value from a realization of constants
    rng = random.Random("re-inv-const")
    e = Product((Inverse(Sum((Const(F(2)), Const(F(3))))), Var(1, 1)))
    p = rand_base(rng, AB1, 2)
    r = realize(e, AB1, p)
    for s in (1, 2):
        a = [rand_matrix(rng, 2 * s) for _ in range(2)]
        assert real_evaluate(r, a) == nc_evaluate(e, NcPoint(AB1, tuple(a)))


def test_inverse_of_cancelling_constants_is_outside_the_domain():
    p = rand_base(random.Random("re-inv-zero"), AB1, 2)
    with pytest.raises(BasePointOutsideDomain) as exc:
        realize(Inverse(Sum((Const(F(1)), Const(F(-1))))), AB1, p)
    assert exc.value.undefined.path == ()


def test_inverse_realization():
    rng = random.Random("re-inv")
    p = rand_base(rng, AB1, 2, invertible=True)
    r = realize(parse("inv(X1_1)", AB1), AB1, p)
    hits = 0
    for _ in range(10):
        a1 = rand_matrix(rng, 2)
        a = [a1, rand_matrix(rng, 2)]
        res = inv_det(a1)
        if res is None:
            assert not real_domain_contains(r, a)
            assert isinstance(real_evaluate(r, a), PencilSingular)
        else:
            assert real_evaluate(r, a) == res[0]
            hits += 1
    assert hits >= 5
    singular = [Matrix.zeros(2, 2), rand_matrix(rng, 2)]
    assert not real_domain_contains(r, singular)


def test_product_with_constant():
    ab = AB1
    rng = random.Random("re-prod")
    e = parse("X1_1 * X1_2 + 1", ab)
    p = rand_base(rng, ab, 2)
    r = realize(e, ab, p)
    for _ in range(5):
        a = [rand_matrix(rng, 4), rand_matrix(rng, 4)]
        assert real_evaluate(r, a) == nc_evaluate(e, NcPoint(ab, tuple(a)))


def test_size_must_be_multiple():
    rng = random.Random("re-mult")
    p = rand_base(rng, AB1, 2)
    r = realize(parse("X1_1", AB1), AB1, p)
    with pytest.raises(ValueError):
        real_evaluate(r, [rand_matrix(rng, 3), rand_matrix(rng, 3)])


def test_corpus_agreement_both_sizes():
    rng = random.Random("re-corpus")
    for e in corpus():
        r = None
        for attempt in range(10):
            p = rand_base(rng, CORPUS_ALPHABET, 1)
            try:
                r = realize(e, CORPUS_ALPHABET, p)
                break
            except BasePointOutsideDomain:
                continue
        assert r is not None, "no base point"
        for s in (1, 2):
            for _ in range(4):
                a = tuple(rand_matrix(rng, s, bound=4) for _ in range(4))
                val = nc_evaluate(e, NcPoint(CORPUS_ALPHABET, a))
                if isinstance(val, Matrix):
                    assert real_domain_contains(r, a)
                    assert real_evaluate(r, a) == val


def test_mp_bridge():
    rng = random.Random("re-mp")
    ab = Alphabet((1, 1))
    e = parse("inv(X1_1 * X2_1 + 2) + X1_1", ab)
    r = None
    for attempt in range(10):
        p = rand_base(rng, ab, 1)
        try:
            r = realize(e, ab, p)
            break
        except BasePointOutsideDomain:
            continue
    for _ in range(6):
        a = MpPoint(ab, ((rand_matrix(rng, 2),), (rand_matrix(rng, 3),)))
        val = mp_evaluate(e, a)
        if isinstance(val, Matrix):
            assert real_evaluate(r, tau_point(a).mats) == val


def test_reduce_constant_unchanged():
    rng = random.Random("re-red1")
    p = rand_base(rng, AB1, 2)
    r = realize(Const(F(5)), AB1, p)
    assert real_reduce(r) is r


def test_reduce_zero_constant_to_dim_zero():
    rng = random.Random("re-red0")
    p = rand_base(rng, AB1, 2)
    r = real_reduce(realize(Const(F(0)), AB1, p))
    assert r.dim == 0
    assert real_evaluate(r, p) == Matrix.zeros(2, 2)
    assert real_domain_contains(r, p)


def test_dim_zero_realization_still_checks_the_point():
    base = (Matrix.of(QQ, [[2]]), Matrix.of(QQ, [[3]]))
    r = real_reduce(realize(Const(F(0)), AB1, base))
    assert r.dim == 0
    mismatched = [Matrix.of(QQ, [[1]]), Matrix.identity(2)]
    with pytest.raises(ValueError):
        real_evaluate(r, mismatched)
    with pytest.raises(ValueError):
        real_domain_contains(r, mismatched)
    assert real_domain_contains(r, [Matrix.of(QQ, [[1]]), Matrix.of(QQ, [[5]])])


def test_reduce_strips_explicit_padding():
    rng = random.Random("re-pad")
    ab = AB1
    e = parse("X1_1 * X1_2 + 3", ab)
    p = rand_base(rng, ab, 2)
    r = realize(e, ab, p)
    n = r.dim
    padded = Realization(
        r.m, r.p, n + 1,
        r.c + (Matrix.zeros(2, 2),),
        r.b + (Matrix.identity(2),),
        r.letters | {n: 1},
        r.C | {(n, n): rand_matrix(rng, 2)},
    )
    reduced = real_reduce(padded)
    assert reduced.dim < padded.dim
    for _ in range(5):
        a = [rand_matrix(rng, 2), rand_matrix(rng, 2)]
        v1 = real_evaluate(padded, a)
        v2 = real_evaluate(reduced, a)
        if isinstance(v1, Matrix):
            assert v1 == v2
    assert real_evaluate(padded, p) == real_evaluate(reduced, p) == nc_evaluate(e, NcPoint(ab, p))


def test_reduce_sum_of_same_letter():
    rng = random.Random("re-zz")
    p = rand_base(rng, AB1, 2)
    r = realize(parse("X1_1 + X1_1", AB1), AB1, p)
    reduced = real_reduce(r)
    assert reduced.dim <= r.dim
    for _ in range(5):
        a = [rand_matrix(rng, 2), rand_matrix(rng, 2)]
        assert real_evaluate(reduced, a) == (a[0] + a[0])


def test_reduce_monotone_and_idempotent_on_corpus():
    rng = random.Random("re-idem")
    for e in corpus():
        r = None
        for attempt in range(10):
            p = rand_base(rng, CORPUS_ALPHABET, 1)
            try:
                r = realize(e, CORPUS_ALPHABET, p)
                break
            except BasePointOutsideDomain:
                continue
        assert r is not None
        r1 = real_reduce(r)
        assert r1.dim <= r.dim
        assert real_reduce(r1) is r1
        for _ in range(3):
            a = tuple(rand_matrix(rng, 2, bound=4) for _ in range(4))
            v0 = real_evaluate(r, a)
            if isinstance(v0, Matrix):
                assert real_evaluate(r1, a) == v0


def test_realization_validation():
    eye = Matrix.identity(2)
    Realization(2, (eye,), 1, (eye,), (eye,), {0: 1}, {(0, 0): eye})
    with pytest.raises(ValueError):
        Realization(2, (eye,), 1, (eye,), (eye, eye), {}, {})
    # letter out of range
    with pytest.raises(ValueError):
        Realization(2, (eye,), 1, (eye,), (eye,), {0: 2}, {(0, 0): eye})
    # block column out of range
    with pytest.raises(ValueError):
        Realization(2, (eye,), 1, (eye,), (eye,), {0: 1}, {(0, 1): eye})
    # block row out of range
    with pytest.raises(ValueError):
        Realization(2, (eye,), 1, (eye,), (eye,), {0: 1}, {(1, 0): eye})
    # block in a column that carries no letter
    with pytest.raises(ValueError):
        Realization(2, (eye,), 2, (eye, eye), (eye, eye), {0: 1}, {(0, 1): eye})
    # letter coordinate at or beyond dim
    with pytest.raises(ValueError):
        Realization(2, (eye,), 1, (eye,), (eye,), {1: 1}, {})
