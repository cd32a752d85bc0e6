"""nc-, mp- and bf-evaluation, the collapse map, and the evaluation laws."""

import random
from fractions import Fraction

import pytest

from helpers import (
    CORPUS_ALPHABET,
    CORPUS_TEXTS,
    assert_defined,
    commuting_nc_point,
    gen_expr,
    naive_mp_eval,
    rand_invertible,
    rand_matrix,
    rand_mp_point,
    rand_nc_point,
    slot_split_matrix,
)
from mprat.evaluation import (
    BfPoint,
    Evaluator,
    MpPoint,
    NcPoint,
    Undefined,
    bf_evaluate,
    check_multipartite_tuple,
    ell_collapse,
    mp_evaluate,
    nc_evaluate,
    tau_point,
    tau_point_of_nc,
)
from mprat.expression import Alphabet, Const, Inverse, Product, Sum, Var, parse
from mprat.matrix_kernel import (
    QQ,
    Matrix,
    PrimeField,
    direct_sum,
    inv_det,
    kron,
    scalar_matrix,
    tau_embed,
)

F = Fraction

AB2 = Alphabet((2, 2))
AB11 = Alphabet((1, 1))

E12 = Matrix.of(QQ, [[0, 1], [0, 0]])
E21 = Matrix.of(QQ, [[0, 0], [1, 0]])
E11 = Matrix.of(QQ, [[1, 0], [0, 0]])


def point11(a, b):
    return MpPoint(AB11, ((a,), (b,)))


# -- point types ----------------------------------------------------------------


def test_point_validation():
    with pytest.raises(ValueError):
        MpPoint(AB11, ((E12,),))
    with pytest.raises(ValueError):
        MpPoint(AB11, ((E12,), (Matrix.of(QQ, [[1, 2, 3]]),)))
    with pytest.raises(ValueError):
        NcPoint(AB11, (E12,))
    assert point11(E12, E21).dims == (2, 2)


def test_tau_point_embeds():
    a = rand_matrix(random.Random("tp-a"), 2)
    b = rand_matrix(random.Random("tp-b"), 3)
    p = MpPoint(AB11, ((a,), (b,)))
    tp = tau_point(p)
    assert tp.n == 6
    assert tp.mats[0] == kron(a, Matrix.identity(3))
    assert tp.mats[1] == kron(Matrix.identity(2), b)


def test_tau_point_single_part_is_identity_map():
    a = rand_matrix(random.Random("tp-1"), 3)
    p = MpPoint(Alphabet((1,)), ((a,),))
    assert tau_point(p).mats[0] == a


def test_tau_point_images_commute():
    rng = random.Random("tp-commute")
    p = rand_mp_point(rng, AB2, (2, 2))
    tp = tau_point(p)
    for i in range(2):
        for j in range(2, 4):
            assert tp.mats[i] @ tp.mats[j] == tp.mats[j] @ tp.mats[i]


# -- nc evaluation ----------------------------------------------------------------


def test_nc_evaluate_const():
    p = NcPoint(AB11, (E12, E21))
    v = nc_evaluate(Const(F(3, 2)), p)
    assert v == scalar_matrix(2, F(3, 2))


def test_nc_evaluate_matrix_units():
    p = NcPoint(Alphabet((2,)), (E12, E21))
    v = nc_evaluate(parse("X1_1 * X1_2", Alphabet((2,))), p)
    assert v == E11


def test_nc_evaluate_undefined_carries_node_and_path():
    e = parse("X1_1 + inv(X1_1)", Alphabet((1,)))
    v = nc_evaluate(e, NcPoint(Alphabet((1,)), (E12,)))
    assert isinstance(v, Undefined)
    assert isinstance(v.subexpr, Inverse)
    assert v.path == (1,)


def test_nc_evaluate_first_failure_wins():
    e = parse("inv(X1_1 - X1_1) + inv(0)", Alphabet((1,)))
    v = nc_evaluate(e, NcPoint(Alphabet((1,)), (E12,)))
    assert isinstance(v, Undefined)
    assert v.path == (0,)


def test_evaluator_shares_memo_across_expressions():
    a = rand_invertible(random.Random("memo"), 2)
    ev = Evaluator(NcPoint(Alphabet((1,)), (a,)))
    e1 = parse("inv(X1_1) * X1_1", Alphabet((1,)))
    e2 = parse("X1_1 * X1_1", Alphabet((1,)))
    assert ev.run(e1) == Matrix.identity(2)
    assert ev.run(e2) == a @ a
    assert len(ev.memo) >= 4


def test_evaluator_reuse_across_temporary_expressions():
    # each parsed expression is dropped after its run, so a memo keyed by
    # id() alone would hand a recycled id the previous expression's value
    ab = Alphabet((1,))
    ev = Evaluator(NcPoint(ab, (Matrix.from_flat(QQ, 1, 1, [2]),)))
    wrong = [k for k in range(200)
             if ev.run(parse(f"X1_1 + {k}", ab)).entry(0, 0) != 2 + k]
    assert wrong == []


def test_reused_evaluator_reports_the_path_from_the_current_root():
    ab = Alphabet((1,))
    ev = Evaluator(NcPoint(ab, (Matrix.zeros(1, 1),)))
    e = parse("1 + inv(X1_1)", ab)
    assert ev.run(e).path == (1,)
    inner = ev.run(e.terms[1])
    assert inner.subexpr is e.terms[1]
    assert inner.path == ()


def test_reused_evaluator_checks_letters_after_memoized_subtrees():
    # letters are validated on a lookup miss and before an Undefined is
    # returned, not by a walk ahead of the evaluation
    ab = Alphabet((1,))
    ev = Evaluator(NcPoint(ab, (rand_invertible(random.Random("memo-bad"), 2),)))
    square = parse("X1_1 * X1_1", ab)
    singular = Inverse(Const(F(0)))
    assert not isinstance(ev.run(square), Undefined)
    assert isinstance(ev.run(singular), Undefined)
    with pytest.raises(ValueError, match="part 1 has 1 letters"):
        ev.run(Sum((square, Var(1, 2))))
    with pytest.raises(ValueError, match="alphabet has 1 parts"):
        ev.run(Product((singular, Var(2, 1))))
    with pytest.raises(ValueError, match="no primed letters"):
        ev.run(Sum((Product((square, singular)), Var(1, 1, primed=True))))
    assert ev.run(Sum((square, Var(1, 1)))) == ev.run(square) + ev.point.mats[0]


def test_one_evaluator_over_shared_expressions_matches_fresh_evaluations():
    # a run skips memoized subtrees whose value is defined; the values, the
    # first Undefined and its path must still be those of a fresh
    # evaluation, also after runs that ended in an Undefined or a bad letter
    ab = Alphabet((2, 1))
    point = MpPoint(ab, ((Matrix.of(QQ, [[1, 2], [3, 4]]), Matrix.identity(2)),
                         (Matrix.of(QQ, [[5]]),)))
    x, y, z = Var(1, 1), Var(1, 2), Var(2, 1)
    s = Sum((x, z))
    inv_s = Inverse(s)
    left = Product((inv_s, x))
    bad = Inverse(Sum((y, Const(F(-1)))))  # X1_2 is I at the point
    exprs = [s, inv_s, left, Sum((left, Product((bad, s)))), bad, Product((s, bad)),
             Sum((s, inv_s)), Product((left, inv_s, s))]
    ev = Evaluator(point)
    for e in exprs:
        got, want = ev.run(e), mp_evaluate(e, point)
        if isinstance(want, Undefined):
            assert isinstance(got, Undefined)
            assert got.subexpr is want.subexpr is bad
            assert got.path == want.path
        else:
            assert got == want
    assert [v.path for v in map(ev.run, exprs) if isinstance(v, Undefined)] == [
        (1, 0), (), (1,)]

    # a failed letter lookup leaves no id behind: the letter fails again on
    # its own, and the ids of the dropped nodes are free for new ones
    stray = Var(1, 3)
    with pytest.raises(ValueError, match="part 1 has 2 letters"):
        ev.run(Sum((s, Product((x, Var(1, 3))))))
    with pytest.raises(ValueError, match="part 1 has 2 letters"):
        ev.run(Product((s, stray)))
    with pytest.raises(ValueError, match="part 1 has 2 letters"):
        ev.run(stray)
    assert isinstance(ev.run(Product((x, Inverse(Sum((y, Const(F(-1)))))))), Undefined)
    assert isinstance(ev.run(bad), Undefined)
    wrong = [k for k in range(200)
             for e in [parse(f"X1_1 * X2_1 + {k} * X1_2", ab)]
             if ev.run(e) != mp_evaluate(e, point)]
    assert wrong == []


def test_nc_evaluate_against_reference():
    rng = random.Random("nc-ref")
    for _ in range(25):
        e = gen_expr(rng, AB2, 3)
        p = rand_mp_point(rng, AB2, (2, 2), bound=4)
        got = mp_evaluate(e, p)
        want = naive_mp_eval(e, p)
        if want is None:
            assert isinstance(got, Undefined)
        else:
            assert not isinstance(got, Undefined)
            assert got.data == want


# -- mp evaluation ----------------------------------------------------------------


def test_mp_cross_part_commutator_vanishes():
    rng = random.Random("mp-comm")
    e = parse("X1_1 * X2_1 - X2_1 * X1_1", AB11)
    for _ in range(5):
        p = rand_mp_point(rng, AB11, (2, 3))
        assert assert_defined(mp_evaluate(e, p)).is_zero()


def test_mp_kron_example():
    p = point11(E12, E12)
    v = assert_defined(mp_evaluate(parse("X1_1 * X2_1", AB11), p))
    assert v == kron(E12, E12)
    assert v.entry(0, 3) == F(1)
    assert sum(1 for x in v.flat() if x != 0) == 1


def test_mp_inverse_of_zero_function_undefined():
    e = parse("inv(X1_1 * X2_1 - X2_1 * X1_1)", AB11)
    p = point11(E12, E21)
    assert isinstance(mp_evaluate(e, p), Undefined)


def test_mp_polynomials_match_reference():
    rng = random.Random("mp-ref")
    e = parse("X1_1 * (X2_1 + 1) * X1_1 - 3 * X2_1", AB11)
    for dims in ((1, 1), (2, 2), (2, 3)):
        p = rand_mp_point(rng, AB11, dims)
        assert assert_defined(mp_evaluate(e, p)).data == naive_mp_eval(e, p)


def test_direct_sum_law_first_part():
    rng = random.Random("dsum-1")
    e = parse("inv(X1_1 + X2_1) * X1_1", AB11)
    for _ in range(6):
        a1 = rand_matrix(rng, 2)
        a2 = rand_matrix(rng, 3)
        b = rand_matrix(rng, 2)
        v1 = mp_evaluate(e, point11(a1, b))
        v2 = mp_evaluate(e, point11(a2, b))
        if isinstance(v1, Undefined) or isinstance(v2, Undefined):
            continue
        combined = mp_evaluate(e, point11(direct_sum(a1, a2), b))
        assert assert_defined(combined) == direct_sum(v1, v2)


def test_direct_sum_law_second_part_with_shuffle():
    rng = random.Random("dsum-2")
    e = parse("X1_1 * inv(X1_1 + X2_1)", AB11)
    hits = 0
    while hits < 6:
        a = rand_matrix(rng, 2)
        b1 = rand_matrix(rng, 2)
        b2 = rand_matrix(rng, 2)
        v1 = mp_evaluate(e, point11(a, b1))
        v2 = mp_evaluate(e, point11(a, b2))
        if isinstance(v1, Undefined) or isinstance(v2, Undefined):
            continue
        combined = mp_evaluate(e, point11(a, direct_sum(b1, b2)))
        if isinstance(combined, Undefined):
            continue
        s = slot_split_matrix((2, 4), 1, 2, 2)
        assert s @ combined @ s.transpose() == direct_sum(v1, v2)
        hits += 1


def test_similarity_law():
    rng = random.Random("similar")
    e = parse("inv(X1_1 + X2_1 * X2_1)", AB11)
    hits = 0
    while hits < 6:
        p = rand_mp_point(rng, AB11, (2, 2))
        v = mp_evaluate(e, p)
        if isinstance(v, Undefined):
            continue
        qs = [rand_invertible(rng, 2), rand_invertible(rng, 2)]
        qinvs = [inv_det(q)[0] for q in qs]
        conj = MpPoint(AB11, tuple(
            tuple(q @ m @ qi for m in mats)
            for q, qi, mats in zip(qs, qinvs, p.parts)))
        w = assert_defined(mp_evaluate(e, conj))
        assert w == kron(qs[0], qs[1]) @ v @ kron(qinvs[0], qinvs[1])
        hits += 1


def test_multipartite_tuple_check():
    assert not check_multipartite_tuple(NcPoint(AB11, (E12, E21)))
    scal = NcPoint(AB11, (scalar_matrix(2, F(3)), scalar_matrix(2, F(-1))))
    assert check_multipartite_tuple(scal)
    p = rand_mp_point(random.Random("vmt"), AB2, (2, 2))
    assert check_multipartite_tuple(tau_point(p))


def test_collapse_identity():
    assert ell_collapse(Matrix.identity(8), 2, 3) == Matrix.identity(2)
    assert ell_collapse(Matrix.identity(9), 3, 2) == Matrix.identity(3)


def test_collapse_kron_is_product():
    rng = random.Random("lc-kron")
    for _ in range(8):
        a = rand_matrix(rng, 2)
        b = rand_matrix(rng, 2)
        assert ell_collapse(kron(a, b), 2, 2) == a @ b


def test_collapse_shape_errors():
    with pytest.raises(ValueError):
        ell_collapse(Matrix.identity(6), 2, 2)


def test_collapse_intertwines_polynomials():
    rng = random.Random("lc-poly")
    for n in (2, 3):
        for _ in range(6):
            b = commuting_nc_point(rng, AB2, n)
            q = gen_expr(rng, AB2, 3, allow_inverse=False)
            lhs = ell_collapse(assert_defined(nc_evaluate(q, tau_point_of_nc(b))),
                               n, len(AB2.slots()))
            rhs = assert_defined(nc_evaluate(q, b))
            assert lhs == rhs


# -- bf evaluation ----------------------------------------------------------------


def rand_bf_point(rng, g, n, bound=6):
    mk = lambda: tuple(rand_matrix(rng, n, bound) for _ in range(g))
    return BfPoint(g, n, mk(), mk(), mk(), mk())


def test_bf_disjoint_indices_commute():
    rng = random.Random("bf-comm")
    ab = Alphabet((2, 2))
    e = parse("X1_1 * X2_2 - X2_2 * X1_1", ab)
    for _ in range(4):
        p = rand_bf_point(rng, 2, 2)
        assert assert_defined(bf_evaluate(e, p)).is_zero()


def test_bf_scalar_case():
    p = BfPoint(1, 1,
                (Matrix.of(QQ, [[3]]),), (Matrix.of(QQ, [[5]]),),
                (Matrix.of(QQ, [[7]]),), (Matrix.of(QQ, [[2]]),))
    ab = Alphabet((1, 1))
    assert assert_defined(bf_evaluate(parse("X1_1", ab), p)) == Matrix.of(QQ, [[15]])
    assert assert_defined(bf_evaluate(parse("X2_1", ab), p)) == Matrix.of(QQ, [[14]])


def test_bf_same_index_does_not_commute():
    rng = random.Random("bf-noncomm")
    ab = Alphabet((1, 1))
    e = parse("X1_1 * X2_1 - X2_1 * X1_1", ab)
    found = False
    for _ in range(6):
        p = rand_bf_point(rng, 1, 2)
        if not assert_defined(bf_evaluate(e, p)).is_zero():
            found = True
            break
    assert found


@pytest.mark.parametrize("field", [QQ, PrimeField(97)], ids=["QQ", "GF97"])
@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bf_letters_are_the_products_of_their_two_embeddings(n, g, field):
    # bf_evaluate places each letter as one Kronecker product; by definition
    # it is the product of the embeddings of its outer and inner matrices
    rng = random.Random(f"bf-letters-{n}-{g}")

    def mats():
        return tuple(Matrix.of(field, [[F(rng.randint(-6, 6), rng.randint(1, 3))
                                        for _ in range(n)] for _ in range(n)])
                     for _ in range(g))
    p = BfPoint(g, n, mats(), mats(), mats(), mats())
    dims = (n,) * (g + 2)
    for i in range(g):
        x = tau_embed(1, p.a_outer[i], dims) @ tau_embed(2 + i, p.a_inner[i], dims)
        y = tau_embed(2 + i, p.b_inner[i], dims) @ tau_embed(g + 2, p.b_outer[i], dims)
        assert bf_evaluate(Var(1, i + 1), p) == x
        assert bf_evaluate(Var(2, i + 1), p) == y


def test_bf_rejects_letters_outside_its_alphabet():
    rng = random.Random("bf-bad-letter")
    p = rand_bf_point(rng, 2, 1)
    with pytest.raises(ValueError, match="part 1 has 2 letters"):
        bf_evaluate(Var(1, 3), p)
    with pytest.raises(ValueError, match="alphabet has 2 parts"):
        bf_evaluate(Product((Inverse(Const(Fraction(0))), Var(3, 1))), p)
    with pytest.raises(ValueError, match="part 2 has no primed letters"):
        bf_evaluate(Var(2, 1, primed=True), p)


def test_bf_result_size():
    rng = random.Random("bf-size")
    p = rand_bf_point(rng, 2, 2)
    v = assert_defined(bf_evaluate(parse("X1_1 + X2_2", Alphabet((2, 2))), p))
    assert v.rows == 2 ** 4


@pytest.mark.parametrize("text", CORPUS_TEXTS)
def test_rational_value_reduces_to_the_prime_field_value(text):
    # Defined mod p means every inverse had a p-unit determinant, so the
    # rational value exists and reduces entrywise to the mod-p value.
    gf = PrimeField()
    e = parse(text, CORPUS_ALPHABET)
    rng = random.Random(f"qq-gf {text}")
    defined = 0
    for dims in ((2, 2), (2, 2), (1, 3), (3, 1)):
        point = rand_mp_point(rng, CORPUS_ALPHABET, dims, bound=5)
        mod_p = MpPoint(CORPUS_ALPHABET, tuple(tuple(Matrix.of(gf, m.data) for m in mats)
                                                for mats in point.parts))
        got = mp_evaluate(e, mod_p)
        if isinstance(got, Undefined):
            continue
        want = assert_defined(mp_evaluate(e, point))
        assert got == Matrix.of(gf, want.data)
        defined += 1
    assert defined


# -- constants applied as scalars ---------------------------------------------------


X, Y = Var(1, 1), Var(2, 1)
SHARED = Const(F(3))


def c(v):
    return Const(F(v))


SCALAR_CASES = {
    "constants multiply to one": Product((c(2), X, c(F(1, 2)))),
    "zero times a letter": Product((c(0), X)),
    "constants cancel in a sum": Sum((c(1), X, c(-1))),
    "sum of constants": Sum((c(2), c(F(-1, 3)))),
    "product of constants": Product((c(-2), c(F(1, 3)))),
    "constant root": c(F(5, 2)),
    "constant under an inverse": Product((Inverse(c(4)), Y)),
    "shared constant": Sum((Product((SHARED, X, Y)), SHARED, Product((Y, SHARED)))),
    "scalars around a product": Sum((c(2), Product((c(3), X, Y, c(-1))), c(F(1, 2)))),
    # letter-free inner nodes, which the builders fold away
    "letter-free sum as a factor": Product((Sum((c(2), c(3))), X)),
    "letter-free product as a term": Sum((Product((c(2), c(-1))), X)),
    "inverse of a letter-free sum": Product((Inverse(Sum((c(2), c(1)))), Y)),
}


@pytest.mark.parametrize("field", [QQ, PrimeField(97)], ids=["QQ", "GF97"])
@pytest.mark.parametrize("dims", [(2, 2), (1, 3), (0, 2)])
@pytest.mark.parametrize("name", list(SCALAR_CASES))
def test_scalar_folding_matches_the_naive_evaluator(name, dims, field):
    e = SCALAR_CASES[name]
    point = rand_mp_point(random.Random(f"fold {name} {dims}"), AB11, dims, bound=6)
    want = naive_mp_eval(e, point)
    in_field = MpPoint(AB11, tuple(tuple(Matrix.of(field, m.data) for m in mats)
                                   for mats in point.parts))
    got = assert_defined(mp_evaluate(e, in_field))
    assert got == Matrix.of(field, want, got.cols)


@pytest.mark.parametrize("field", [QQ, PrimeField(97)], ids=["QQ", "GF97"])
def test_inverse_of_cancelling_constants_is_undefined_at_the_root(field):
    e = Inverse(Sum((c(1), c(-1))))
    point = MpPoint(AB11, ((Matrix.identity(2, field),), (Matrix.identity(3, field),)))
    v = mp_evaluate(e, point)
    assert isinstance(v, Undefined)
    assert v.subexpr is e and v.path == ()
    # at a 0x0 point every matrix is invertible, this one included
    empty = MpPoint(AB11, ((Matrix.zeros(0, 0, field),), (Matrix.identity(2, field),)))
    assert mp_evaluate(e, empty) == Matrix.zeros(0, 0, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(97)], ids=["QQ", "GF97"])
def test_inverse_of_a_singular_letter_is_undefined_unless_a_slot_is_empty(field):
    # I_k (x) M is singular exactly when M is singular and k > 0
    e = Inverse(Var(1, 1))
    zero = Matrix.zeros(2, 2, field)
    empty = MpPoint(AB11, ((zero,), (Matrix.zeros(0, 0, field),)))
    assert mp_evaluate(e, empty) == Matrix.zeros(0, 0, field)
    one = MpPoint(AB11, ((zero,), (Matrix.identity(1, field),)))
    v = mp_evaluate(e, one)
    assert isinstance(v, Undefined)
    assert v.subexpr is e and v.path == ()


# part 1 primed (slot 0) and plain (slot 1), part 2 (slot 2): values on the
# slots {0, 2} meet values on {1}, so Kronecker factors must be reordered,
# and are placed into {0, 1, 2} at the non-adjacent positions 0 and 2
AB3 = Alphabet((2, 1), primed_parts={1})
MIXED_SLOT_TEXTS = [
    "(X1_1' * X2_1) * X1_1",
    "X1_1' * X2_1 + X1_1 * X1_2",
    "X1_2 * (X1_1' + X2_1) * X1_1'",
    "inv(X1_1' * X2_1 + 2) * X1_2 - X1_2 * inv(X1_1' * X2_1 + 2)",
    "inv(X1_1 * X1_2' + X2_1) * (X1_1' + X1_1) + X1_2'",
]


@pytest.mark.parametrize("dims", [(2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 2, 2)])
@pytest.mark.parametrize("text", MIXED_SLOT_TEXTS)
def test_mixed_slot_values_match_the_naive_evaluator(text, dims):
    e = parse(text, AB3)
    point = rand_mp_point(random.Random(f"mixed {text} {dims}"), AB3, dims, bound=5)
    want = naive_mp_eval(e, point)
    got = mp_evaluate(e, point)
    if want is None:
        assert isinstance(got, Undefined)
    else:
        assert assert_defined(got).data == want


@pytest.mark.parametrize("field", [QQ, PrimeField(97)], ids=["QQ", "GF97"])
def test_letter_free_values_are_memoized_as_field_elements(field):
    a = Matrix.of(field, rand_invertible(random.Random("memo-const"), 2).data)
    ev = Evaluator(NcPoint(Alphabet((1,)), (a,)))
    const, total = c(F(2, 3)), Sum((c(3), c(-1)))
    for node, value in ((const, field.of(F(2, 3))), (total, field.of(2))):
        assert ev.run(node) == scalar_matrix(2, value, field)
        assert ev.memo[id(node)][1] == value
