"""nc-, mp- and bf-evaluation, the collapse map, and the evaluation laws."""

import random
from fractions import Fraction
from math import prod

import pytest

from helpers import (
    CORPUS_ALPHABET,
    CORPUS_TEXTS,
    assert_defined,
    commuting_nc_point,
    corpus,
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
    _Deferred,
    bf_evaluate,
    check_multipartite_tuple,
    ell_collapse,
    mp_evaluate,
    nc_evaluate,
    tau_point,
    tau_point_of_nc,
)
from mprat.expression import Alphabet, Const, Inverse, Product, Sum, Var, _path_to, parse, walk
from mprat.identity import TestConfig, sample_point
from mprat.matrix_kernel import (
    MERSENNE61,
    QQ,
    Matrix,
    _det_mod,
    _det_nonzero,
    det,
    direct_sum,
    inv_det,
    kron,
    scalar_matrix,
    solve,
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


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bf_letters_are_the_products_of_their_two_embeddings(n, g):
    # bf_evaluate places each letter as one Kronecker product; by definition
    # it is the product of the embeddings of its outer and inner matrices
    rng = random.Random(f"bf-letters-{n}-{g}")

    def mats():
        return tuple(Matrix.of(QQ, [[F(rng.randint(-6, 6), rng.randint(1, 3))
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
def test_corpus_values_pass_the_mod_p_screen_like_their_exact_determinant(text):
    # det(num) = den^n * det(value) is an integer, so its residue mod p is
    # the determinant of the residues of the integer rows; a zero residue
    # must fall back to the exact determinant
    e = parse(text, CORPUS_ALPHABET)
    rng = random.Random(f"mod-p screen {text}")
    defined = 0
    for dims in ((2, 2), (2, 2), (1, 3), (3, 1)):
        got = mp_evaluate(e, rand_mp_point(rng, CORPUS_ALPHABET, dims, bound=5))
        if isinstance(got, Undefined):
            continue
        rows = got.data
        # the value itself, and a copy made singular by repeating its first row
        for m in (got, Matrix(QQ, rows[:1] + rows[:-1], got.cols)):
            exact = det(m)
            assert _det_nonzero(m) is (exact != 0)
            assert _det_mod(m.num, MERSENNE61) == det(Matrix(QQ, m.num, m.cols)) % MERSENNE61
        defined += 1
    assert defined


# -- letter-free values: the 1x1 matrix on no slots ---------------------------------


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


@pytest.mark.parametrize("dims", [(2, 2), (1, 3), (0, 2), (3, 1), (2, 0), (1, 1)])
@pytest.mark.parametrize("name", list(SCALAR_CASES))
def test_scalar_folding_matches_the_naive_evaluator(name, dims):
    e = SCALAR_CASES[name]
    point = rand_mp_point(random.Random(f"fold {name} {dims}"), AB11, dims, bound=6)
    want = naive_mp_eval(e, point)
    got = assert_defined(mp_evaluate(e, point))
    assert got == Matrix.of(QQ, want, got.cols)


ZERO_CONSTANTS = {
    "one minus one": Sum((c(1), c(-1))),
    "fractions cancel": Sum((c(F(2, 3)), c(F(-2, 3)))),
    "three terms cancel": Sum((c(3), c(-1), c(-2))),
    "zero factor": Product((c(0), c(5))),
    "zero": c(0),
}


@pytest.mark.parametrize("name", list(ZERO_CONSTANTS))
def test_inverse_of_cancelling_constants_is_undefined_at_the_root(name):
    e = Inverse(ZERO_CONSTANTS[name])
    point = MpPoint(AB11, ((Matrix.identity(2),), (Matrix.identity(3),)))
    v = mp_evaluate(e, point)
    assert isinstance(v, Undefined)
    assert v.subexpr is e and v.path == ()
    # at a 0x0 point every matrix is invertible, this one included
    empty = MpPoint(AB11, ((Matrix.zeros(0, 0),), (Matrix.identity(2),)))
    assert mp_evaluate(e, empty) == Matrix.zeros(0, 0)


@pytest.mark.parametrize("rows", [[[0, 0], [0, 0]], [[1, 2], [2, 4]], [[0, 1], [0, 0]]],
                         ids=["zero", "rank-one", "nilpotent"])
def test_inverse_of_a_singular_letter_is_undefined_unless_a_slot_is_empty(rows):
    # I_k (x) M is singular exactly when M is singular and k > 0
    e = Inverse(Var(1, 1))
    zero = Matrix.of(QQ, rows)
    empty = MpPoint(AB11, ((zero,), (Matrix.zeros(0, 0),)))
    assert mp_evaluate(e, empty) == Matrix.zeros(0, 0)
    one = MpPoint(AB11, ((zero,), (Matrix.identity(1),)))
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


LETTER_FREE = {
    "constant": (c(F(2, 3)), F(2, 3)),
    "sum": (Sum((c(3), c(-1))), F(2)),
    "product": (Product((c(-2), c(F(1, 4)))), F(-1, 2)),
    "nested": (Sum((Product((c(2), c(3))), c(F(-1, 2)))), F(11, 2)),
    "inverse": (Inverse(Sum((c(1), c(3)))), F(1, 4)),
    "product with an inverse": (Product((c(2), Inverse(c(4)))), F(1, 2)),
}


@pytest.mark.parametrize("name", list(LETTER_FREE))
def test_letter_free_values_are_memoized_as_1x1_matrices_on_no_slots(name):
    a = rand_invertible(random.Random("memo-const"), 2)
    ev = Evaluator(NcPoint(Alphabet((1,)), (a,)))
    node, value = LETTER_FREE[name]
    assert ev.run(node) == scalar_matrix(2, value)
    assert ev.memo[node] == ((), Matrix.of(QQ, [[value]]))


def _assert_memo_is_slot_local(ev):
    # a deferred inverse stays memoized only once a solve has shown it defined
    for v in ev.memo.values():
        assert type(v) is tuple and len(v) == 2
        slots, m = v
        if type(m) is _Deferred:
            assert m.checked
            m = m.a
        assert type(m) is Matrix
        assert list(slots) == sorted(set(slots))
        assert m.rows == m.cols == prod(ev.dims[s] for s in slots)


@pytest.mark.parametrize("dims", [(2, 3), (0, 2)])
def test_every_memo_value_is_a_matrix_on_its_sorted_slots(dims):
    rng = random.Random(f"one kind {dims}")
    for e in SCALAR_CASES.values():
        ev = Evaluator(rand_mp_point(rng, AB11, dims, bound=6))
        assert isinstance(ev.run(e), Matrix)
        _assert_memo_is_slot_local(ev)
    for e in corpus():
        ev = Evaluator(rand_mp_point(rng, CORPUS_ALPHABET, dims, bound=6))
        ev.run(e)
        _assert_memo_is_slot_local(ev)


# -- the inverse of a sum holding an inverse --------------------------------------

# above CLOSED_FORM_MAX rows, inv(t + inv(q)) is taken as q inv(t q + 1);
# entries in [-1, 1] or [-2, 2] make some points singular
PUSH_THROUGH_TEXTS = [
    "inv(inv(X1_1) + inv(inv(X2_1) - X1_1))",
    "inv(2 + inv(X1_1*X2_1))",
    "inv(X2_1 + inv(X1_1))",
    "inv(X1_1 + inv(X2_1) + inv(X1_1*X2_1 + 1))",
    "inv(1 + inv(1 + inv(X1_1 + X2_1)))",
    "inv(inv(X1_1) + inv(X1_1) + X2_1)",
    "inv(inv(X1_1 + X2_1) + inv(X1_1 + X2_1))",
]


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (1, 4), (3, 3)])
@pytest.mark.parametrize("text", PUSH_THROUGH_TEXTS)
def test_inverse_of_a_sum_with_an_inverse_matches_the_naive_evaluator(text, dims):
    e = parse(text, AB11)
    rng = random.Random(f"push-through {text} {dims}")
    defined = 0
    for i in range(8):
        point = rand_mp_point(rng, AB11, dims, bound=1 + i % 2)
        want = naive_mp_eval(e, point)
        got = mp_evaluate(e, point)
        if want is None:
            assert isinstance(got, Undefined)
        else:
            assert assert_defined(got).data == want
            defined += 1
    assert defined


def test_inverse_of_a_sum_with_an_inverse_names_the_failing_inverse():
    e = parse("inv(X2_1 + inv(X1_1))", AB11)
    eye = Matrix.identity(2)
    # X1_1 is invertible and X1_1 + I is not, so I + inv(X1_1) is singular
    v = mp_evaluate(e, point11(Matrix.of(QQ, [[-1, 1], [0, 2]]), eye))
    assert isinstance(v, Undefined)
    assert v.subexpr is e and v.path == ()
    v = mp_evaluate(e, point11(E12, eye))
    assert isinstance(v, Undefined)
    assert v.subexpr is Inverse(Var(1, 1)) and v.path == (0, 1)


def test_hua_inverse_of_a_sum_eliminates_no_large_denominator(monkeypatch):
    # the outer inverse of Hua's left side at level 4 is 16x16; inverting
    # the sum itself eliminates entries over a denominator of over 100 bits.
    # Every elimination the evaluator runs, through inv_det or solve, is
    # recorded by its coefficient matrix.
    e = parse("inv(inv(X1_1) + inv(inv(X2_1) - X1_1))", AB11)
    point = sample_point(AB11, (4, 4), TestConfig(), 0)
    seen = []

    def recording_inv_det(m):
        seen.append(m)
        return inv_det(m)

    def recording_solve(a, b):
        seen.append(a)
        return solve(a, b)

    monkeypatch.setattr("mprat.evaluation.inv_det", recording_inv_det)
    monkeypatch.setattr("mprat.evaluation.solve", recording_solve)
    value = assert_defined(mp_evaluate(e, point))
    assert value.data == naive_mp_eval(e, point)
    assert max(m.rows for m in seen) == 16
    assert max(m.den.bit_length() for m in seen) <= 40


# -- deferred inverses ----------------------------------------------------------------

# x and y are on both slots, so 4x4 or larger at every dims below: inv(x)
# is deferred, and a product of it with y or x is one solve
DEFERRED_TEXTS = [t.format(x="(X1_1*X2_1 + X2_1)", y="(X1_1 - X2_1*X2_1)") for t in [
    "inv({x})*{y}",
    "{y}*inv({x})",
    "inv({x})*{x}",
    "inv({x})*{y}*inv({x})",
    "inv(inv({x}))",
]]


def _first_singular_inverse(e, point):
    # the first Inverse in walk order that the naive evaluator finds undefined
    return next(k for k in walk(e) if isinstance(k, Inverse) and naive_mp_eval(k, point) is None)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (1, 4)])
@pytest.mark.parametrize("text", DEFERRED_TEXTS)
def test_deferred_inverses_match_the_naive_evaluator(text, dims):
    e = parse(text, AB11)
    rng = random.Random(f"deferred {text} {dims}")
    undefined = []
    for i in range(10):
        point = rand_mp_point(rng, AB11, dims, bound=1 + i % 2)
        want = naive_mp_eval(e, point)
        got = mp_evaluate(e, point)
        if want is None:
            bad = _first_singular_inverse(e, point)
            assert isinstance(got, Undefined)
            assert got.subexpr is bad and got.path == _path_to(e, bad)
        else:
            assert assert_defined(got).data == want
        undefined.append(want is None)
    assert any(undefined) and not all(undefined)


# X2_1 is singular, so the 4x4 X1_1*X2_1 is too
WALK_ORDER_POINT = point11(Matrix.of(QQ, [[1, 2], [3, 5]]), Matrix.of(QQ, [[1, 1], [1, 1]]))


def test_a_deferred_singular_inverse_is_reported_ahead_of_a_later_eager_one():
    # inv(X2_1) is 2x2, inverted where it is met and found singular first;
    # the deferred inv(X1_1*X2_1) comes first in walk order, and is reported
    deferred = parse("inv(X1_1*X2_1)", AB11)
    e = parse("inv(X1_1*X2_1) * (X1_1*X2_1 + inv(X2_1))", AB11)
    v = mp_evaluate(e, WALK_ORDER_POINT)
    assert isinstance(v, Undefined)
    assert v.subexpr is deferred and v.path == (0,)
    # here the product forms the deferred inverse before inv(X2_1) is met
    e = parse("inv(X1_1*X2_1)*X1_1 + inv(X2_1)", AB11)
    v = mp_evaluate(e, WALK_ORDER_POINT)
    assert isinstance(v, Undefined)
    assert v.subexpr is deferred and v.path == (0, 0)


@pytest.mark.parametrize("x2", [[[1, 1], [1, 1]], [[1, 1], [0, 2]]],
                         ids=["deferred singular", "deferred invertible"])
def test_a_reused_evaluator_after_an_undefined_matches_fresh_evaluations(x2):
    # the first run ends in an Undefined while inv(X1_1*X2_1) is deferred;
    # the later runs share that node.  At the second point only
    # inv(X2_1 - 1) is singular.
    point = point11(Matrix.of(QQ, [[1, 2], [3, 5]]), Matrix.of(QQ, x2))
    texts = ["inv(X1_1*X2_1) * (X1_1*X2_1 + inv(X2_1 - 1))",
             "(X1_1*X2_1 + X1_1) * inv(X1_1*X2_1)",
             "inv(X1_1*X2_1) * (X1_1 - X2_1)",
             "X1_1 + inv(X1_1*X2_1) * X2_1",
             "inv(X1_1*X2_1) + X2_1",
             "X1_1*X2_1 + X1_1"]
    ev = Evaluator(point)
    got = []
    for text in texts:
        e = parse(text, AB11)
        v, want = ev.run(e), Evaluator(point).run(e)
        if isinstance(want, Undefined):
            assert isinstance(v, Undefined)
            assert (v.subexpr, v.path) == (want.subexpr, want.path)
        else:
            assert v == want
        _assert_memo_is_slot_local(ev)
        got.append(v.path if isinstance(v, Undefined) else None)
    assert got == ([(0,), (1,), (0,), (1, 0), (0,), None] if x2[1][0]
                   else [(1, 1), None, None, None, None, None])
