"""Expression matrices: invertibility, Schur inversion, partial evaluation."""

import random
from fractions import Fraction

import pytest

import mprat.matrix_rational
from helpers import rand_invertible, rand_matrix
from mprat.cli import main
from mprat.evaluation import MpPoint, mp_evaluate
from mprat.expression import Alphabet, Const, Inverse, Sum, Var, format_expr, parse
from mprat.identity import NonzeroWitness, TestConfig, is_zero, sample_point
from mprat.matrix_kernel import Matrix, det, inv_det
from mprat.matrix_rational import (
    ExprMatrix,
    InvertibleWitness,
    NotInvertible,
    PartialUndefined,
    ProbablyNotInvertible,
    matrix_inverse_expr,
    matrix_invertible,
    matrix_mp_evaluate,
    partial_evaluate,
)

F = Fraction

AB1 = Alphabet((2,))
AB11 = Alphabet((1, 1))
AB2 = Alphabet((2, 2))

CFG = TestConfig(max_level=2, trials_per_level=4)


def em(alphabet, rows):
    return ExprMatrix(alphabet, tuple(tuple(parse(t, alphabet) for t in row) for row in rows))


def test_expr_matrix_validation():
    with pytest.raises(ValueError):
        em(AB1, [["X1_1", "X1_2"]])
    with pytest.raises(ValueError):
        em(AB1, [["X1_1", "X3_1"], ["0", "0"]])


def test_expr_matrix_names_the_row_major_first_bad_entry():
    # all entries are checked in one walk; a shared subtree is walked once
    x, shared = Var(1, 1), parse("X1_1 * X1_2 + 1", AB1)
    few_parts, big_index = Var(3, 1), Var(1, 3)
    for first, second, message in [(few_parts, big_index, "alphabet has 1 parts"),
                                   (big_index, few_parts, "part 1 has 2 letters")]:
        rows = ((shared, Sum((shared, first))), (second, Sum((x, shared))))
        with pytest.raises(ValueError, match=message):
            ExprMatrix(AB1, rows)
        rows = ((shared, x), (Sum((shared, first)), second))
        with pytest.raises(ValueError, match=message):
            ExprMatrix(AB1, rows)


def test_mat_inv_bad_entries_message_and_exit_code(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"entries": [["X1_1", "X1_3"], ["X2_1", "1"]]}')
    assert main(["mat-inv", "--alphabet", "1:2", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path} entry (0,1): syntax error at column 0: "
                            "index out of range: part 1 has 2 letters\n")


def test_matrix_mp_evaluate_blocks():
    m = em(AB1, [["X1_1", "1"], ["0", "X1_2"]])
    rng = random.Random("mm-eval")
    a = MpPoint(AB1, ((rand_matrix(rng, 2), rand_matrix(rng, 2)),))
    val = matrix_mp_evaluate(m, a)
    assert val.submatrix(0, 2, 0, 2) == a.parts[0][0]
    assert val.submatrix(0, 2, 2, 4) == Matrix.identity(2)
    assert val.submatrix(2, 4, 0, 2).is_zero()
    assert val.submatrix(2, 4, 2, 4) == a.parts[0][1]


def test_matrix_mp_evaluate_undefined():
    m = em(AB1, [["inv(X1_1 * X1_2 - X1_2 * X1_1)"]])
    a = MpPoint(AB1, ((Matrix.identity(1), Matrix.identity(1)),))
    from mprat.evaluation import Undefined
    assert isinstance(matrix_mp_evaluate(m, a), Undefined)


def test_invertible_diagonal():
    m = em(AB1, [["X1_1", "0"], ["0", "X1_1"]])
    v = matrix_invertible(m, CFG)
    assert isinstance(v, InvertibleWitness)
    assert det(matrix_mp_evaluate(m, v.point)) != 0


def test_not_invertible_identical_rows():
    m = em(AB1, [["X1_1", "X1_2"], ["X1_1", "X1_2"]])
    v = matrix_invertible(m, CFG)
    assert v == ProbablyNotInvertible(2, 4)


def test_invertible_triangular():
    m = em(AB1, [["X1_1", "1"], ["0", "X1_1"]])
    assert isinstance(matrix_invertible(m, CFG), InvertibleWitness)


def test_inverse_diagonal():
    m = em(AB1, [["X1_1", "0"], ["0", "X1_1"]])
    res = matrix_inverse_expr(m, CFG)
    x = Var(1, 1)
    assert res.matrix.entries == ((Inverse(x), Const(F(0))), (Const(F(0)), Inverse(x)))


def test_inverse_triangular_shape():
    m = em(AB1, [["X1_1", "1"], ["0", "X1_1"]])
    res = matrix_inverse_expr(m, CFG)
    n = res.matrix.entries
    assert n[0][0] == Inverse(Var(1, 1))
    assert format_expr(n[0][1]) == "-inv(X1_1) * inv(X1_1)"
    assert n[1][0] == Const(F(0))
    assert n[1][1] == Inverse(Var(1, 1))


def test_inverse_1x1():
    m = em(AB11, [["X1_1 * X2_1"]])
    res = matrix_inverse_expr(m, CFG)
    assert res.matrix.entries == ((Inverse(parse("X1_1 * X2_1", AB11)),),)


def test_inverse_needs_pivoting():
    # zero corner forces a permutation step
    m = em(AB1, [["0", "X1_1"], ["X1_2", "0"]])
    res = matrix_inverse_expr(m, CFG)
    n = res.matrix.entries
    assert n[0][0] == Const(F(0))
    assert n[0][1] == Inverse(Var(1, 2))
    assert n[1][0] == Inverse(Var(1, 1))
    assert n[1][1] == Const(F(0))


def test_inverse_round_trip_products():
    rng = random.Random("schur-rt")
    mats = [
        em(AB1, [["X1_1", "X1_2"], ["X1_2", "X1_1"]]),
        em(AB2, [["X1_1 + X2_1", "1"], ["X1_2", "X2_2"]]),
        em(AB1, [["inv(X1_1)", "0"], ["X1_2", "X1_1 + 2"]]),
    ]
    for m in mats:
        res = matrix_inverse_expr(m, CFG)
        n = res.matrix
        slots = len(m.alphabet.slots())
        checked = 0
        for _ in range(12):
            size = rng.choice((1, 2))
            a = MpPoint(m.alphabet, tuple(
                tuple(rand_matrix(rng, size, bound=4) for _ in range(m.alphabet.size_of(pt)))
                for pt, _pr in m.alphabet.slots()
            ))
            mv = matrix_mp_evaluate(m, a)
            nv = matrix_mp_evaluate(n, a)
            if isinstance(mv, Matrix) and isinstance(nv, Matrix):
                eye = Matrix.identity(m.d * size ** slots)
                assert mv @ nv == eye
                assert nv @ mv == eye
                checked += 1
        assert checked >= 3


def test_pivot_log_witnesses_verify():
    m = em(AB1, [["0", "X1_1"], ["X1_2", "0"]])
    res = matrix_inverse_expr(m, CFG)
    assert len(res.pivots) == 2
    first = res.pivots[0]
    assert (first.depth, first.row, first.col) == (0, 0, 1)
    # depth-0 records point at original entries, so the certificate replays
    assert mp_evaluate(m.entries[0][1], first.witness.point) == first.witness.value
    for rec in res.pivots:
        assert isinstance(rec.witness, NonzeroWitness)
        assert not rec.witness.value.is_zero()


def _pivot_log(res):
    return [(r.depth, r.row, r.col, r.witness.level, r.witness.trial, r.witness.value)
            for r in res.pivots]


def test_shared_pivot_evaluators_choose_the_pivots_of_public_is_zero(monkeypatch):
    # the reference tests every candidate entry through public is_zero, with
    # a fresh evaluator per trial
    rng = random.Random("pivots")
    cases = []
    for d in (3, 4):
        rows = [[f"{rng.randint(2, 9)}*X1_1 + {rng.randint(2, 9)}*X1_2 + {rng.randint(2, 9)}"
                 for _ in range(d)] for _ in range(d)]
        cases.append((em(AB1, rows), TestConfig(seed=d)))
    # rows 0 and 1 agree in their first two columns: the first Schur entry
    # is zero, and only a full sampled scan says so
    ab = Alphabet((2, 1))
    cases.append((em(ab, [["X1_1", "X2_1", "1"], ["X1_1", "X2_1", "3"],
                          ["X1_2", "2", "X1_1"]]), TestConfig(seed=5)))
    # an entry undefined at the first sample point and one zero at every
    # 1x1 point: verdicts come from later trials and levels
    cfg = TestConfig(seed=7)
    v = sample_point(AB1, (1,), cfg, 0).parts[0][0].entry(0, 0)
    cases.append((em(AB1, [[f"inv(X1_1 - {v})", "X1_1 * X1_2 - X1_2 * X1_1"], ["1", "0"]]),
                  cfg))
    shared = [matrix_inverse_expr(m, cfg) for m, cfg in cases]
    with monkeypatch.context() as mp:
        mp.setattr(mprat.matrix_rational, "_zero_test",
                   lambda e, alphabet, cfg, evaluate: is_zero(e, alphabet, cfg))
        reference = [matrix_inverse_expr(m, cfg) for m, cfg in cases]
    for got, want in zip(shared, reference):
        assert _pivot_log(got) == _pivot_log(want)
        assert [r.witness.point for r in got.pivots] == [r.witness.point for r in want.pivots]
        assert got.matrix == want.matrix
    assert [r.depth for r in shared[2].pivots] == [0, 1, 2]
    assert shared[2].pivots[1].col == 1  # (0, 0) of the complement was skipped
    assert [(r.witness.level, r.witness.trial) for r in shared[3].pivots] == [(1, 1), (2, 0)]
    singular = em(AB1, [["X1_1", "X1_2"], ["2 * X1_1", "2 * X1_2"]])
    with pytest.raises(NotInvertible, match="depth 1"):
        matrix_inverse_expr(singular, CFG)


def test_generic_pivot_search_builds_one_evaluator(monkeypatch):
    # every pivot test is decided by the first 1x1 sample point: the
    # depth-0 entry is a polynomial nonzero there, and a nonzero 1x1 value
    # of a deeper entry is nonsingular
    built = []

    class CountingEvaluator(mprat.matrix_rational.Evaluator):
        def __init__(self, point):
            built.append(point.dims)
            super().__init__(point)

    monkeypatch.setattr(mprat.matrix_rational, "Evaluator", CountingEvaluator)
    m = em(AB1, [["2*X1_1 + 3*X1_2 + 5", "7*X1_1 + 2*X1_2 + 3", "4*X1_1 + 9*X1_2 + 2"],
                 ["3*X1_1 + 8*X1_2 + 6", "5*X1_1 + 4*X1_2 + 9", "6*X1_1 + 2*X1_2 + 7"],
                 ["9*X1_1 + 5*X1_2 + 4", "2*X1_1 + 6*X1_2 + 8", "8*X1_1 + 3*X1_2 + 5"]])
    res = matrix_inverse_expr(m)
    assert [(r.depth, r.witness.level, r.witness.trial) for r in res.pivots] == [
        (0, 1, 0), (1, 1, 0), (2, 1, 0)]
    assert built == [(1,)]


def test_not_invertible_raises():
    m = em(AB1, [["X1_1", "X1_1"], ["X1_1", "X1_1"]])
    with pytest.raises(NotInvertible):
        matrix_inverse_expr(m, CFG)


def test_partial_product_expands_blocks():
    e = parse("X1_1 * X2_1", AB11)
    rng = random.Random("pe-prod")
    a1 = rand_matrix(rng, 2)
    s = partial_evaluate(e, AB11, (a1,), CFG)
    assert s.alphabet == Alphabet((1,))
    for i in range(2):
        for j in range(2):
            c = a1.entry(i, j)
            want = Const(F(0)) if c == 0 else parse(f"{c} * X1_1", s.alphabet)
            assert s.entries[i][j] == want


def test_partial_independent_of_part_1():
    e = parse("X2_1 * X2_2 + 3", AB2)
    rng = random.Random("pe-id")
    a1 = (rand_matrix(rng, 3), rand_matrix(rng, 3))
    s = partial_evaluate(e, AB2, a1, CFG)
    expected = parse("X1_1 * X1_2 + 3", s.alphabet)
    for i in range(3):
        for j in range(3):
            assert s.entries[i][j] == (expected if i == j else Const(F(0)))


def test_partial_inverse_is_constant_matrix():
    e = parse("inv(X1_1)", AB11)
    rng = random.Random("pe-inv")
    a1 = rand_invertible(rng, 2)
    s = partial_evaluate(e, AB11, (a1,), CFG)
    expect = inv_det(a1)[0]
    for i in range(2):
        for j in range(2):
            assert s.entries[i][j] == Const(expect.entry(i, j))


def test_partial_undefined():
    e = parse("inv(X1_1)", AB11)
    with pytest.raises(PartialUndefined):
        partial_evaluate(e, AB11, (Matrix.zeros(2, 2),), CFG)


def test_partial_agreement_with_full_evaluation():
    rng = random.Random("pe-agree")
    texts = [
        "X1_1 * X2_1 - X2_1 * X1_1",
        "inv(X1_1 + X2_1 + 5)",
        "X2_2 * inv(X1_1 * X1_1 + 1) * X2_1",
    ]
    for text in texts:
        e = parse(text, AB2)
        s = None
        for _ in range(6):
            a1 = tuple(rand_matrix(rng, 2, bound=3) for _ in range(2))
            try:
                s = partial_evaluate(e, AB2, a1, CFG)
                break
            except PartialUndefined:
                continue
        assert s is not None
        checked = 0
        for _ in range(10):
            c = tuple(rand_matrix(rng, 2, bound=3) for _ in range(2))
            full = mp_evaluate(e, MpPoint(AB2, (a1, c)))
            part = matrix_mp_evaluate(s, MpPoint(s.alphabet, (c,)))
            if isinstance(full, Matrix) and isinstance(part, Matrix):
                assert full == part
                checked += 1
        assert checked >= 3


def test_partial_validation():
    with pytest.raises(ValueError):
        partial_evaluate(parse("X1_1", AB1), AB1, (Matrix.identity(2), Matrix.identity(2)))
    with pytest.raises(ValueError):
        partial_evaluate(parse("X1_1", AB11), AB11, (Matrix.identity(2), Matrix.identity(2)))
