"""Every library input check raises its own error type with its own message.

One row per check that the rest of the suite does not reach: the call, the
exception type and a fragment of its message.
"""

from fractions import Fraction

import pytest

from mprat.calculus import directional_delta, fund_block_point, verify_fund
from mprat.evaluation import BfPoint, MpPoint, NcPoint, ell_collapse
from mprat.expression import (
    Alphabet,
    ExprSyntaxError,
    Product,
    Sum,
    Var,
    _path_to,
    parse,
)
from mprat.identity import TestConfig, sample_point
from mprat.matrix_kernel import QQ, Matrix, inv_det, permute_kron_factors, solve
from mprat.matrix_rational import ExprMatrix, partial_evaluate
from mprat.realization import Realization, real_evaluate, realize

AB = Alphabet((1,))
AB2 = Alphabet((1, 1))
X = Var(1, 1)
I1, I2 = Matrix.identity(1), Matrix.identity(2)
WIDE = Matrix.zeros(1, 2)

CHECKS = {
    "fund a not square": (lambda: fund_block_point((I1,), (WIDE,), (1,), ()),
                          ValueError, "a matrices must be square of one size"),
    "verify_fund shape": (lambda: verify_fund(X, (I1,), (I1, I1), (1, 1), (), AB),
                          ValueError, "point shape does not match alphabet"),
    "mp part size": (lambda: MpPoint(Alphabet((2,)), ((I1,),)),
                     ValueError, "part 1 needs 2 matrices"),
    "nc unequal sizes": (lambda: NcPoint(Alphabet((2,)), (I1, I2)),
                         ValueError, "all matrices must be 1x1"),
    "bf count": (lambda: BfPoint(1, 1, (), (I1,), (I1,), (I1,)),
                 ValueError, "a_outer needs 1 matrices"),
    "bf size": (lambda: BfPoint(1, 1, (I2,), (I1,), (I1,), (I1,)),
                ValueError, "a_outer: matrices must be 1x1"),
    "bf no letters": (lambda: BfPoint(0, 1, (), (), (), ()),
                      ValueError, "g must be at least 1 (got 0)"),
    "directional part 0": (lambda: directional_delta(0, (1,), X, Alphabet((2,))),
                           ValueError, "part 0 out of range"),
    "directional part 2": (lambda: directional_delta(2, (1,), X, Alphabet((2,))),
                           ValueError, "part 2 out of range"),
    "ell_collapse n": (lambda: ell_collapse(I1, 0, 1), ValueError, "need n ≥ 1 and g ≥ 1"),
    "primed part": (lambda: Alphabet((1,), {2}), ValueError, "primed part out of range"),
    "one-term sum": (lambda: Sum((X,)), ValueError, "Sum needs at least two terms"),
    "one-factor product": (lambda: Product((X,)),
                           ValueError, "Product needs at least two factors"),
    "path to a stranger": (lambda: _path_to(X, Var(1, 2)),
                           ValueError, "target is not a node of root"),
    "unexpected character": (lambda: parse("X1_1 $", AB),
                             ExprSyntaxError, "unexpected character '$'"),
    "inv without paren": (lambda: parse("inv X1_1", AB),
                          ExprSyntaxError, "expected '(', got 'X1_1'"),
    "sample dims": (lambda: sample_point(AB, (1, 2), TestConfig(), 0),
                    ValueError, "expected 1 dims, got 2"),
    "from_flat count": (lambda: Matrix.from_flat(QQ, 2, 2, [Fraction(1)]),
                        ValueError, "expected 4 entries, got 1"),
    "add a number": (lambda: I1 + 1, TypeError, "expected Matrix, got int"),
    "matrix hash": (lambda: hash(I1), TypeError, "Matrix is not hashable"),
    "permute size": (lambda: permute_kron_factors(I1, (2, 1), (2, 2)),
                     ValueError, "matrix is 1x1, dims imply 4"),
    "solve wide": (lambda: solve(WIDE, I1),
                   ValueError, "solve needs a square coefficient matrix"),
    "solve rows": (lambda: solve(I1, Matrix.zeros(2, 1)),
                   ValueError, "right-hand side has wrong number of rows"),
    "inverse wide": (lambda: inv_det(WIDE), ValueError, "inverse of a non-square matrix"),
    "empty expression matrix": (lambda: ExprMatrix(AB, ()),
                                ValueError, "matrix must have at least one row"),
    "partial primed": (lambda: partial_evaluate(X, AB2.with_primed(1), (I1,)),
                       ValueError, "partial evaluation expects an unprimed alphabet"),
    "partial not square": (lambda: partial_evaluate(X, AB2, (WIDE,)),
                           ValueError, "part-1 matrices must be square of one size"),
    "realization no letter": (lambda: Realization(1, (), 0, (), (), {}, {}),
                              ValueError, "need at least one letter"),
    "realization p block": (lambda: Realization(1, (I2,), 0, (), (), {}, {}),
                            ValueError, "blocks must be 1x1"),
    "realization C block": (lambda: Realization(1, (I1,), 1, (I1,), (I1,), {0: 1},
                                                {(0, 0): I2}),
                            ValueError, "blocks must be 1x1"),
    "real_evaluate count": (lambda: real_evaluate(realize(X, AB, (I1,)), ()),
                            ValueError, "expected 1 point matrices, got 0"),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_input_check_raises(name):
    call, error, fragment = CHECKS[name]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert fragment in str(exc.value)
