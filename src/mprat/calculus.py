"""Difference-differential operators on one part, and their block oracle.

``delta(i, j, e)`` differentiates an expression with respect to letter j of
part i.  The result lives over the alphabet extended with a primed copy of
part i (slot ordered just before the original part), because the product
rule is "skew": factors to the left of the differentiated one get renamed
to their primed copies,

    delta(f1 * ... * fk)  =  sum over m of  f1' ... f(m-1)' * delta(fm) * f(m+1) ... fk,

with the m = k term first.  On an inverse the rule is
delta(inv(r)) = -inv(r') * delta(r) * inv(r).

``fund_block_point`` packages two part-1 tuples and a direction vector into
a single block-matrix point.  Evaluating an expression there produces an
upper-triangular 2x2 block value whose corner is the directional delta;
``verify_fund`` checks that identity exactly, comparing the value with the
block matrix of the three reference evaluations as one matrix.
"""

from __future__ import annotations

from typing import Sequence

from .evaluation import MpPoint, Undefined, UndefinedError, mp_evaluate
from .expression import (
    Alphabet,
    Const,
    Expr,
    Inverse,
    Product,
    Sum,
    Var,
    expr_neg,
    expr_product,
    expr_sum,
    fold,
    inverse_of,
    validate_vars,
)
from .matrix_kernel import Matrix, block_matrix, kron, scalar_matrix


def _primed(node: Expr, kids: list[Expr], part: int) -> Expr:
    # node rebuilt over the primed copies of its children
    if isinstance(node, Var) and node.part == part:
        if node.primed:
            raise ValueError(f"letter X{node.part}_{node.index}' is already primed")
        return Var(node.part, node.index, primed=True)
    if isinstance(node, Sum):
        return Sum(tuple(kids))
    if isinstance(node, Product):
        return Product(tuple(kids))
    if isinstance(node, Inverse):
        return Inverse(kids[0])
    return node


def prime_part(e: Expr, part: int) -> Expr:
    """Rename every unprimed letter of the given part to its primed copy."""
    return fold(e, lambda node, kids: _primed(node, kids, part))


def delta(part: int, index: int, e: Expr, alphabet: Alphabet) -> Expr:
    """Difference-differential of e in letter (part, index).

    e must be over the plain alphabet; the result is over
    alphabet.with_primed(part).
    """
    if not 1 <= part <= alphabet.parts:
        raise ValueError(f"part {part} out of range")
    g = alphabet.size_of(part)
    if not 1 <= index <= g:
        raise ValueError(f"index {index} out of range for part {part}")
    return directional_delta(part, [int(j == index) for j in range(1, g + 1)], e, alphabet)


def directional_delta(part: int, v: Sequence, e: Expr, alphabet: Alphabet) -> Expr:
    """Sum of v[j-1] * delta(part, j, e) over the letters of the part, as
    one fold: letter j differentiates to the constant v[j-1], every other
    letter to 0."""
    if not 1 <= part <= alphabet.parts:
        raise ValueError(f"part {part} out of range")
    g = alphabet.size_of(part)
    if len(v) != g:
        raise ValueError(f"direction vector needs {g} entries, got {len(v)}")
    if alphabet.primed_parts:
        raise ValueError("delta expects an alphabet without primed parts")
    validate_vars(e, alphabet)
    zero = Const(0)
    coeffs = [Const(c) for c in v]

    def rule(node: Expr, kids: list[tuple[Expr, Expr]]) -> tuple[Expr, Expr]:
        # (primed copy of node, delta of node)
        primes = [p for p, _ in kids]
        diffs = [d for _, d in kids]
        if isinstance(node, Const):
            diff: Expr = zero
        elif isinstance(node, Var):
            diff = coeffs[node.index - 1] if node.part == part else zero
        elif isinstance(node, Sum):
            diff = expr_sum(diffs)
        elif isinstance(node, Product):
            fs = node.factors
            diff = expr_sum(
                expr_product([*primes[: m - 1], diffs[m - 1], *fs[m:]], absorb_zero=True)
                for m in range(len(fs), 0, -1)
            )
        else:
            assert isinstance(node, Inverse)
            diff = expr_neg(expr_product(
                [inverse_of(primes[0]), diffs[0], inverse_of(node.arg)], absorb_zero=True))
        return _primed(node, primes, part), diff

    return fold(e, rule)[1]


def _fund_point(
    a_prime: Sequence[Matrix],
    a: Sequence[Matrix],
    v: Sequence,
    rest: Sequence[Sequence[Matrix]],
) -> tuple[MpPoint, tuple[Matrix, ...], tuple[Matrix, ...]]:
    """fund_block_point, and its diagonal blocks a'_j (x) I and I (x) a_j."""
    if not a or len(a_prime) != len(a) or len(v) != len(a):
        raise ValueError("a_prime, a, v must have equal nonzero length")
    mp = a_prime[0].rows
    m = a[0].rows
    for mat in a_prime:
        if not (mat.is_square() and mat.rows == mp):
            raise ValueError("a_prime matrices must be square of one size")
    for mat in a:
        if not (mat.is_square() and mat.rows == m):
            raise ValueError("a matrices must be square of one size")
    uls = tuple(kron(ap, Matrix.identity(m)) for ap in a_prime)
    lrs = tuple(kron(Matrix.identity(mp), aj) for aj in a)
    half = mp * m
    zero = Matrix.zeros(half, half)
    blocks = tuple(block_matrix([[ul, scalar_matrix(half, vj)], [zero, lr]])
                   for ul, vj, lr in zip(uls, v, lrs))
    alphabet = Alphabet((len(a),) + tuple(len(p) for p in rest))
    return MpPoint(alphabet, (blocks, *rest)), uls, lrs


def fund_block_point(
    a_prime: Sequence[Matrix],
    a: Sequence[Matrix],
    v: Sequence,
    rest: Sequence[Sequence[Matrix]],
) -> MpPoint:
    """Point whose part-1 matrices are [[a'_j (x) I, v_j I], [0, I (x) a_j]].

    a_prime and a are part-1 tuples at sizes m' and m; rest holds the
    matrices of parts 2..G unchanged.  The alphabet is read off the shapes.
    """
    return _fund_point(a_prime, a, v, rest)[0]


def _demand(value: Matrix | Undefined) -> Matrix:
    if isinstance(value, Undefined):
        raise UndefinedError(value)
    return value


def verify_fund(
    e: Expr,
    a_prime: Sequence[Matrix],
    a: Sequence[Matrix],
    v: Sequence,
    rest: Sequence[Sequence[Matrix]],
    alphabet: Alphabet,
) -> bool:
    """Check the block identity for e at the given data, exactly.

    Evaluating e at fund_block_point must give
    [[e(a' (x) I, rest), (v . delta e)(a', a, rest)], [0, e(I (x) a, rest)]].
    Raises UndefinedError when any of the evaluations is undefined.
    """
    if len(a) != alphabet.size_of(1) or len(rest) != alphabet.parts - 1:
        raise ValueError("point shape does not match alphabet")
    point, uls, lrs = _fund_point(a_prime, a, v, rest)
    value = _demand(mp_evaluate(e, point))
    ul = _demand(mp_evaluate(e, MpPoint(alphabet, (uls, *rest))))
    lr = _demand(mp_evaluate(e, MpPoint(alphabet, (lrs, *rest))))
    ext_point = MpPoint(alphabet.with_primed(1), (a_prime, a, *rest))
    ur = _demand(mp_evaluate(directional_delta(1, v, e, alphabet), ext_point))
    return value == block_matrix([[ul, ur], [Matrix.zeros(lr.rows, ul.cols), lr]])
