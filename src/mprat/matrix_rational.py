"""Square matrices of rational expressions: invertibility and inversion.

A d-by-d matrix over the expressions is invertible as a matrix over the
skew field of rational functions exactly when some blockwise evaluation of
it is an invertible scalar matrix.  matrix_invertible hunts for such a
point; matrix_inverse_expr builds the symbolic inverse by pivoted Schur
recursion, logging the nonzero certificate of every pivot it commits to.
Its pivot tests all sample the same points, since a point is a pure
function of (seed, dims, trial): one Evaluator per (dims, trial) serves the
whole recursion, so the subexpressions that candidate entries share are
evaluated once per point.

partial_evaluate substitutes constant d-by-d matrices for the part-1
letters of an expression, turning it into an ExprMatrix over the remaining
parts (renumbered to start at 1).  Since part 1 is the outermost evaluation
slot, the blockwise value of that matrix reproduces the full evaluation
with no index shuffling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .evaluation import Evaluator, MpPoint, Undefined
from .expression import (
    Alphabet,
    Const,
    Expr,
    Inverse,
    Product,
    Sum,
    Var,
    _validate_nodes,
    expr_neg,
    expr_product,
    expr_sum,
    fold,
    inverse_of,
    validate_vars,
    walk,
)
# is_zero and det stay bound here for perfbench/tracing.py, which wraps them by name
from .identity import NonzeroWitness, TestConfig, _points, _zero_test, is_zero  # noqa: F401
from .matrix_kernel import Matrix, _det_nonzero, block_matrix, det  # noqa: F401


@dataclass(frozen=True)
class ExprMatrix:
    """Square array of expressions over one shared alphabet."""

    alphabet: Alphabet
    entries: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
        d = len(self.entries)
        if d < 1:
            raise ValueError("matrix must have at least one row")
        if any(len(row) != d for row in self.entries):
            raise ValueError("matrix must be square")
        # one walk over all entries: its first misfit lies in the row-major
        # first entry that has one
        _validate_nodes(walk(*(e for row in self.entries for e in row)), self.alphabet)

    @property
    def d(self) -> int:
        return len(self.entries)


def matrix_mp_evaluate(m: ExprMatrix, a: MpPoint) -> Matrix | Undefined:
    """Blockwise evaluation: entry (k, l) becomes the (k, l) block.

    One evaluator serves all entries, so shared subexpressions are costed
    once.  The first undefined entry (row-major) is reported.
    """
    ev = Evaluator(a)
    blocks: list[list[Matrix]] = []
    for row in m.entries:
        out_row = []
        for e in row:
            val = ev.run(e)
            if isinstance(val, Undefined):
                return val
            out_row.append(val)
        blocks.append(out_row)
    return block_matrix(blocks)


@dataclass(frozen=True)
class InvertibleWitness:
    point: MpPoint


@dataclass(frozen=True)
class ProbablyNotInvertible:
    level: int
    trials: int


class NotInvertible(ValueError):
    """No pivot with a certified-nonzero entry could be found."""


class PartialUndefined(ValueError):
    """An Inverse node's partial evaluation is not an invertible matrix."""


@dataclass(frozen=True)
class PivotRecord:
    depth: int
    row: int
    col: int
    witness: NonzeroWitness


@dataclass(frozen=True)
class SchurInverse:
    matrix: ExprMatrix
    pivots: tuple[PivotRecord, ...]


def matrix_invertible(
    m: ExprMatrix, cfg: TestConfig | None = None
) -> InvertibleWitness | ProbablyNotInvertible:
    """Sample for a point where the blockwise evaluation has nonzero det."""
    cfg = cfg or TestConfig()
    for _, _, a in _points(m.alphabet, cfg, cfg.max_level):
        val = matrix_mp_evaluate(m, a)
        if not isinstance(val, Undefined) and _det_nonzero(val):
            return InvertibleWitness(a)
    return ProbablyNotInvertible(cfg.max_level, cfg.trials_per_level)


def _swapped(entries: list[list[Expr]], pr: int, pc: int) -> list[list[Expr]]:
    rows = list(range(len(entries)))
    rows[0], rows[pr] = rows[pr], rows[0]
    cols = list(range(len(entries)))
    cols[0], cols[pc] = cols[pc], cols[0]
    return [[entries[r][c] for c in cols] for r in rows]


def _schur_inverse(
    entries: list[list[Expr]],
    alphabet: Alphabet,
    cfg: TestConfig,
    depth: int,
    log: list[PivotRecord],
    evaluate,
) -> list[list[Expr]]:
    d = len(entries)
    pivot = None
    for r in range(d):
        for c in range(d):
            verdict = _zero_test(entries[r][c], alphabet, cfg, evaluate)
            if isinstance(verdict, NonzeroWitness):
                pivot = (r, c, verdict)
                break
        if pivot:
            break
    if pivot is None:
        raise NotInvertible(f"no certified-nonzero pivot at recursion depth {depth}")
    pr, pc, witness = pivot
    log.append(PivotRecord(depth, pr, pc, witness))
    if d == 1:
        return [[inverse_of(entries[0][0])]]

    m2 = _swapped(entries, pr, pc)
    a = m2[0][0]
    ainv = inverse_of(a)
    beta = m2[0][1:]
    gamma = [m2[i][0] for i in range(1, d)]
    rest = [row[1:] for row in m2[1:]]
    schur = [
        [
            expr_sum([
                rest[i][j],
                expr_neg(expr_product([gamma[i], ainv, beta[j]], absorb_zero=True)),
            ])
            for j in range(d - 1)
        ]
        for i in range(d - 1)
    ]
    sinv = _schur_inverse(schur, alphabet, cfg, depth + 1, log, evaluate)

    corner = expr_sum([
        ainv,
        *(
            expr_product([ainv, beta[i], sinv[i][j], gamma[j], ainv], absorb_zero=True)
            for i in range(d - 1)
            for j in range(d - 1)
        ),
    ])
    top = [
        expr_neg(expr_sum([
            expr_product([ainv, beta[i], sinv[i][j]], absorb_zero=True)
            for i in range(d - 1)
        ]))
        for j in range(d - 1)
    ]
    left = [
        expr_neg(expr_sum([
            expr_product([sinv[i][j], gamma[j], ainv], absorb_zero=True)
            for j in range(d - 1)
        ]))
        for i in range(d - 1)
    ]
    inv2 = [[corner, *top]] + [[left[i], *sinv[i]] for i in range(d - 1)]

    # m = P m2 Q for the two transpositions, so inv(m) = Q inv(m2) P
    def q(i: int) -> int:
        return {0: pc, pc: 0}.get(i, i)

    def p(j: int) -> int:
        return {0: pr, pr: 0}.get(j, j)

    return [[inv2[q(i)][p(j)] for j in range(d)] for i in range(d)]


def matrix_inverse_expr(m: ExprMatrix, cfg: TestConfig | None = None) -> SchurInverse:
    """Symbolic inverse by Schur recursion; raises NotInvertible on failure.

    Every pivot choice is certified by a NonzeroWitness and recorded; the
    output entries are not simplified beyond constant folding.
    """
    cfg = cfg or TestConfig()
    # sound keys: this call has one alphabet and one cfg, and a sample point
    # is a pure function of (cfg.seed, dims, trial)
    evaluators: dict[tuple[tuple[int, ...], int], Evaluator] = {}

    def evaluate(e: Expr, trial: int, a: MpPoint) -> Matrix | Undefined:
        ev = evaluators.get((a.dims, trial))
        if ev is None:
            ev = evaluators[a.dims, trial] = Evaluator(a)
        return ev.run(e)

    log: list[PivotRecord] = []
    rows = [list(row) for row in m.entries]
    inv = _schur_inverse(rows, m.alphabet, cfg, 0, log, evaluate)
    return SchurInverse(ExprMatrix(m.alphabet, tuple(tuple(r) for r in inv)), tuple(log))


def partial_evaluate(
    e: Expr,
    alphabet: Alphabet,
    a1: Sequence[Matrix],
    cfg: TestConfig | None = None,
) -> ExprMatrix:
    """Substitute d-by-d matrices for the part-1 letters of e.

    The result is a d-by-d ExprMatrix over the remaining parts, renumbered
    to 1..G-1.  Inverse nodes become symbolic matrix inverses; when one is
    not invertible the whole substitution is undefined.
    """
    if alphabet.primed_parts:
        raise ValueError("partial evaluation expects an unprimed alphabet")
    if alphabet.parts < 2:
        raise ValueError("need at least one remaining part")
    g1 = alphabet.size_of(1)
    if len(a1) != g1:
        raise ValueError(f"expected {g1} part-1 matrices, got {len(a1)}")
    d = a1[0].rows
    for mat in a1:
        if not (mat.is_square() and mat.rows == d):
            raise ValueError("part-1 matrices must be square of one size")
    validate_vars(e, alphabet)
    rest = Alphabet(alphabet.sizes[1:])
    cfg = cfg or TestConfig()

    zero = Const(Fraction(0))

    def diag(x: Expr) -> list[list[Expr]]:
        return [[x if i == j else zero for j in range(d)] for i in range(d)]

    def mul(x: list[list[Expr]], y: list[list[Expr]]) -> list[list[Expr]]:
        return [[expr_sum([expr_product([x[i][u], y[u][j]], absorb_zero=True)
                           for u in range(d)])
                 for j in range(d)]
                for i in range(d)]

    def rule(node: Expr, kids: list[list[list[Expr]]]) -> list[list[Expr]]:
        if isinstance(node, Const):
            return diag(node)
        if isinstance(node, Var):
            if node.part == 1:
                mat = a1[node.index - 1]
                return [[Const(mat.entry(i, j)) for j in range(d)] for i in range(d)]
            return diag(Var(node.part - 1, node.index))
        if isinstance(node, Sum):
            return [
                [expr_sum([p[i][j] for p in kids]) for j in range(d)]
                for i in range(d)
            ]
        if isinstance(node, Product):
            return reduce(mul, kids)
        assert isinstance(node, Inverse)
        inner = ExprMatrix(rest, tuple(tuple(row) for row in kids[0]))
        try:
            return [list(row) for row in matrix_inverse_expr(inner, cfg).matrix.entries]
        except NotInvertible as exc:
            raise PartialUndefined("inverse of a non-invertible partial value") from exc

    return ExprMatrix(rest, tuple(tuple(row) for row in fold(e, rule)))
