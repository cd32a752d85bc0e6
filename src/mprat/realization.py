"""Linear-pencil realizations about a base point.

A realization packages a rational expression in flattened letters Z_1..Z_g
as r = c (I - C diag(Z_l(u) - p_l(u)))^{-1} b: every state coordinate u
carries one letter l(u), and c, b and the constant pencil coefficient C are
block matrices with m-by-m blocks (C stored sparsely, one block per nonzero
coupling of coordinate u into coordinate k).  p is a tuple of m-by-m
base-point matrices at which the expression is defined.  At the base point
the pencil argument vanishes, so p always lies in the domain.

Evaluation at a point of size s*m amplifies every coefficient block X to
I_s (x) X; this is a unital homomorphism on the coefficients, so the
realization identity survives the size change and real_evaluate agrees with
plain evaluation wherever both sides are defined.

Construction is one bottom-up fold that builds each node's realization
together with its value at p from its children's: sums stack two
realizations side by side, products chain them through a constant coupling
block, and inverses add one block coordinate whose constant term is the
inverse of the argument's value; both couplings are folded back into C.
The fold runs in walk order, so an expression undefined at p names the same
first singular inverse as nc_evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Sequence

from .evaluation import NcPoint, Undefined
from .expression import (Alphabet, Const, Expr, Inverse, Product, Sum, Var, _path_to, fold,
                         validate_vars)
from .matrix_kernel import (
    Matrix,
    _det_nonzero,
    block_matrix,
    det,  # noqa: F401  bound here for perfbench/tracing.py, which wraps it by name
    inv_det,
    kron,  # noqa: F401  bound here for perfbench/tracing.py, which wraps it by name
    scalar_matrix,
    solve,
    tau_embed,
)

Blocks = dict[tuple[int, int], Matrix]


class BasePointOutsideDomain(ValueError):
    """The expression is undefined at the proposed base point."""

    def __init__(self, undefined: Undefined):
        super().__init__(f"expression undefined at base point, path {undefined.path}")
        self.undefined = undefined


@dataclass(frozen=True)
class PencilSingular:
    """Evaluation result when I - L(a - p) is not invertible."""


@dataclass(frozen=True)
class Realization:
    """letters maps each letter coordinate u to the letter acting on it;
    C holds the blocks (k, u) of the pencil coefficient, each in a letter
    coordinate's column.  realize stores no zero block."""

    m: int
    p: tuple[Matrix, ...]
    dim: int
    c: tuple[Matrix, ...]
    b: tuple[Matrix, ...]
    letters: dict[int, int]
    C: Blocks

    def __post_init__(self):
        m, n, g = self.m, self.dim, len(self.p)
        if g < 1:
            raise ValueError("need at least one letter")
        for mat in self.p + self.c + self.b:
            if mat.rows != m or mat.cols != m:
                raise ValueError(f"blocks must be {m}x{m}")
        if len(self.c) != n or len(self.b) != n:
            raise ValueError("c and b must have dim blocks")
        for u, letter in self.letters.items():
            if not 0 <= u < n:
                raise ValueError(f"letter coordinate {u} out of range")
            if not 1 <= letter <= g:
                raise ValueError(f"letter {letter} out of range")
        for (k, u), mat in self.C.items():
            if not 0 <= k < n or u not in self.letters:
                raise ValueError(f"pencil block ({k}, {u}) outside a letter column")
            if mat.rows != m or mat.cols != m:
                raise ValueError(f"blocks must be {m}x{m}")

    @property
    def rho(self) -> int:
        return len(self.letters)

    @property
    def g(self) -> int:
        return len(self.p)


def _zeros(m: int) -> Matrix:
    return Matrix.zeros(m, m)


def _couple(C: Blocks, c: Sequence[Matrix], left: Sequence[Matrix], shift: int) -> Blocks:
    """C moved down and right by shift coordinates, with its constant
    coupling folded in: left[k] @ colsum is added into block (k, shift + u)
    for each nonzero column sum u of c times C, and blocks that cancel are
    dropped."""
    out = {(k + shift, u + shift): mat for (k, u), mat in C.items()}
    sums: dict[int, Matrix] = {}
    support = {k for k, ck in enumerate(c) if not ck.is_zero()}
    for (k, u), mat in C.items():
        if k in support:
            prod = c[k] @ mat
            sums[u] = sums[u] + prod if u in sums else prod
    for u, colsum in sums.items():
        if colsum.is_zero():
            continue
        for k, lk in enumerate(left):
            key = (k, shift + u)
            block = lk @ colsum
            if key in out:
                block = out[key] + block
            if block.is_zero():
                out.pop(key, None)
            else:
                out[key] = block
    return out


def _const_real(value: Fraction, m: int, p: tuple[Matrix, ...]) -> Realization:
    return Realization(m, p, 1, (scalar_matrix(m, value),), (Matrix.identity(m),), {}, {})


def _letter_real(i: int, m: int, p: tuple[Matrix, ...]) -> Realization:
    eye = Matrix.identity(m)
    return Realization(m, p, 2, (eye, _zeros(m)), (p[i - 1], eye), {1: i}, {(0, 1): eye})


def _sum_real(r: Realization, s: Realization) -> Realization:
    n = r.dim
    letters = r.letters | {n + u: letter for u, letter in s.letters.items()}
    C = r.C | {(n + k, n + u): mat for (k, u), mat in s.C.items()}
    return Realization(r.m, r.p, r.dim + s.dim, r.c + s.c, r.b + s.b, letters, C)


def _prod_real(r: Realization, s: Realization, s_at_p: Matrix) -> Realization:
    """Cascade: value flows through s first, then couples into r via b_r c_s.

    The coupling is a constant block, which a pencil cannot carry directly;
    it is folded into the s-side C blocks, and b_r takes s's value at p.
    """
    m, n = r.m, r.dim
    c = r.c + (_zeros(m),) * s.dim
    b = tuple(bk @ s_at_p for bk in r.b) + s.b
    letters = r.letters | {n + u: letter for u, letter in s.letters.items()}
    C = r.C | _couple(s.C, s.c, r.b, n)
    return Realization(m, r.p, r.dim + s.dim, c, b, letters, C)


def _inverse_real(r: Realization, vinv: Matrix) -> Realization:
    """One extra coordinate, whose constant term is vinv, the inverse of r at p."""
    m = r.m
    c = (Matrix.identity(m),) + (_zeros(m),) * r.dim
    b = (vinv,) + tuple(-(bk @ vinv) for bk in r.b)
    letters = {u + 1: letter for u, letter in r.letters.items()}
    return Realization(m, r.p, r.dim + 1, c, b, letters, _couple(r.C, r.c, b, 1))


def realize(e: Expr, alphabet: Alphabet, p: Sequence[Matrix]) -> Realization:
    """Build a realization of e about the base point p (flat letter order).

    p holds one m-by-m matrix per letter of the alphabet, in the order of
    alphabet.letters().  Raises ValueError for a letter outside the alphabet,
    and BasePointOutsideDomain when e is undefined at p, naming the Undefined
    that nc_evaluate reports: the first singular inverse in walk order.
    """
    point = NcPoint(alphabet, tuple(p))
    validate_vars(e, alphabet)
    m, pt = point.n, point.mats
    positions = {v: i + 1 for i, v in enumerate(alphabet.letters())}

    def rule(node: Expr, kids: list[tuple[Realization, Matrix]]) -> tuple[Realization, Matrix]:
        if isinstance(node, Const):
            r = _const_real(node.value, m, pt)
            return r, r.c[0]
        if isinstance(node, Var):
            i = positions[node]
            return _letter_real(i, m, pt), pt[i - 1]
        if isinstance(node, Sum):
            return reduce(_sum_real, [r for r, _ in kids]), reduce(add, [v for _, v in kids])
        if isinstance(node, Product):
            r, v = kids[0]
            for s, w in kids[1:]:
                r, v = _prod_real(r, s, w), v @ w
            return r, v
        assert isinstance(node, Inverse)
        r, v = kids[0]
        res = inv_det(v)
        if res is None:
            raise BasePointOutsideDomain(Undefined(node, _path_to(e, node)))
        return _inverse_real(r, res[0]), res[0]

    return fold(e, rule)[0]


def _amplified_pencil(r: Realization, a: Sequence[Matrix]) -> tuple[Matrix, tuple[int, int]]:
    """I - (I_s (x) C)(I_n (x) diag(a_l(u) - I_s (x) p_l(u))), dense, and the
    slot sizes (s, m) of the amplification."""
    if len(a) != r.g:
        raise ValueError(f"expected {r.g} point matrices, got {len(a)}")
    size = a[0].rows
    for mat in a:
        if not (mat.is_square() and mat.rows == size):
            raise ValueError("point matrices must be square, equal size")
    # about a 0x0 base point every amplification is 0x0, so s = 0 will do
    s = size // r.m if r.m else 0
    if s * r.m != size:
        raise ValueError(f"point size {size} is not a multiple of the base size {r.m}")
    dims = (s, r.m)
    diffs = [a[i] - tau_embed(2, r.p[i], dims) for i in range(r.g)]
    n = r.dim
    if n == 0:
        return Matrix.zeros(0, 0), dims
    eye_size = Matrix.identity(size)
    zero_size = Matrix.zeros(size, size)
    grid = [[eye_size if k == l else zero_size for l in range(n)] for k in range(n)]
    for (k, u), mat in r.C.items():
        grid[k][u] = grid[k][u] - tau_embed(2, mat, dims) @ diffs[r.letters[u] - 1]
    return block_matrix(grid), dims


def real_evaluate(r: Realization, a: Sequence[Matrix]) -> Matrix | PencilSingular:
    """c (I - L(a - p))^{-1} b with every block amplified to the size of a."""
    lam, dims = _amplified_pencil(r, a)
    if r.dim == 0:
        return Matrix.zeros(a[0].rows, a[0].rows)
    x = solve(lam, block_matrix([[tau_embed(2, bk, dims)] for bk in r.b]))
    if x is None:
        return PencilSingular()
    return block_matrix([[tau_embed(2, ck, dims) for ck in r.c]]) @ x


def real_domain_contains(r: Realization, a: Sequence[Matrix]) -> bool:
    """Exact determinant test of the amplified pencil at a, mod p first.

    A dim-0 pencil is the empty matrix, whose determinant is one, so the
    point is still checked and then always lies in the domain.
    """
    return _det_nonzero(_amplified_pencil(r, a)[0])


def _closure(start: set[int], step: dict[int, list[int]]) -> set[int]:
    out, todo = set(start), list(start)
    while todo:
        for nxt in step.get(todo.pop(), ()):
            if nxt not in out:
                out.add(nxt)
                todo.append(nxt)
    return out


def real_reduce(r: Realization) -> Realization:
    """Drop block coordinates that cannot influence the evaluation.

    Keeps the coordinates that both reach the support of b and are observed
    from the support of c along the nonzero blocks of C, in one restriction:
    a coordinate on a path between two kept ones is itself kept, so the
    result is already reduced.  Evaluations agree with the original wherever
    both pencils are nonsingular; the block dimension never grows, and r
    itself comes back when nothing is dropped.
    """
    feeds: dict[int, list[int]] = {}  # u -> the coordinates k that block (k, u) couples u into
    reads: dict[int, list[int]] = {}  # k -> the coordinates u it reads through block (k, u)
    for (k, u), mat in r.C.items():
        if not mat.is_zero():
            feeds.setdefault(u, []).append(k)
            reads.setdefault(k, []).append(u)
    keep = (_closure({k for k, bk in enumerate(r.b) if not bk.is_zero()}, feeds)
            & _closure({k for k, ck in enumerate(r.c) if not ck.is_zero()}, reads))
    if len(keep) == r.dim:
        return r
    order = sorted(keep)
    pos = {old: new for new, old in enumerate(order)}
    return Realization(r.m, r.p, len(order),
                       tuple(r.c[k] for k in order), tuple(r.b[k] for k in order),
                       {pos[u]: letter for u, letter in r.letters.items() if u in keep},
                       {(pos[k], pos[u]): mat for (k, u), mat in r.C.items()
                        if k in keep and u in keep})
