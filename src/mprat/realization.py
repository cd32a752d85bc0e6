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
plain evaluation wherever both sides are defined.  Every C block sits in
a letter column, so with the letter coordinates L first and the others N
after, the amplified pencil is block lower triangular, [[I - K_LL, 0],
[-K_NL, I]].  I - K_LL is block lower triangular in turn over the strongly
connected components of L, where k reads u through block (k, u) and
K_ku = (I_s (x) C_ku)(a_l(u) - I_s (x) p_l(u)).  So det(pencil) is the
product of the blocks of the components that read themselves: evaluation
solves each such block alone, a component that does not read itself needs
no solve, and the domain test takes the determinants of those blocks only.
Each I_s (x) X multiplies by row bands (amplified_matmul), never formed.

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
from .matrix_kernel import (Matrix, _det_nonzero, amplified_matmul, block_matrix, inv_det,
                            scalar_matrix, solve, tau_embed)
from .matrix_kernel import det, kron  # noqa: F401  bound for perfbench/tracing.py to wrap by name

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


def _column_sums(C: Blocks, c: Sequence[Matrix], rows: set[int]) -> dict[int, Matrix]:
    """Each column u's sum of c[k] @ C[k, u] over the block rows k in rows."""
    sums: dict[int, Matrix] = {}
    for (k, u), mat in C.items():
        if k in rows:
            prod = c[k] @ mat
            sums[u] = sums[u] + prod if u in sums else prod
    return sums


def _couple(C: Blocks, c: Sequence[Matrix], left: Sequence[Matrix], shift: int) -> Blocks:
    """C moved down and right by shift coordinates, with its constant
    coupling folded in: left[k] @ colsum is added into block (k, shift + u)
    for each nonzero column sum u of c times C, and blocks that cancel are
    dropped."""
    out = {(k + shift, u + shift): mat for (k, u), mat in C.items()}
    for u, colsum in _column_sums(C, c, {k for k, ck in enumerate(c) if not ck.is_zero()}).items():
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


def _point_diffs(r: Realization, a: Sequence[Matrix]):
    """The slot sizes (s, m) of the amplification and D_u = a_l(u) - I_s (x) p_l(u)
    by letter coordinate u."""
    if len(a) != r.g:
        raise ValueError(f"expected {r.g} point matrices, got {len(a)}")
    size = a[0].rows
    if not all(mat.is_square() and mat.rows == size for mat in a):
        raise ValueError("point matrices must be square, equal size")
    # about a 0x0 base point every amplification is 0x0, so s = 0 will do
    s = size // r.m if r.m else 0
    if s * r.m != size:
        raise ValueError(f"point size {size} is not a multiple of the base size {r.m}")
    dims = (s, r.m)
    diffs = {l: a[l - 1] - tau_embed(2, r.p[l - 1], dims) for l in set(r.letters.values())}
    return dims, {u: diffs[l] for u, l in r.letters.items()}


def _components(r: Realization):
    """Each letter coordinate k's blocks C_ku by the letter coordinate u it
    reads, and the strongly connected components of that relation, each one
    after every component it reads from (Tarjan's algorithm, iteratively)."""
    reads: dict[int, dict[int, Matrix]] = {k: {} for k in sorted(r.letters)}
    for (k, u), mat in r.C.items():
        if k in reads:
            reads[k][u] = mat
    index, low, todo, stack, comps = {}, {}, {}, [], []  # low: the coordinates on the stack
    for root in reads:
        work = [] if root in index else [root]
        while work:
            u = work[-1]
            if u not in index:
                index[u] = low[u] = len(index)
                stack.append(u)
                todo[u] = iter(reads[u])
            for v in todo[u]:
                if v not in index:
                    work.append(v)
                    break
                if v in low:
                    low[u] = min(low[u], index[v])
            else:
                work.pop()
                if work:
                    low[work[-1]] = min(low[work[-1]], low[u])
                if low[u] == index[u]:
                    comp = [stack.pop()]
                    while comp[-1] != u:
                        comp.append(stack.pop())
                    for v in comp:
                        del low[v]
                    comps.append(comp)
    return reads, comps


def _pencil(comp: list[int], reads, D) -> Matrix | None:
    """I - K on one component's coordinates, K_ku = (I_s (x) C_ku) D_u, or None
    when the component does not read itself and its block is I."""
    if len(comp) == 1 and comp[0] not in reads[comp[0]]:
        return None
    size = D[comp[0]].rows
    pos = {u: i for i, u in enumerate(comp)}
    eye, zero = Matrix.identity(size), Matrix.zeros(size, size)
    grid = [[eye if k == u else zero for u in comp] for k in comp]
    for k in comp:
        for u, mat in reads[k].items():
            if u in pos:
                grid[pos[k]][pos[u]] -= amplified_matmul(mat, D[u])
    return block_matrix(grid)


def real_evaluate(r: Realization, a: Sequence[Matrix]) -> Matrix | PencilSingular:
    """c (I - L(a - p))^{-1} b with every block amplified to the size of a.

    With D_u = a_l(u) - I_s (x) p_l(u) and w_u = D_u x_u, letter coordinate k
    has x_k = I_s (x) b_k + sum_u (I_s (x) C_ku) w_u.  The letter coordinates
    are taken by strongly connected component, each after those it reads
    from: one that does not read itself is that sum, one that does solves
    its own block, and each w_u is formed once.  x_k of the other
    coordinates N is never formed: with e_u = sum_N c_k C_ku at base size,
    the value is
    I_s (x) sum_N c_k b_k + sum_L (I_s (x) c_u) x_u + (I_s (x) e_u) w_u.
    """
    dims, D = _point_diffs(r, a)
    rest = {k for k, ck in enumerate(r.c) if k not in r.letters and not ck.is_zero()}
    value = tau_embed(2, sum((r.c[k] @ r.b[k] for k in rest), _zeros(r.m)), dims)
    reads, comps = _components(r)
    e = _column_sums(r.C, r.c, rest)
    w: dict[int, Matrix] = {}
    for comp in comps:
        xs = [sum((amplified_matmul(mat, w[u]) for u, mat in reads[k].items() if u in w),
                  tau_embed(2, r.b[k], dims)) for k in comp]
        pencil = _pencil(comp, reads, D)
        if pencil is not None:
            sol = solve(pencil, block_matrix([[x] for x in xs]))
            if sol is None:
                return PencilSingular()
            n = sol.cols
            xs = [sol.submatrix(i * n, i * n + n, 0, n) for i in range(len(comp))]
        for u, x in zip(comp, xs):
            if not r.c[u].is_zero():
                value += amplified_matmul(r.c[u], x)
            w[u] = D[u] @ x
            if u in e:
                value += amplified_matmul(e[u], w[u])
    return value


def real_domain_contains(r: Realization, a: Sequence[Matrix]) -> bool:
    """Exact determinant test of the amplified pencil at a, mod p first.

    det(pencil) is the product of the blocks of the letter components that
    read themselves, so only those are built and tested.  With none, the
    point is still checked and then always lies in the domain.
    """
    D = _point_diffs(r, a)[1]
    reads, comps = _components(r)
    pencils = (_pencil(comp, reads, D) for comp in comps)
    return all(pencil is None or _det_nonzero(pencil) for pencil in pencils)


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
