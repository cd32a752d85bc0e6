"""Linear-pencil realizations about a base point.

A realization packages a rational expression in flattened letters Z_1..Z_g
as r = c (I - sum C (Z_i - p_i) B)^{-1} b, where c, b and the pencil
coefficients C, B are block matrices with m-by-m blocks and p is a tuple of
m-by-m base-point matrices at which the expression is defined.  At the base
point the pencil argument vanishes, so p always lies in the domain.

Evaluation at a point of size s*m amplifies every coefficient block X to
I_s (x) X; this is a unital homomorphism on the coefficients, so the
realization identity survives the size change and real_evaluate agrees with
plain evaluation wherever both sides are defined.

Construction is one bottom-up fold that builds each node's realization
together with its value at p from its children's: sums stack two
realizations side by side, products chain them through a constant coupling
block, and inverses add one block coordinate whose constant term is the
inverse of the argument's value; both couplings are folded back into the
pencil coefficients.  The fold runs in walk order, so an expression
undefined at p names the same first singular inverse as nc_evaluate.
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
    kron,
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
class PencilTerm:
    """One summand C (Z_letter - p_letter) B of the pencil, blocks stored sparsely."""

    letter: int
    C: Blocks
    B: Blocks


@dataclass(frozen=True)
class Realization:
    m: int
    p: tuple[Matrix, ...]
    dim: int
    c: tuple[Matrix, ...]
    b: tuple[Matrix, ...]
    terms: tuple[PencilTerm, ...]

    def __post_init__(self):
        m, n, g = self.m, self.dim, len(self.p)
        if g < 1:
            raise ValueError("need at least one letter")
        for mat in self.p + self.c + self.b:
            if mat.rows != m or mat.cols != m:
                raise ValueError(f"blocks must be {m}x{m}")
        if len(self.c) != n or len(self.b) != n:
            raise ValueError("c and b must have dim blocks")
        for t in self.terms:
            if not 1 <= t.letter <= g:
                raise ValueError(f"letter {t.letter} out of range")
            for blocks in (t.C, t.B):
                for (k, l), mat in blocks.items():
                    if not (0 <= k < n and 0 <= l < n):
                        raise ValueError("pencil block index out of range")
                    if mat.rows != m or mat.cols != m:
                        raise ValueError(f"blocks must be {m}x{m}")

    @property
    def rho(self) -> int:
        return len(self.terms)

    @property
    def g(self) -> int:
        return len(self.p)

    @property
    def field(self):
        return self.p[0].field


def _zeros(m: int, field) -> Matrix:
    return Matrix.zeros(m, m, field)


def _shift(blocks: Blocks, dk: int, dl: int) -> Blocks:
    return {(k + dk, l + dl): mat for (k, l), mat in blocks.items()}


def _column_sums(c: Sequence[Matrix], blocks: Blocks) -> dict[int, Matrix]:
    """Per-column block sums of the row vector c times a sparse block matrix."""
    out: dict[int, Matrix] = {}
    for (k, l), mat in blocks.items():
        prod = c[k] @ mat
        out[l] = out[l] + prod if l in out else prod
    return {l: mat for l, mat in out.items() if not mat.is_zero()}


def _couple(t: PencilTerm, c: Sequence[Matrix], left: Sequence[Matrix],
            shift: int) -> PencilTerm:
    """t moved down and right by shift coordinates, with its constant
    coupling folded in: left[k] @ colsum is added into C block (k, shift + l)
    for each column sum l of c times t.C, and blocks that cancel are dropped."""
    C = _shift(t.C, shift, shift)
    for l, colsum in _column_sums(c, t.C).items():
        for k, lk in enumerate(left):
            key = (k, shift + l)
            block = lk @ colsum
            if key in C:
                block = C[key] + block
            if block.is_zero():
                C.pop(key, None)
            else:
                C[key] = block
    return PencilTerm(t.letter, C, _shift(t.B, shift, shift))


def _const_real(value: Fraction, m: int, p: tuple[Matrix, ...], field) -> Realization:
    return Realization(m, p, 1, (scalar_matrix(m, field.of(value), field),),
                       (Matrix.identity(m, field),), ())


def _letter_real(i: int, m: int, p: tuple[Matrix, ...], field) -> Realization:
    eye = Matrix.identity(m, field)
    z = _zeros(m, field)
    term = PencilTerm(i, {(0, 1): eye}, {(1, 1): eye})
    return Realization(m, p, 2, (eye, z), (p[i - 1], eye), (term,))


def _sum_real(r: Realization, s: Realization) -> Realization:
    n = r.dim
    terms = r.terms + tuple(
        PencilTerm(t.letter, _shift(t.C, n, n), _shift(t.B, n, n)) for t in s.terms
    )
    return Realization(r.m, r.p, r.dim + s.dim, r.c + s.c, r.b + s.b, terms)


def _prod_real(r: Realization, s: Realization, s_at_p: Matrix) -> Realization:
    """Cascade: value flows through s first, then couples into r via b_r c_s.

    The coupling is a constant block, which a pencil cannot carry directly;
    it is folded into the s-side C blocks, and b_r takes s's value at p.
    """
    m, field = r.m, r.field
    n = r.dim
    c = r.c + (_zeros(m, field),) * s.dim
    b = tuple(bk @ s_at_p for bk in r.b) + s.b
    terms = r.terms + tuple(_couple(t, s.c, r.b, n) for t in s.terms)
    return Realization(m, r.p, r.dim + s.dim, c, b, terms)


def _inverse_real(r: Realization, vinv: Matrix) -> Realization:
    """One extra coordinate, whose constant term is vinv, the inverse of r at p."""
    m, field = r.m, r.field
    c = (Matrix.identity(m, field),) + (_zeros(m, field),) * r.dim
    b = (vinv,) + tuple(-(bk @ vinv) for bk in r.b)
    terms = tuple(_couple(t, r.c, b, 1) for t in r.terms)
    return Realization(m, r.p, r.dim + 1, c, b, terms)


def realize(e: Expr, alphabet: Alphabet, p: Sequence[Matrix]) -> Realization:
    """Build a realization of e about the base point p (flat letter order).

    p holds one m-by-m matrix per letter of the alphabet, in the order of
    alphabet.letters().  Raises ValueError for a letter outside the alphabet,
    and BasePointOutsideDomain when e is undefined at p, naming the Undefined
    that nc_evaluate reports: the first singular inverse in walk order.
    """
    point = NcPoint(alphabet, tuple(p))
    validate_vars(e, alphabet)
    m, field, pt = point.n, point.field, point.mats
    positions = {(v.part, v.index, v.primed): i + 1 for i, v in enumerate(alphabet.letters())}

    def rule(node: Expr, kids: list[tuple[Realization, Matrix]]) -> tuple[Realization, Matrix]:
        if isinstance(node, Const):
            r = _const_real(node.value, m, pt, field)
            return r, r.c[0]
        if isinstance(node, Var):
            i = positions[(node.part, node.index, node.primed)]
            return _letter_real(i, m, pt, field), pt[i - 1]
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


def _amplified_pencil(r: Realization, a: Sequence[Matrix]) -> Matrix:
    """I - sum (I_s (x) C)(I_n (x) (a_i - I_s (x) p_i))(I_s (x) B), dense."""
    if len(a) != r.g:
        raise ValueError(f"expected {r.g} point matrices, got {len(a)}")
    size = a[0].rows
    field = r.field
    for mat in a:
        if not (mat.is_square() and mat.rows == size and mat.field == field):
            raise ValueError("point matrices must be square, equal size, same field")
    if size % r.m:
        raise ValueError(f"point size {size} is not a multiple of the base size {r.m}")
    dims = (size // r.m, r.m)
    diffs = [a[i] - tau_embed(2, r.p[i], dims) for i in range(r.g)]
    n = r.dim
    grid: list[list[Matrix | None]] = [[None] * n for _ in range(n)]
    for t in r.terms:
        diff = diffs[t.letter - 1]
        rows: dict[int, list[tuple[int, Matrix]]] = {}
        for (u, l), mat in t.B.items():
            rows.setdefault(u, []).append((l, tau_embed(2, mat, dims)))
        for (k, u), mat in t.C.items():
            if u not in rows:
                continue
            left = tau_embed(2, mat, dims) @ diff
            for l, right in rows[u]:
                contrib = left @ right
                grid[k][l] = contrib if grid[k][l] is None else grid[k][l] + contrib
    if n == 0:
        return Matrix.zeros(0, 0, field)
    eye_size = Matrix.identity(size, field)
    zero_size = Matrix.zeros(size, size, field)
    for k in range(n):
        for l in range(n):
            hit = grid[k][l]
            if k == l:
                grid[k][l] = eye_size if hit is None else eye_size - hit
            else:
                grid[k][l] = zero_size if hit is None else -hit
    return block_matrix(grid)


def real_evaluate(r: Realization, a: Sequence[Matrix]) -> Matrix | PencilSingular:
    """c (I - L(a - p))^{-1} b with every block amplified to the size of a."""
    lam = _amplified_pencil(r, a)
    size = a[0].rows
    dims = (size // r.m, r.m)
    field = r.field
    if r.dim == 0:
        return Matrix.zeros(size, size, field)
    x = solve(lam, block_matrix([[tau_embed(2, bk, dims)] for bk in r.b]))
    if x is None:
        return PencilSingular()
    out = Matrix.zeros(size, size, field)
    for k in range(r.dim):
        ck = r.c[k]
        if ck.is_zero():
            continue
        out = out + tau_embed(2, ck, dims) @ x.submatrix(k * size, (k + 1) * size, 0, size)
    return out


def real_domain_contains(r: Realization, a: Sequence[Matrix]) -> bool:
    """Exact determinant test of the amplified pencil at a, mod p first.

    A dim-0 pencil is the empty matrix, whose determinant is one, so the
    point is still checked and then always lies in the domain.
    """
    return _det_nonzero(_amplified_pencil(r, a))


def _structural_edges(r: Realization) -> set[tuple[int, int]]:
    """(k, l) pairs where the pencil actually couples coordinate l into k.

    The (k, l) block of the pencil is x -> sum C[k,u] x B[u,l] over the
    terms of each letter; that map vanishes exactly when the matching sum
    of Kronecker products does, so cancellations across terms are honored.
    """
    sums: dict[tuple[int, int, int], Matrix] = {}
    for t in r.terms:
        rows: dict[int, list[tuple[int, Matrix]]] = {}
        for (u, l), mat in t.B.items():
            rows.setdefault(u, []).append((l, mat))
        for (k, u), cmat in t.C.items():
            for l, bmat in rows.get(u, ()):
                key = (t.letter, k, l)
                piece = kron(cmat, bmat.transpose())
                sums[key] = sums[key] + piece if key in sums else piece
    return {(k, l) for (_i, k, l), mat in sums.items() if not mat.is_zero()}


def _closure(start: set[int], edges: set[tuple[int, int]], forward: bool) -> set[int]:
    out = set(start)
    changed = True
    while changed:
        changed = False
        for k, l in edges:
            src, dst = (k, l) if forward else (l, k)
            if src in out and dst not in out:
                out.add(dst)
                changed = True
    return out


def _restrict(r: Realization, keep: set[int]) -> Realization:
    """Cut the state space down to `keep`, splitting terms whose inner
    summation index falls outside it (the split term routes that single
    product through block coordinate 0 of the reduced space)."""
    order = sorted(keep)
    pos = {old: new for new, old in enumerate(order)}
    c = tuple(r.c[k] for k in order)
    b = tuple(r.b[k] for k in order)
    terms = []
    for t in r.terms:
        kept_C = {(pos[k], pos[u]): mat for (k, u), mat in t.C.items()
                  if k in keep and u in keep}
        kept_B = {(pos[u], pos[l]): mat for (u, l), mat in t.B.items()
                  if u in keep and l in keep}
        if kept_C and kept_B:
            terms.append(PencilTerm(t.letter, kept_C, kept_B))
        inner = {u for (_k, u) in t.C if u not in keep} & {u for (u, _l) in t.B}
        for u in sorted(inner):
            col = {(pos[k], 0): mat for (k, u2), mat in t.C.items()
                   if u2 == u and k in keep}
            row = {(0, pos[l]): mat for (u2, l), mat in t.B.items()
                   if u2 == u and l in keep}
            if col and row:
                terms.append(PencilTerm(t.letter, col, row))
    return Realization(r.m, r.p, len(order), c, b, tuple(terms))


def real_reduce(r: Realization) -> Realization:
    """Drop block coordinates that cannot influence the evaluation.

    Stage one keeps the coordinates reachable from the support of b along
    structural pencil couplings, stage two the ones observable from c
    within the survivors.  Evaluations agree with the original wherever
    both pencils are nonsingular; the block dimension never grows.
    """
    changed = True
    while changed:
        changed = False
        all_coords = set(range(r.dim))
        reach = _closure({k for k in all_coords if not r.b[k].is_zero()},
                         _structural_edges(r), forward=False)
        if reach != all_coords:
            r = _restrict(r, reach)
            changed = True
        all_coords = set(range(r.dim))
        observe = _closure({k for k in all_coords if not r.c[k].is_zero()},
                           _structural_edges(r), forward=True)
        if observe != all_coords:
            r = _restrict(r, observe)
            changed = True
    return r
