"""Exact dense linear algebra over the rationals, with Kronecker-product
structure.

Every matrix is over ℚ, the arbitrary-precision rationals: the kernel has
one number type, so no operation takes or compares a field.  Matrices are
dense and immutable by convention after construction.  All arithmetic is
exact; singularity is reported, never approximated.

Entries are ``fractions.Fraction`` values where they are read back.  The
constructors ``Matrix(QQ, rows)``, ``Matrix.of(QQ, ...)`` and
``Matrix.from_flat(QQ, ...)`` take ``QQ`` as their first argument and refuse
any other value with ``TypeError``; ``QQ`` names ℚ and carries nothing else.

A matrix stores integer rows ``num`` over one positive denominator ``den``
with gcd(den, entries) = 1, so ``==`` compares ``den`` and ``num``.
Fractions exist only at the boundary: ``_lift`` turns them into
(num, den), ``_value`` turns entries back for ``data``, ``entry`` and
``flat``.  Sums, products, scalings and Kronecker products compute on the
integers and call ``_normalise`` once (a gcd pass); transposes and slot
embeddings only move entries.

The one elimination is ``_solve_det(a, b) -> ((num, den) | None, det)``,
which solves ``A X = B`` and returns det A on the way; ``det`` and ``solve``
only check and dispatch, and so does ``inv_det`` above 3x3.  Up to 3x3
``inv_det`` takes the adjugate of the integer rows in closed form instead,
den * adj / det over one ``_normalise``, which gives the same canonical
result several times faster.  ``_solve_det`` is fraction-free Bareiss
elimination on the stored integers ``[Na | Nb]`` of A = Na / Da and
B = Nb / Db.  With dN = det Na (the signed last pivot), y = dN * Na^-1 Nb
is integral by Cramer's rule, so back substitution
``y_i = (dN * c_i - sum_{j>i} u_ij * y_j) // u_ii`` divides exactly; then
X = Da * y / (dN * Db) and det A = dN / Da^n.

A zero/nonzero question about a determinant is ``_det_nonzero``: it
reduces the integer rows mod 2^61 - 1 and takes their determinant there
by forward elimination on residues, and runs exact Bareiss only when that
is 0.  ``det`` itself stays exact.

Structured operands are placed rather than multiplied.  ``place`` copies the
entries of a matrix on some tensor slots into the positions of its image
with identities on the other slots (``tau_embed`` is its one-slot case, I
(x) A (x) I); a matrix on disjoint slots joins it by ``kron`` and
``permute_kron_factors``; and a scalar c * I enters a product as
``Matrix.scale`` and a sum as ``Matrix.add_scalar``.  None of them is ever a
dense operand of ``matmul``: an amplified factor I_s (x) X multiplies by row
bands in ``amplified_matmul``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

_mul = operator.mul

#: 2**61 - 1, a Mersenne prime large enough that random small-entry data
#: essentially never collides with 0 mod p by accident.
MERSENNE61 = (1 << 61) - 1


class Rationals:
    """The type of ``QQ``, which names ℚ as the constructors' first argument."""

    def __repr__(self) -> str:
        return "QQ"


QQ = Rationals()


def _lift(rows):
    """Canonical (num, den) of rows of Fractions or ints: den is the lcm
    of the denominators, so no gcd pass is needed."""
    den = lcm(*{x.denominator for row in rows for x in row})
    if den == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _normalise(num: list[list[int]], den: int):
    """(num, den) over a positive den sharing no factor with all of num:
    one gcd pass, which stops at the first row that brings it to 1."""
    if den < 0:
        num, den = [[-k for k in row] for row in num], -den
    g = den
    for row in num:
        if g == 1:
            return num, den
        g = gcd(g, *row)
    if g == 1:
        return num, den
    return [[k // g for k in row] for row in num], den // g


def _value(k: int, den: int) -> Fraction:
    return Fraction(k) if den == 1 else Fraction(k, den)


def _solve_det(a: "Matrix", b: "Matrix"):
    """((num, den) of X, det A) with A X = B, or (None, 0) when A is
    singular."""
    n, da = a.rows, a.den
    rows = [ra + rb for ra, rb in zip(a.num, b.num)]
    dn = _bareiss_forward(rows, n)
    if dn == 0:
        return None, Fraction(0)
    ys = _back_substitute(rows, n, dn)
    if da != 1:
        ys = [[da * y for y in row] for row in ys]
    return _normalise(ys, dn * b.den), Fraction(dn, da ** n)


class Matrix:
    """Dense rational matrix: integer rows ``num`` over one positive
    denominator ``den``, in canonical form.

    The constructor takes ``QQ`` and rows of ``Fraction``s or ints;
    :meth:`of` also coerces other entries, such as ``"-3/7"``, through
    ``Fraction``.  ``data``, ``entry`` and ``flat`` give ``Fraction``s back.
    Zero-row and zero-column shapes are legal (``cols`` must be passed
    explicitly when there are no rows to infer it from).
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, field, data: Sequence[Sequence], cols: int | None = None):
        if field is not QQ:
            raise TypeError(f"matrices are over QQ only, got {field!r}")
        self.rows = len(data)
        if data:
            self.cols = len(data[0])
            for row in data:
                if len(row) != self.cols:
                    raise ValueError("ragged rows in matrix data")
        else:
            self.cols = 0 if cols is None else cols
        self.num, self.den = _lift(data)

    # -- construction -----------------------------------------------------

    @classmethod
    def _raw(cls, num, den, cols) -> "Matrix":
        """The matrix num / den, trusted to be canonical already."""
        m = object.__new__(cls)
        m.num, m.den, m.rows, m.cols = num, den, len(num), cols
        return m

    @classmethod
    def _normal(cls, num, den, cols) -> "Matrix":
        return cls._raw(*_normalise(num, den), cols)

    @classmethod
    def of(cls, field, data: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        """Entries coerced through ``Fraction``; ints go to ``_lift`` as they are."""
        return cls(field, [[x if type(x) is int else Fraction(x) for x in row] for row in data],
                   cols)

    @classmethod
    def from_flat(cls, field, rows: int, cols: int, entries: Sequence) -> "Matrix":
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        return cls.of(field, [entries[r * cols:(r + 1) * cols] for r in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return scalar_matrix(n, 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._raw([[0] * cols for _ in range(rows)], 1, cols)

    # -- access ------------------------------------------------------------

    @property
    def data(self) -> list:
        """The rows as canonical ``Fraction``s."""
        den = self.den
        return [[_value(k, den) for k in row] for row in self.num]

    def entry(self, i: int, j: int):
        return _value(self.num[i][j], self.den)

    def flat(self) -> list:
        return [x for row in self.data for x in row]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        return Matrix._normal([row[c0:c1] for row in self.num[r0:r1]], self.den, c1 - c0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other, same_shape: bool) -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if same_shape and (self.rows != other.rows or self.cols != other.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        # self op other over the lcm of the two denominators
        self._check(other, same_shape=True)
        da, db = self.den, other.den
        if da == db:
            den = da
            num = [list(map(op, ra, rb)) for ra, rb in zip(self.num, other.num)]
        else:
            den = lcm(da, db)
            fa, fb = den // da, den // db
            num = [[op(fa * x, fb * y) for x, y in zip(ra, rb)]
                   for ra, rb in zip(self.num, other.num)]
        return Matrix._normal(num, den, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.sub)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other, same_shape=False)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if not (self.cols and other.cols):
            return Matrix.zeros(self.rows, other.cols)
        cols = list(zip(*other.num))
        num = [[sum(map(_mul, row, col)) for col in cols] for row in self.num]
        return Matrix._normal(num, self.den * other.den, other.cols)

    def scale(self, c) -> "Matrix":
        """c * self for a ``Fraction`` or int c."""
        p = c.numerator
        return Matrix._normal([[p * k for k in row] for row in self.num],
                              self.den * c.denominator, self.cols)

    def add_scalar(self, c) -> "Matrix":
        """self + c * I for a square matrix and a ``Fraction`` or int c."""
        if not self.is_square():
            raise ValueError(f"cannot add a scalar to a {self.rows}x{self.cols} matrix")
        p, q = c.numerator, c.denominator
        den = lcm(self.den, q)
        f, diag = den // self.den, p * (den // q)
        num = [[f * k for k in row] for row in self.num]
        for i, row in enumerate(num):
            row[i] += diag
        return Matrix._normal(num, den, self.cols)

    def transpose(self) -> "Matrix":
        if not self.num:
            return Matrix._raw([[] for _ in range(self.cols)], 1, 0)
        return Matrix._raw([list(col) for col in zip(*self.num)], self.den, self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        raise TypeError("Matrix is not hashable")

    def __repr__(self) -> str:
        if self.rows * self.cols > 36:
            return f"Matrix(QQ, {self.rows}x{self.cols})"
        return f"Matrix(QQ, {self.data})"


def scalar_matrix(n: int, c) -> Matrix:
    """c times the n-by-n identity."""
    c = Fraction(c)
    p = c.numerator
    return Matrix._normal([[p if i == j else 0 for j in range(n)] for i in range(n)],
                          c.denominator, n)


# -- Kronecker structure ----------------------------------------------------


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i,j) of the result is a[i][j] * b.

    Zero and one entries of ``a``'s integer rows copy a zero segment or the
    row of ``b`` instead of multiplying, so a left identity factor costs no
    arithmetic; slot embeddings use :func:`tau_embed`, which places entries
    without testing them.
    """
    a._check(b, same_shape=False)
    zeros = [0] * b.cols
    num = []
    for arow in a.num:
        for brow in b.num:
            row = []
            for av in arow:
                if av == 0:
                    row += zeros
                elif av == 1:
                    row += brow
                else:
                    row += [av * bv for bv in brow]
            num.append(row)
    return Matrix._normal(num, a.den * b.den, a.cols * b.cols)


def amplified_matmul(x: Matrix, y: Matrix) -> Matrix:
    """(I_s (x) x) @ y for the s that fits y's rows, I_s (x) x never formed:
    row band i of the product is x times the i-th x.cols-row slice of y."""
    x._check(y, same_shape=False)
    m = x.cols
    if m == 0 and y.rows or m and y.rows % m:
        raise ValueError(f"cannot amplify {x.rows}x{m} to multiply {y.rows}x{y.cols}")
    num = []
    for i in range(0, y.rows, m or 1):
        cols = list(zip(*y.num[i:i + m]))
        num += [[sum(map(_mul, row, col)) for col in cols] for row in x.num]
    return Matrix._normal(num, x.den * y.den, y.cols)


def block_matrix(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    """The matrix laid out from a non-empty rectangular grid of blocks.

    Blocks in one grid row share their row count, blocks in one grid column
    their column count; empty blocks are fine.  The blocks' rows are
    brought over the lcm of their denominators, which keeps the result
    canonical as ``_lift`` does for entries.
    """
    if not grid or not grid[0] or any(len(band) != len(grid[0]) for band in grid):
        raise ValueError("block grid must be a non-empty rectangle")
    first = grid[0][0]
    widths = [block.cols for block in grid[0]]
    for band in grid:
        for block, width in zip(band, widths):
            first._check(block, same_shape=False)
            if block.rows != band[0].rows or block.cols != width:
                raise ValueError(f"block is {block.rows}x{block.cols}, "
                                 f"its place wants {band[0].rows}x{width}")
    den = lcm(*(block.den for band in grid for block in band))
    num = []
    for band in grid:
        lines = [block.num if block.den == den
                 else [[den // block.den * k for k in row] for row in block.num]
                 for block in band]
        num += [[k for part in parts for k in part] for parts in zip(*lines)]
    return Matrix._raw(num, den, sum(widths))


def direct_sum(a: Matrix, b: Matrix) -> Matrix:
    """Block diagonal stacking; tolerates empty summands."""
    return block_matrix([[a, Matrix.zeros(a.rows, b.cols)],
                         [Matrix.zeros(b.rows, a.cols), b]])


def place(a: Matrix, slots: Sequence[int], dims: Sequence[int]) -> Matrix:
    """Put ``a`` on some tensor slots of a Kronecker product, identities on
    the others.

    ``slots`` are increasing 0-based positions in ``dims`` and ``a`` is
    square of the size of their product: on slots (0, 2) of (2, 3, 4), ``a``
    is 8-by-8 and its image is a (x) I_3 with the factors put back in slot
    order.  Adjacent slots give I_pre (x) a (x) I_post, which only
    places entries: with post the size after the slots, row (p, r, q) holds
    row r of ``a`` at the columns (p, c, q), stride post apart, so each row
    is one slice assignment into a copy of a shared zero row, over ``a``'s
    denominator, and no arithmetic is done.  Other slots are placed first
    and then moved, with the factors left over, by ``permute_kron_factors``.
    """
    g = len(dims)
    if list(slots) != sorted(set(slots)) or slots and not 0 <= slots[0] <= slots[-1] < g:
        raise ValueError(f"slots {tuple(slots)} are not increasing positions in {g} slots")
    k = prod(dims[s] for s in slots)
    if not a.is_square() or a.rows != k:
        raise ValueError(f"matrix is {a.rows}x{a.cols}, slots {tuple(slots)} want size {k}")
    first = slots[0] if slots else 0
    if slots and slots[-1] - first >= len(slots):
        order = [*slots, *(s for s in range(g) if s not in slots)]
        moved = [dims[s] for s in order]
        return permute_kron_factors(place(a, range(len(slots)), moved),
                                    [order.index(s) + 1 for s in range(g)], moved)
    pre = prod(dims[:first])
    post = prod(dims[first + len(slots):])
    width = k * post
    zeros = [0] * (pre * width)
    num = []
    for p in range(pre):
        for arow in a.num:
            for start in range(p * width, p * width + post):
                row = zeros[:]
                row[start:start + width:post] = arow
                num.append(row)
    # an empty image has den 1, like every empty matrix
    return Matrix._raw(num, a.den if num else 1, pre * width)


def tau_embed(i: int, a: Matrix, dims: Sequence[int]) -> Matrix:
    """Embed ``a`` into the i-th tensor slot (1-based) of a Kronecker product.

    Returns I_{n_1} (x) ... (x) a (x) ... (x) I_{n_G} for the slot sizes in
    ``dims``; ``a`` must be square of size ``dims[i-1]``.  This is
    :func:`place` on the one slot i - 1.
    """
    if not 1 <= i <= len(dims):
        raise ValueError(f"slot {i} out of range for {len(dims)} slots")
    return place(a, (i - 1,), dims)


def _check_permutation(pi: Sequence[int], g: int) -> None:
    if sorted(pi) != list(range(1, g + 1)):
        raise ValueError(f"{tuple(pi)} is not a permutation of 1..{g}")


def _factor_sources(pi: Sequence[int], dims: Sequence[int]) -> list[int]:
    # t with e_J = e_{t(J)} once the tensor factors are reordered so that
    # factor pi[k] lands in position k: J's digits, read in the new order,
    # carry the strides of their original factors.
    strides = [prod(dims[s + 1:]) for s in range(len(dims))]
    out = [0]
    for p in pi:
        out = [x + i * strides[p - 1] for x in out for i in range(dims[p - 1])]
    return out


def commutation_matrix(pi: Sequence[int], dims: Sequence[int]) -> Matrix:
    """Permutation matrix K with kron(a_pi(1), ..) = K @ kron(a_1, ..) @ K^T.

    ``pi`` is 1-based: pi[k] is the original slot that lands in position k+1.
    """
    _check_permutation(pi, len(dims))
    sources = _factor_sources(pi, dims)
    n = len(sources)
    num = [[0] * n for _ in range(n)]
    for dst, src in enumerate(sources):
        num[dst][src] = 1
    return Matrix._raw(num, 1, n)


def permute_kron_factors(m: Matrix, pi: Sequence[int], dims: Sequence[int]) -> Matrix:
    """K @ m @ K^T for the commutation matrix K, computed by index remapping."""
    _check_permutation(pi, len(dims))
    n = prod(dims)
    if m.rows != n or m.cols != n:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, dims imply {n}")
    t = _factor_sources(pi, dims)
    return Matrix._raw([[m.num[i][j] for j in t] for i in t], m.den, n)


# -- elimination -------------------------------------------------------------


def _bareiss_forward(rows: list[list[int]], n: int) -> int:
    """Fraction-free elimination of the left n-by-n block to upper
    triangular form, in place.

    Returns the determinant of that block (the last pivot, signed by the
    row swaps), or 0 if it is singular.  Every row below the pivot is
    rescaled each step (also when its pivot-column entry is zero); the
    theory needs that for later divisions to stay exact.
    """
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        rk = rows[k]
        pk = rk[k]
        width = len(rk)
        for i in range(k + 1, n):
            ri = rows[i]
            rik = ri[k]
            for j in range(k + 1, width):
                ri[j] = (pk * ri[j] - rik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * prev


def _back_substitute(rows: list[list[int]], n: int, d: int) -> list[list[int]]:
    """y = d * x for the solution x of the eliminated system.

    With d the determinant of the eliminated block, y is integral, so every
    division below is exact.  With no right-hand columns (a determinant)
    there is nothing to substitute.
    """
    if not n or len(rows[0]) == n:
        return [[] for _ in rows]
    ys: list[list[int]] = [[]] * n
    for i in reversed(range(n)):
        ri = rows[i]
        acc = [d * c for c in ri[n:]]
        for j in range(i + 1, n):
            u = ri[j]
            if u:
                acc = [s - u * y for s, y in zip(acc, ys[j])]
        piv = ri[i]
        ys[i] = [s // piv for s in acc]
    return ys


def det(a: Matrix):
    """Exact determinant; empty matrices have determinant one."""
    if not a.is_square():
        raise ValueError("determinant of a non-square matrix")
    return _solve_det(a, Matrix.zeros(a.rows, 0))[1]


def _det_mod(num: list[list[int]], p: int) -> int:
    """det(num) mod the prime p: forward elimination on the residues of the
    integer rows, with modular pivot inverses."""
    rows = [[k % p for k in row] for row in num]
    n = len(rows)
    d = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            d = -d
        rk = rows[k]
        pk = rk[k]
        d = d * pk % p
        inv = pow(pk, -1, p)
        tail = rk[k + 1:]
        for ri in rows[k + 1:]:
            f = ri[k] * inv % p
            if f:
                ri[k + 1:] = [(x - f * y) % p for x, y in zip(ri[k + 1:], tail)]
    return d


def _det_nonzero(m: Matrix) -> bool:
    """Whether det m != 0, certified mod 2^61 - 1 where that suffices.

    det(num) = den^n * det m is an integer and reduction mod p is a ring
    homomorphism, so a nonzero det(num) mod p proves det m != 0 with no
    condition on the denominator; only a determinant that is 0 mod p runs
    exact Bareiss.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    return _det_mod(m.num, MERSENNE61) != 0 or det(m) != 0


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a @ x = b exactly; None when ``a`` is singular."""
    if not a.is_square():
        raise ValueError("solve needs a square coefficient matrix")
    if a.rows != b.rows:
        raise ValueError("right-hand side has wrong number of rows")
    x, _ = _solve_det(a, b)
    return None if x is None else Matrix._raw(*x, b.cols)


#: the largest size whose inverse ``inv_det`` takes from the adjugate; the
#: evaluator inverts a larger sum that holds an inverse through that inverse
CLOSED_FORM_MAX = 3


def _adjugate(num: list[list[int]]):
    """(adj N, det N) of an integer matrix of size at most CLOSED_FORM_MAX."""
    n = len(num)
    if n < 2:
        return [[1]] * n, num[0][0] if n else 1
    if n == 2:
        (a, b), (c, d) = num
        return [[d, -b], [-c, a]], a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = num
    c0, c1, c2 = e * i - f * h, f * g - d * i, d * h - e * g
    return ([[c0, c * h - b * i, b * f - c * e],
             [c1, a * i - c * g, c * d - a * f],
             [c2, b * g - a * h, a * e - b * d]], a * c0 + b * c1 + c * c2)


def inv_det(a: Matrix):
    """(A^{-1}, det A) for invertible A, or None when A is singular.

    Up to CLOSED_FORM_MAX rows, with A = N / den and dn = det N, the inverse
    is den * adj N / dn and det A = dn / den^n; larger sizes eliminate.
    """
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = a.rows
    if n > CLOSED_FORM_MAX:
        x, d = _solve_det(a, Matrix.identity(n))
        return None if x is None else (Matrix._raw(*x, n), d)
    adj, dn = _adjugate(a.num)
    if dn == 0:
        return None
    den = a.den
    if den != 1:
        adj = [[den * k for k in row] for row in adj]
    return Matrix._raw(*_normalise(adj, dn), n), Fraction(dn, den ** n)
