"""Exact dense linear algebra with Kronecker-product structure.

Matrices are dense, immutable by convention after construction, and carry
the field they live over: arbitrary-precision rationals (``QQ``) or a prime
field ``PrimeField(p)`` meant for fast randomized experiments.  All
arithmetic is exact; singularity is reported, never approximated.

Field elements are plain values (``fractions.Fraction`` over the rationals,
canonical ``int`` residues modulo p) and the field object supplies the
operations.  Matrices refuse to combine operands over different fields.

Each field owns its matrix product (``matmul``) and its one elimination,
``solve_det(a_rows, b_rows) -> (x_rows | None, det)``, which solves
``A X = B`` and returns det A on the way; ``det``, ``solve`` and ``inv_det``
only check their arguments and dispatch to it.  How a matrix stores its
rows is known to this module alone: block layouts are assembled by
``block_matrix`` and read back through ``entry``/``submatrix``.

Over the rationals the kernel computes on integers and makes ``Fraction``s
only for the entries it returns, so a matrix's ``data`` is always canonical
``Fraction``s while its inner loops pay no gcd per operation:

* a product writes each row of A and each column of B as integers over the
  lcm of that line's denominators, takes integer dot products and builds one
  ``Fraction(dot, den_i * den_j)`` per output entry;
* ``solve_det`` runs fraction-free Bareiss elimination on a row-scaled
  integer copy of ``[A | B]``, which keeps intermediate entries to
  minor-sized integers.  With ``d`` the signed last pivot (the determinant
  of the scaled A), ``y = d * x`` is integral by Cramer's rule, so back
  substitution ``y_i = (d * c_i - sum_{j>i} u_ij * y_j) // u_ii`` divides
  exactly and each solution entry is one ``Fraction(y_i, d)``.

Over ``PrimeField`` every operation reduces modulo p as it goes, and
``solve_det`` is Gauss-Jordan elimination with modular pivot inverses.

Structured operands are placed rather than multiplied: ``tau_embed`` copies
the entries of a slot matrix into the positions of I (x) A (x) I, and a
scalar c * I enters a product as ``Matrix.scale`` and a sum as
``Matrix.add_scalar``, so neither is ever a dense operand of ``matmul``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

_mul = operator.mul
_F0 = Fraction(0)
_F1 = Fraction(1)


def _over_common_den(line) -> tuple[int, list[int]]:
    """(d, ks) with line == [k / d for k in ks], d the lcm of the denominators."""
    d = lcm(*(x.denominator for x in line))
    if d == 1:
        return 1, [x.numerator for x in line]
    return d, [x.numerator * (d // x.denominator) for x in line]


#: 2**61 - 1, a Mersenne prime large enough that random small-entry data
#: essentially never collides with 0 mod p by accident.
MERSENNE61 = (1 << 61) - 1


class Rationals:
    """The field of arbitrary-precision rationals. Use the ``QQ`` singleton."""

    name = "QQ"
    zero = _F0
    one = _F1

    def of(self, x) -> Fraction:
        """Coerce an int, string like ``"-3/7"`` or Fraction into the field."""
        return Fraction(x)

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    @staticmethod
    def inv(a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / a

    @staticmethod
    def matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
        """Rows of a @ b for non-empty operands: integer dot products over each
        line's common denominator, one normalisation per entry."""
        b_cols = [_over_common_den(col) for col in zip(*b)]
        out = []
        for row in a:
            da, xs = _over_common_den(row)
            out.append([Fraction(sum(map(_mul, xs, ys)), da * db) for db, ys in b_cols])
        return out

    @staticmethod
    def solve_det(a_rows: list[list[Fraction]], b_rows: list[list[Fraction]] | None):
        """(rows of X, det A) with A X = B, or (None, 0) when A is singular.

        ``b_rows`` None stands for the identity, so X is A^{-1}.  Row
        scaling [A | B] to integers keeps the solutions; each row's
        multiplier divides the determinant back out.
        """
        n = len(a_rows)
        rows, dens = [], []
        for i, a_row in enumerate(a_rows):
            if b_rows is None:
                den, row = _over_common_den(a_row)
                row.extend(den if j == i else 0 for j in range(n))
            else:
                den, row = _over_common_den(a_row + b_rows[i])
            rows.append(row)
            dens.append(den)
        d = _bareiss_forward(rows, n)
        if d == 0:
            return None, _F0
        return _back_substitute(rows, n, d), Fraction(d, prod(dens))

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("QQ")


QQ = Rationals()


class PrimeField:
    """Integers modulo a prime, elements kept as canonical residues in [0, p)."""

    def __init__(self, p: int = MERSENNE61):
        if p < 2:
            raise ValueError("modulus must be at least 2")
        self.p = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        """Coerce an int, Fraction or string; fails if a denominator is 0 mod p."""
        f = Fraction(x)
        num = f.numerator % self.p
        if f.denominator == 1:
            return num
        return num * self.inv(f.denominator % self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        return pow(a, -1, self.p)

    def matmul(self, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        """Rows of a @ b for non-empty operands, each dot product reduced once."""
        p = self.p
        b_cols = list(zip(*b))
        return [[sum(map(_mul, row, col)) % p for col in b_cols] for row in a]

    def solve_det(self, a_rows: list[list[int]], b_rows: list[list[int]] | None):
        """(rows of X, det A) with A X = B, or (None, 0) when A is singular;
        ``b_rows`` None stands for the identity.  Gauss-Jordan elimination,
        testing pivots mod p since raw-constructed rows may hold
        non-canonical residues."""
        p = self.p
        n = len(a_rows)
        if b_rows is None:
            rows = [list(r) + [1 if j == i else 0 for j in range(n)]
                    for i, r in enumerate(a_rows)]
        else:
            rows = [list(r) + list(b) for r, b in zip(a_rows, b_rows)]
        det_acc = self.one
        for k in range(n):
            piv = next((r for r in range(k, n) if rows[r][k] % p != 0), None)
            if piv is None:
                return None, 0
            if piv != k:
                rows[k], rows[piv] = rows[piv], rows[k]
                det_acc = -det_acc % p
            inv_p = pow(rows[k][k], -1, p)
            det_acc = det_acc * rows[k][k] % p
            rows[k] = [x * inv_p % p for x in rows[k]]
            for i in range(n):
                if i != k and rows[i][k]:
                    f = rows[i][k]
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[k])]
        return [row[n:] for row in rows], det_acc

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))


class Matrix:
    """Dense matrix over a fixed field, stored as a list of row lists.

    The raw constructor trusts its input; use :meth:`of` to coerce entries
    through the field. Zero-row and zero-column shapes are legal (``cols``
    must be passed explicitly when there are no rows to infer it from).
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data: list, cols: int | None = None):
        self.field = field
        self.data = data
        self.rows = len(data)
        if data:
            self.cols = len(data[0])
            for row in data:
                if len(row) != self.cols:
                    raise ValueError("ragged rows in matrix data")
        else:
            self.cols = 0 if cols is None else cols

    # -- construction -----------------------------------------------------

    @classmethod
    def of(cls, field, data: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        return cls(field, [[field.of(x) for x in row] for row in data], cols)

    @classmethod
    def from_flat(cls, field, rows: int, cols: int, entries: Sequence) -> "Matrix":
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        it = iter(entries)
        return cls(field, [[field.of(next(it)) for _ in range(cols)] for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int, field=QQ) -> "Matrix":
        return scalar_matrix(n, field.one, field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field=QQ) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)], cols)

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def flat(self) -> list:
        return [x for row in self.data for x in row]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.data for x in row)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        return Matrix(self.field, [row[c0:c1] for row in self.data[r0:r1]], c1 - c0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other, same_shape: bool) -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        if same_shape and (self.rows != other.rows or self.cols != other.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other, same_shape=True)
        add = self.field.add
        return Matrix(self.field,
                      [list(map(add, ra, rb)) for ra, rb in zip(self.data, other.data)],
                      self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other, same_shape=True)
        sub = self.field.sub
        return Matrix(self.field,
                      [list(map(sub, ra, rb)) for ra, rb in zip(self.data, other.data)],
                      self.cols)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, [list(map(neg, row)) for row in self.data], self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other, same_shape=False)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if not (self.cols and other.cols):
            return Matrix.zeros(self.rows, other.cols, self.field)
        return Matrix(self.field, self.field.matmul(self.data, other.data), other.cols)

    def scale(self, c) -> "Matrix":
        mul = self.field.mul
        return Matrix(self.field, [[mul(c, x) for x in row] for row in self.data], self.cols)

    def add_scalar(self, c) -> "Matrix":
        """self + c * I for a square matrix and a field element c."""
        if not self.is_square():
            raise ValueError(f"cannot add a scalar to a {self.rows}x{self.cols} matrix")
        add = self.field.add
        data = [list(row) for row in self.data]
        for i, row in enumerate(data):
            row[i] = add(row[i], c)
        return Matrix(self.field, data, self.cols)

    def transpose(self) -> "Matrix":
        if not self.data:
            return Matrix(self.field, [[] for _ in range(self.cols)], 0)
        return Matrix(self.field, [list(col) for col in zip(*self.data)], self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        raise TypeError("Matrix is not hashable")

    def __repr__(self) -> str:
        if self.rows * self.cols > 36:
            return f"Matrix({self.field}, {self.rows}x{self.cols})"
        return f"Matrix({self.field}, {self.data})"


def scalar_matrix(n: int, c, field=QQ) -> Matrix:
    """c times the n-by-n identity."""
    c, z = field.of(c), field.zero
    return Matrix(field, [[c if i == j else z for j in range(n)] for i in range(n)], n)


# -- Kronecker structure ----------------------------------------------------


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i,j) of the result is a[i][j] * b.

    Zero and one entries of ``a`` copy a zero segment or the row of ``b``
    instead of multiplying, so a left identity factor costs no arithmetic.
    That serves the amplifications I_s (x) X of realizations and the block
    point of the calculus; slot embeddings use :func:`tau_embed`, which
    places entries without testing them.
    """
    a._check(b, same_shape=False)
    field = a.field
    mul, zero, one = field.mul, field.zero, field.one
    zeros = [zero] * b.cols
    data = []
    for arow in a.data:
        for brow in b.data:
            row = []
            for av in arow:
                if av == zero:
                    row += zeros
                elif av == one:
                    row += brow
                else:
                    row += [mul(av, bv) for bv in brow]
            data.append(row)
    return Matrix(field, data, a.cols * b.cols)


def block_matrix(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    """The matrix laid out from a non-empty rectangular grid of blocks.

    Blocks in one grid row share their row count, blocks in one grid column
    their column count, and all blocks one field; empty blocks are fine.
    """
    if not grid or not grid[0] or any(len(band) != len(grid[0]) for band in grid):
        raise ValueError("block grid must be a non-empty rectangle")
    first = grid[0][0]
    widths = [block.cols for block in grid[0]]
    data = []
    for band in grid:
        height = band[0].rows
        for block, width in zip(band, widths):
            first._check(block, same_shape=False)
            if block.rows != height or block.cols != width:
                raise ValueError(f"block is {block.rows}x{block.cols}, "
                                 f"its place wants {height}x{width}")
        for r in range(height):
            row = []
            for block in band:
                row += block.data[r]
            data.append(row)
    return Matrix(first.field, data, sum(widths))


def direct_sum(a: Matrix, b: Matrix) -> Matrix:
    """Block diagonal stacking; tolerates empty summands."""
    return block_matrix([[a, Matrix.zeros(a.rows, b.cols, a.field)],
                         [Matrix.zeros(b.rows, a.cols, a.field), b]])


def tau_embed(i: int, a: Matrix, dims: Sequence[int]) -> Matrix:
    """Embed ``a`` into the i-th tensor slot (1-based) of a Kronecker product.

    Returns I_{n_1} (x) ... (x) a (x) ... (x) I_{n_G} for the slot sizes in
    ``dims``; ``a`` must be square of size ``dims[i-1]``.  The image only
    places entries: with pre and post the sizes before and after the slot,
    row (p, r, q) holds row r of ``a`` at the columns (p, c, q), stride
    post apart, so each row is one slice assignment into a copy of a shared
    zero row and no field arithmetic is done.
    """
    if not 1 <= i <= len(dims):
        raise ValueError(f"slot {i} out of range for {len(dims)} slots")
    if not a.is_square() or a.rows != dims[i - 1]:
        raise ValueError(f"matrix is {a.rows}x{a.cols}, slot {i} wants size {dims[i - 1]}")
    n = a.rows
    pre = prod(dims[: i - 1])
    post = prod(dims[i:])
    width = n * post
    zeros = [a.field.zero] * (pre * width)
    data = []
    for p in range(pre):
        for arow in a.data:
            for start in range(p * width, p * width + post):
                row = zeros[:]
                row[start:start + width:post] = arow
                data.append(row)
    return Matrix(a.field, data, pre * width)


def _check_permutation(pi: Sequence[int], g: int) -> None:
    if sorted(pi) != list(range(1, g + 1)):
        raise ValueError(f"{tuple(pi)} is not a permutation of 1..{g}")


def _factor_permutation_map(pi: Sequence[int], dims: Sequence[int]) -> list[int]:
    # flat index map s with e_I -> e_{s(I)} when tensor factors are reordered
    # so that factor pi[k] lands in position k.
    g = len(dims)
    n = prod(dims)
    pdims = [dims[pi[k] - 1] for k in range(g)]
    # strides for mixed-radix encodings in both orders
    strides = [prod(dims[k + 1:]) for k in range(g)]
    pstrides = [prod(pdims[k + 1:]) for k in range(g)]
    out = [0] * n
    for flat in range(n):
        rem = flat
        multi = [0] * g
        for k in range(g):
            multi[k], rem = divmod(rem, strides[k]) if strides[k] != 1 else (rem, 0)
        out[flat] = sum(multi[pi[k] - 1] * pstrides[k] for k in range(g))
    return out


def commutation_matrix(pi: Sequence[int], dims: Sequence[int], field=QQ) -> Matrix:
    """Permutation matrix K with kron(a_pi(1), ..) = K @ kron(a_1, ..) @ K^T.

    ``pi`` is 1-based: pi[k] is the original slot that lands in position k+1.
    """
    _check_permutation(pi, len(dims))
    smap = _factor_permutation_map(pi, dims)
    n = len(smap)
    z, o = field.zero, field.one
    data = [[z] * n for _ in range(n)]
    for src, dst in enumerate(smap):
        data[dst][src] = o
    return Matrix(field, data, n)


def permute_kron_factors(m: Matrix, pi: Sequence[int], dims: Sequence[int]) -> Matrix:
    """K @ m @ K^T for the commutation matrix K, computed by index remapping."""
    _check_permutation(pi, len(dims))
    n = prod(dims)
    if m.rows != n or m.cols != n:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, dims imply {n}")
    smap = _factor_permutation_map(pi, dims)
    z = m.field.zero
    data = [[z] * n for _ in range(n)]
    for i in range(n):
        di = smap[i]
        row = m.data[i]
        target = data[di]
        for j in range(n):
            target[smap[j]] = row[j]
    return Matrix(m.field, data, n)


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


def _back_substitute(rows: list[list[int]], n: int, d: int) -> list[list[Fraction]]:
    """Solution of the eliminated system, fraction-free.

    With d the determinant of the eliminated block, y = d * x is integral,
    so every division below is exact; only the returned entries y / d are
    Fractions.  With no right-hand columns (a determinant) there is nothing
    to substitute.
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
    return [[Fraction(y, d) for y in yrow] for yrow in ys]


def det(a: Matrix):
    """Exact determinant; empty matrices have determinant one."""
    if not a.is_square():
        raise ValueError("determinant of a non-square matrix")
    return a.field.solve_det(a.data, [[]] * a.rows)[1]


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a @ x = b exactly; None when ``a`` is singular."""
    if not a.is_square():
        raise ValueError("solve needs a square coefficient matrix")
    if a.rows != b.rows:
        raise ValueError("right-hand side has wrong number of rows")
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field} vs {b.field}")
    x, _ = a.field.solve_det(a.data, b.data)
    return None if x is None else Matrix(a.field, x, b.cols)


def inv_det(a: Matrix):
    """(A^{-1}, det A) for invertible A, or None when A is singular."""
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    x, d = a.field.solve_det(a.data, None)
    return None if x is None else (Matrix(a.field, x, a.rows), d)
