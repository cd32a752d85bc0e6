"""Evaluation of rational expressions on tuples of matrices.

Three evaluation models share one engine:

* nc-evaluation plugs one square matrix per letter into the expression,
  ignoring the part structure entirely.
* mp-evaluation works in M_{n₁}⊗⋯⊗M_{n_G}: a letter of slot s acts as
  I⊗X⊗I with X on slot s, so that distinct parts commute.  Part 1 is the
  outermost tensor factor; a primed part occupies its own slot
  immediately before its unprimed sibling.
* bf-evaluation (two equal-sized letter families X, Y over g indices) uses
  g+2 slots of size n: X_i acts on the first slot and middle slot i, Y_i on
  the last slot and middle slot i.

An inverse of a singular matrix does not raise; evaluation returns an
``Undefined`` record naming the offending Inverse node and its path from
the root, and the failure propagates outward.  Within one call, each node,
and so each distinct subexpression (nodes are interned), is evaluated once.

Values are slot-local.  The value of a subtree with letters is a pair
(slots, M): slots is the sorted tuple of tensor slots its letters touch,
and M is a matrix on the product of those slots only, standing for M with
identities on every other slot.  An mp letter is ((s,), X), an nc letter
((0,), X) on one slot of size n, and a bf letter the Kronecker product of
its two matrices on its two slots.  Values on equal slots add, multiply
and invert at their own size (I⊗M is invertible exactly when M is).  A
product of values on disjoint slots is their ``kron``, its factors put
back in slot order, with no matrix product.  Values on overlapping slots,
and the terms of a sum, are placed (``place``) into the union of their
slots only; the root alone is placed into every slot.  At a point with a
slot of size 0 every value, every inverse included, is the 0x0 matrix.

Constants are applied as scalars.  A letter-free subtree (a ``Const``, or
a ``Sum``, ``Product`` or ``Inverse`` of such) is memoized as its rational
value c, a ``Fraction`` which stands for c * I; the inverse of c = 0 is
undefined.  The scalar children of a ``Product`` fold into one c that
scales the product of the other factors once (not at all when c = 1); those
of a ``Sum`` fold into one c added on the diagonal of the sum of the other
terms (not at all when c = 0).  A scalar becomes a matrix only as the value
of the root, c * I.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import add, mul

from .expression import (
    Alphabet,
    Const,
    Expr,
    Inverse,
    Product,
    Sum,
    Var,
    _path_to,
    validate_vars,
    walk,
)
from .matrix_kernel import (
    Matrix,
    inv_det,
    kron,
    permute_kron_factors,
    place,
    scalar_matrix,
    tau_embed,
)


@dataclass(frozen=True)
class Undefined:
    """An Inverse node whose argument evaluated to a singular matrix."""

    subexpr: Expr
    path: tuple[int, ...]


class UndefinedError(ValueError):
    """Raised by operations that cannot return an Undefined value."""

    def __init__(self, undefined: Undefined):
        super().__init__(f"expression undefined at this point "
                         f"(inverse at path {list(undefined.path)})")
        self.undefined = undefined


@dataclass(frozen=True)
class MpPoint:
    """One tuple of square matrices per alphabet slot; slot i's matrices all
    share the size dims[i]."""

    alphabet: Alphabet
    parts: tuple[tuple[Matrix, ...], ...]

    def __post_init__(self):
        slots = self.alphabet.slots()
        object.__setattr__(self, "parts", tuple(tuple(p) for p in self.parts))
        if len(self.parts) != len(slots):
            raise ValueError(f"expected {len(slots)} slot tuples, got {len(self.parts)}")
        for (part, _), mats in zip(slots, self.parts):
            if len(mats) != self.alphabet.size_of(part):
                raise ValueError(f"part {part} needs {self.alphabet.size_of(part)} matrices")
            size = mats[0].rows
            for m in mats:
                if not m.is_square() or m.rows != size:
                    raise ValueError(f"part {part}: matrices must all be {size}x{size}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(mats[0].rows for mats in self.parts)


@dataclass(frozen=True)
class NcPoint:
    """One n-by-n matrix per letter, flat in the alphabet's letter order."""

    alphabet: Alphabet
    mats: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "mats", tuple(self.mats))
        letters = self.alphabet.letters()
        if len(self.mats) != len(letters):
            raise ValueError(f"expected {len(letters)} matrices, got {len(self.mats)}")
        n = self.mats[0].rows
        for m in self.mats:
            if not m.is_square() or m.rows != n:
                raise ValueError(f"all matrices must be {n}x{n}")

    @property
    def n(self) -> int:
        return self.mats[0].rows


@dataclass(frozen=True)
class BfPoint:
    """Data for bf-evaluation: per index i ≤ g an outer/inner pair for the
    X family (a_outer acts on slot 1, a_inner on middle slot i) and one for
    the Y family (b_inner on middle slot i, b_outer on the last slot)."""

    g: int
    n: int
    a_outer: tuple[Matrix, ...]
    a_inner: tuple[Matrix, ...]
    b_inner: tuple[Matrix, ...]
    b_outer: tuple[Matrix, ...]

    def __post_init__(self):
        if self.g < 1:
            raise ValueError(f"g must be at least 1 (got {self.g})")
        for name in ("a_outer", "a_inner", "b_inner", "b_outer"):
            mats = tuple(getattr(self, name))
            object.__setattr__(self, name, mats)
            if len(mats) != self.g:
                raise ValueError(f"{name} needs {self.g} matrices")
            for m in mats:
                if not m.is_square() or m.rows != self.n:
                    raise ValueError(f"{name}: matrices must be {self.n}x{self.n}")


def tau_point(a: MpPoint) -> NcPoint:
    """Embed every slot's matrices into the common n₁⋯n_G tensor space."""
    dims = a.dims
    mats = []
    for s, slot_mats in enumerate(a.parts):
        mats.extend(tau_embed(s + 1, m, dims) for m in slot_mats)
    return NcPoint(a.alphabet, tuple(mats))


def _slot_letters(point: NcPoint | MpPoint | BfPoint):
    """(alphabet, slot sizes, each letter's (slots, matrix) in letter order)."""
    if isinstance(point, MpPoint):
        return point.alphabet, point.dims, [((s,), m) for s, mats in enumerate(point.parts)
                                            for m in mats]
    if isinstance(point, NcPoint):
        return point.alphabet, (point.n,), [((0,), m) for m in point.mats]
    g, last = point.g, point.g + 1
    xs = [((0, 1 + i), kron(point.a_outer[i], point.a_inner[i])) for i in range(g)]
    ys = [((1 + i, last), kron(point.b_inner[i], point.b_outer[i])) for i in range(g)]
    return Alphabet((g, g)), (point.n,) * (g + 2), xs + ys


class Evaluator:
    """Bottom-up evaluator over one point, memoizing shared subtrees.

    Reusable across expressions over the same point: matrix_rational
    evaluates whole expression matrices, and every pivot test of one Schur
    recursion at one sample point, through one instance.  The memo maps
    each node with a defined value to that value: a ``Fraction`` c standing
    for c * I when the subtree has no letters, or a pair (slots, M) of the
    sorted tensor slots its letters touch and a matrix M on them.  ``n`` is
    the size of a root value, the product of the slot sizes.

    A run does not enter a memoized subtree.  Values are stored children
    first and a run stops at its first singular inverse, which is not
    stored, so every node below a memoized one is memoized too.  The first
    Undefined a run meets, with its path, is then the one a full walk would
    meet.
    """

    def __init__(self, point: NcPoint | MpPoint | BfPoint):
        self.point = point
        self.alphabet, self.dims, values = _slot_letters(point)
        self.slots = tuple(range(len(self.dims)))
        self.n = prod(self.dims)
        self.lookup = dict(zip(self.alphabet.letters(), values))
        self.memo: dict[Expr, object] = {}

    def run(self, e: Expr) -> Matrix | Undefined:
        """Value of e, or the Undefined of the first singular inverse in walk
        order, which is the first one a left-to-right evaluation meets.

        Letters are checked against the alphabet only when a lookup misses
        and before an Undefined is returned, so a letter outside the
        alphabet raises ``validate_vars``'s error wherever it sits in e.
        """
        if not self.n:
            # a slot of size 0: every value is 0x0, and so is every inverse
            validate_vars(e, self.alphabet)
            return Matrix.zeros(0, 0)
        memo = self.memo
        for node in walk(e, skip=memo):
            try:
                v = self._value(node)
            except KeyError:  # a letter missing from the point
                validate_vars(e, self.alphabet)
                raise
            if v is None:
                validate_vars(e, self.alphabet)
                return Undefined(node, _path_to(e, node))
            memo[node] = v
        v = memo[e]
        if isinstance(v, tuple):
            return self._on(v, self.slots)
        return scalar_matrix(self.n, v)

    def _value(self, node: Expr):
        # from the memoized values of the node's children
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return self.lookup[node]
        if isinstance(node, Sum):
            return self._combine(node.terms, self._sum, add, 0, Matrix.add_scalar)
        if isinstance(node, Product):
            return self._combine(node.factors, self._product, mul, 1, Matrix.scale)
        if isinstance(node, Inverse):
            v = self.memo[node.arg]
            if not isinstance(v, tuple):
                return 1 / v if v else None
            # I_k (x) M is singular exactly when M is: k > 0, as run
            # returns early at a slot of size 0
            slots, m = v
            pair = inv_det(m)
            return None if pair is None else (slots, pair[0])
        raise TypeError(f"not an expression node: {type(node).__name__}")

    def _combine(self, kids, join, scalar_op, unit, apply):
        """The kids' values joined by join, with the scalar values folded by
        scalar_op into one scalar that apply puts on the matrix once; a
        scalar when no kid has letters.

        ``unit`` is the int 0 or 1, the identity of scalar_op; a ``Fraction``
        compares with an int faster than with another ``Fraction``.
        """
        memo = self.memo
        values = [memo[k] for k in kids]
        mats = [v for v in values if isinstance(v, tuple)]
        if len(mats) == len(values):
            return join(mats)
        c = reduce(scalar_op, [v for v in values if not isinstance(v, tuple)])
        if not mats:
            return c
        slots, m = join(mats)
        return (slots, m) if c == unit else (slots, apply(m, c))

    def _on(self, v, slots):
        # the matrix of the value v placed on slots, a superset of its own
        own, m = v
        if own == slots:
            return m
        return place(m, [slots.index(s) for s in own], [self.dims[s] for s in slots])

    def _sum(self, values):
        slots = values[0][0]
        if any(v[0] != slots for v in values):
            slots = tuple(sorted({s for v in values for s in v[0]}))
        return slots, reduce(add, [self._on(v, slots) for v in values])

    def _product(self, values):
        return reduce(self._times, values)

    def _times(self, x, y):
        # values on disjoint slots commute: their product is a kron with its
        # factors in slot order
        (s, a), (t, b) = x, y
        if s == t:
            return s, a @ b
        if s[-1] < t[0]:
            return s + t, kron(a, b)
        if t[-1] < s[0]:
            return t + s, kron(b, a)
        if set(s).isdisjoint(t):
            order = s + t
            slots = tuple(sorted(order))
            return slots, permute_kron_factors(kron(a, b), [order.index(u) + 1 for u in slots],
                                               [self.dims[u] for u in order])
        slots = tuple(sorted({*s, *t}))
        return slots, self._on(x, slots) @ self._on(y, slots)


def nc_evaluate(e: Expr, point: NcPoint) -> Matrix | Undefined:
    """Plug the point's matrices into the expression, one per letter."""
    return Evaluator(point).run(e)


def mp_evaluate(e: Expr, a: MpPoint) -> Matrix | Undefined:
    """Evaluate in M_{n₁⋯n_G}, each letter acting on its own tensor slot."""
    return Evaluator(a).run(e)


def bf_evaluate(e: Expr, p: BfPoint) -> Matrix | Undefined:
    """Evaluate an expression over two g-letter parts in the g+2 slot model.

    Part 1 letters are the X family, part 2 the Y family.  The result has
    size n^(g+2).  Each letter is the product of two embeddings in distinct
    slots, one of them the first or the last, so it enters as one Kronecker
    product on its two slots: X_i = A_outer (x) A_inner on slots 1 and 1+i,
    Y_i = B_inner (x) B_outer on slots 1+i and g+2.
    """
    return Evaluator(p).run(e)


def ell_collapse(m: Matrix, n: int, g: int) -> Matrix:
    """Collapse an n^g tensor-space matrix to n-by-n by multiplying factors.

    Linear extension of E_{i₁j₁}⊗⋯⊗E_{i_g j_g} ↦ E_{i₁j₁}⋯E_{i_g j_g}; the
    matrix-unit product telescopes, so entry (r, c) sums the entries whose
    row multi-index is (r, t) and column multi-index (t, c) over all
    (g−1)-tuples t.
    """
    if g < 1 or n < 1:
        raise ValueError("need n ≥ 1 and g ≥ 1")
    size = n ** g
    if m.rows != size or m.cols != size:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, expected {size}x{size}")
    inner = n ** (g - 1)
    num = m.num
    return Matrix._normal([[sum(num[r * inner + t][t * n + c] for t in range(inner))
                            for c in range(n)] for r in range(n)], m.den, n)


def check_multipartite_tuple(p: NcPoint) -> bool:
    """True when matrices assigned to different slots pairwise commute."""
    letters = p.alphabet.letters()
    for i, v in enumerate(letters):
        for j in range(i + 1, len(letters)):
            w = letters[j]
            if (v.part, v.primed) == (w.part, w.primed):
                continue
            a, b = p.mats[i], p.mats[j]
            if a @ b != b @ a:
                return False
    return True


def tau_point_of_nc(b: NcPoint) -> NcPoint:
    """b's letters grouped by alphabet slot into an MpPoint, n by n on every
    slot, and embedded by tau_point into (n, …, n).  For a commuting tuple
    this is the point the collapse map relates back to b."""
    ab = b.alphabet
    parts: list[list[Matrix]] = [[] for _ in ab.slots()]
    for v, m in zip(ab.letters(), b.mats):
        parts[ab.slot_index(v.part, v.primed)].append(m)
    return tau_point(MpPoint(ab, tuple(map(tuple, parts))))
