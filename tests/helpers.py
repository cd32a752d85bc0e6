"""Shared test utilities.

``naive_*`` functions form an independent reference implementation on plain
lists of Fractions (own Kronecker, own Gauss-Jordan inverse, no memoization)
so that library results are checked against a second code path, not against
themselves.
"""

from fractions import Fraction
from math import prod

from mprat.evaluation import MpPoint, NcPoint, Undefined
from mprat.expression import Alphabet, Const, Expr, Inverse, Product, Sum, Var, parse
from mprat.matrix_kernel import QQ, Matrix, inv_det

F = Fraction


# -- random data ----------------------------------------------------------------


def rand_matrix(rng, n, bound=10):
    return Matrix.of(QQ, [[rng.randint(-bound, bound) for _ in range(n)]
                          for _ in range(n)])


def rand_invertible(rng, n, bound=10):
    while True:
        m = rand_matrix(rng, n, bound)
        if inv_det(m) is not None:
            return m


def rand_mp_point(rng, alphabet, dims, bound=10):
    parts = []
    for s, (part, _) in enumerate(alphabet.slots()):
        parts.append(tuple(rand_matrix(rng, dims[s], bound)
                           for _ in range(alphabet.size_of(part))))
    return MpPoint(alphabet, tuple(parts))


def rand_nc_point(rng, alphabet, n, bound=10):
    mats = tuple(rand_matrix(rng, n, bound) for _ in alphabet.letters())
    return NcPoint(alphabet, mats)


def commuting_nc_point(rng, alphabet, n, bound=3):
    """Every letter a polynomial in one shared matrix, so all letters commute
    pairwise; in particular cross-part letters do."""
    t = rand_matrix(rng, n, bound)
    t2 = t @ t
    eye = Matrix.identity(n)
    mats = []
    for _ in alphabet.letters():
        c0, c1, c2 = (F(rng.randint(-bound, bound)) for _ in range(3))
        mats.append(eye.scale(c0) + t.scale(c1) + t2.scale(c2))
    return NcPoint(alphabet, tuple(mats))


def gen_expr(rng, alphabet, depth, allow_inverse=True):
    from mprat.expression import expr_neg, expr_product, expr_sum, inverse_of
    letters = list(alphabet.letters())
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.2:
            return Const(F(rng.randint(-3, 3)))
        return rng.choice(letters)
    if roll < 0.6:
        return expr_sum([gen_expr(rng, alphabet, depth - 1, allow_inverse)
                         for _ in range(rng.randint(2, 3))])
    if roll < 0.85 or not allow_inverse:
        return expr_product([gen_expr(rng, alphabet, depth - 1, allow_inverse)
                             for _ in range(rng.randint(2, 3))])
    if roll < 0.92:
        return expr_neg(gen_expr(rng, alphabet, depth - 1, allow_inverse))
    return inverse_of(gen_expr(rng, alphabet, depth - 1, allow_inverse))


def unshare(e: Expr) -> Expr:
    """e rebuilt through the constructors at every reference, as a tree.

    Nodes are interned, so this returns e itself: structure alone decides
    which node a constructor returns, whatever the builder shared.
    """
    if isinstance(e, Sum):
        return Sum(tuple(unshare(t) for t in e.terms))
    if isinstance(e, Product):
        return Product(tuple(unshare(f) for f in e.factors))
    if isinstance(e, Inverse):
        return Inverse(unshare(e.arg))
    if isinstance(e, Const):
        return Const(e.value)
    return Var(e.part, e.index, e.primed)


def naive_format(e: Expr) -> str:
    """The surface text of e by plain recursion over its tree, with no memo:
    the reference for format_expr.  A sum operand is bracketed, and a term
    with a leading minus is written after a binary one."""
    def operand(x):
        return f"({naive_format(x)})" if isinstance(x, Sum) else naive_format(x)

    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return f"X{e.part}_{e.index}" + ("'" if e.primed else "")
    if isinstance(e, Inverse):
        return f"inv({naive_format(e.arg)})"
    if isinstance(e, Product):
        neg = _negated(e)
        if neg is not None:
            return "-" + operand(neg)
        return " * ".join(operand(f) for f in e.factors)
    text = operand(e.terms[0])
    for t in e.terms[1:]:
        neg = _negated(t)
        text += " + " + operand(t) if neg is None else " - " + operand(neg)
    return text


def _negated(e: Expr) -> Expr | None:
    # -e when e is a negative constant or a product led by one, else None
    if isinstance(e, Const) and e.value < 0:
        return Const(-e.value)
    if isinstance(e, Product) and isinstance(e.factors[0], Const) and e.factors[0].value < 0:
        c, rest = e.factors[0].value, e.factors[1:]
        if c == -1:
            return rest[0] if len(rest) == 1 else Product(rest)
        return Product((Const(-c),) + rest)
    return None


# -- independent reference evaluation (plain lists of Fractions) ----------------


def l_eye(n):
    return [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]


def l_scalar(n, c):
    return [[F(c) if i == j else F(0) for j in range(n)] for i in range(n)]


def l_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def l_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def l_kron(a, b):
    out = []
    for ra in a:
        for rb in b:
            out.append([x * y for x in ra for y in rb])
    return out


def l_inv(a):
    n = len(a)
    aug = [list(row) + [F(1) if i == j else F(0) for j in range(n)]
           for i, row in enumerate(a)]
    for k in range(n):
        piv = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if piv is None:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        d = aug[k][k]
        aug[k] = [x / d for x in aug[k]]
        for r in range(n):
            if r != k and aug[r][k] != 0:
                f = aug[r][k]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[k])]
    return [row[n:] for row in aug]


def laplace_det(a):
    """Determinant of a Matrix by first-row expansion."""
    n = a.rows
    if n == 0:
        return F(1)
    if n == 1:
        return a.entry(0, 0)
    total = F(0)
    for j in range(n):
        if a.entry(0, j) == 0:
            continue
        minor = Matrix(QQ, [[a.entry(i, k) for k in range(n) if k != j]
                            for i in range(1, n)])
        total += (-1) ** j * a.entry(0, j) * laplace_det(minor)
    return total


def naive_nc_eval(e, assign, n):
    """Recursive evaluation with no sharing; None when an inverse fails."""
    if isinstance(e, Const):
        return l_scalar(n, e.value)
    if isinstance(e, Var):
        return assign[(e.part, e.index, e.primed)]
    if isinstance(e, Sum):
        acc = None
        for t in e.terms:
            v = naive_nc_eval(t, assign, n)
            if v is None:
                return None
            acc = v if acc is None else l_add(acc, v)
        return acc
    if isinstance(e, Product):
        acc = None
        for f in e.factors:
            v = naive_nc_eval(f, assign, n)
            if v is None:
                return None
            acc = v if acc is None else l_mul(acc, v)
        return acc
    if isinstance(e, Inverse):
        v = naive_nc_eval(e.arg, assign, n)
        return None if v is None else l_inv(v)
    raise TypeError(type(e).__name__)


def naive_mp_eval(e, point: MpPoint):
    """Independent mp-evaluation: own tau embedding, own arithmetic."""
    dims = point.dims
    n = prod(dims)
    assign = {}
    for s, ((part, primed), mats) in enumerate(zip(point.alphabet.slots(), point.parts)):
        pre = prod(dims[:s])
        post = prod(dims[s + 1:])
        for j, m in enumerate(mats, start=1):
            img = l_kron(l_kron(l_eye(pre), [list(map(F, r)) for r in m.data]), l_eye(post))
            assign[(part, j, primed)] = img
    return naive_nc_eval(e, assign, n)


def as_matrix(lists):
    return Matrix.of(QQ, lists)


def assert_defined(value):
    assert not isinstance(value, Undefined), f"unexpectedly undefined: {value}"
    return value


# -- slot-wise direct-sum shuffle ------------------------------------------------


def slot_split_matrix(dims, slot, m1, m2):
    """Permutation S with S·M·Sᵗ = direct_sum(M₁, M₂) for any M evaluated at a
    point whose matrices in the given slot are direct sums b′⊕b″ (sizes m1,
    m2); dims is the combined dims tuple, dims[slot] = m1 + m2."""
    assert dims[slot] == m1 + m2
    g = len(dims)
    total = prod(dims)
    dims1 = list(dims)
    dims1[slot] = m1
    dims2 = list(dims)
    dims2[slot] = m2
    n1 = prod(dims1)

    def encode(multi, ds):
        flat = 0
        for k in range(g):
            flat = flat * ds[k] + multi[k]
        return flat

    data = [[F(0)] * total for _ in range(total)]
    for flat in range(total):
        rem = flat
        multi = [0] * g
        for k in reversed(range(g)):
            rem, multi[k] = divmod(rem, dims[k])
        j = multi[slot]
        if j < m1:
            row = encode(multi, dims1)
        else:
            multi2 = list(multi)
            multi2[slot] = j - m1
            row = n1 + encode(multi2, dims2)
        data[row][flat] = F(1)
    return Matrix(QQ, data, total)


# -- expression corpus -----------------------------------------------------------


CORPUS_ALPHABET = Alphabet((2, 2))

CORPUS_TEXTS = [
    "2",
    "X1_1",
    "X1_1 * X1_2 - X1_2 * X1_1",
    "X1_1 * X2_1 - X2_1 * X1_1",
    "X1_1 + 2 * X2_1",
    "X1_1 * X2_1 * X1_2",
    "X1_1 * X1_1 - X2_2",
    "inv(X1_1)",
    "inv(X1_1 + X2_1)",
    "inv(X1_1) * X1_2",
    "X2_1 * inv(X1_1 * X1_1 + 1)",
    "inv(X1_1) - inv(X1_2)",
    "inv(X1_1 * X2_1 + 2)",
    "1 - inv(X2_2)",
    "inv(X2_1) * inv(X1_1) - inv(X1_1 * X2_1)",
    "inv(inv(X1_1) + X1_2)",
    "inv(inv(X1_1) + inv(X1_2))",
    "X1_1 * inv(X1_1 + X1_2) * X1_2",
    "inv(1 - X1_1 * inv(X2_1) * X1_2)",
    "inv(X1_1 * inv(X1_2) - 1)",
]


def corpus() -> list[Expr]:
    return [parse(text, CORPUS_ALPHABET) for text in CORPUS_TEXTS]
