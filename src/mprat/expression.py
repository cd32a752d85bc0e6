"""Formal rational expressions over a multipartite alphabet.

An alphabet has G parts; letters in the same part do not commute with each
other, letters from different parts do.  A part may additionally carry a
primed copy of its letters (written ``X1_2'``), used as the target alphabet
of the difference-differential operators: for evaluation purposes a primed
copy behaves like an extra part sitting immediately before its unprimed
sibling.

Expression grammar (whitespace insignificant, columns reported 0-based):

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := rational | variable | "inv" "(" expr ")" | "(" expr ")" | "-" factor
    variable := "X" <part> "_" <index> ["'"]
    rational := <int> ("/" <posint>)?

Sums and products are flattened n-ary nodes keeping source order.  The only
rewriting ever applied is constant folding of literal arithmetic (adjacent
constant runs, unit coefficients, inverses of nonzero constants); no
cancellation, no reordering of noncommuting factors, and a written
``0 * inv(X1_1)`` keeps its inverse node so the written domain survives.

Nodes are interned, one object per structure: a subexpression repeated by a
builder or in the parsed text is one node, so an expression is a DAG.
Every transform traverses it through ``walk``, directly or through ``fold``:
children left to right and before their parents, each shared node once, on
an explicit stack, so nesting depth is bounded only by memory.
"""

from __future__ import annotations

import re
import threading
import weakref
from collections import Counter
from dataclasses import dataclass, fields
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

_F0 = Fraction(0)
_F1 = Fraction(1)

T = TypeVar("T")


# -- alphabet -----------------------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """Part sizes plus the set of parts that carry a primed letter copy."""

    sizes: tuple[int, ...]
    primed_parts: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "primed_parts", frozenset(self.primed_parts))
        if not self.sizes:
            raise ValueError("alphabet needs at least one part")
        if any(s < 1 for s in self.sizes):
            raise ValueError("every part needs at least one letter")
        if not all(1 <= p <= len(self.sizes) for p in self.primed_parts):
            raise ValueError("primed part out of range")
        # computed once; attributes, not fields, so ==, hash and repr ignore them
        slots = tuple((part, primed) for part in range(1, len(self.sizes) + 1)
                      for primed in (True, False)
                      if not primed or part in self.primed_parts)
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_letters", tuple(
            Var(part, j, primed) for part, primed in slots
            for j in range(1, self.sizes[part - 1] + 1)))

    @property
    def parts(self) -> int:
        return len(self.sizes)

    def size_of(self, part: int) -> int:
        return self.sizes[part - 1]

    def slots(self) -> tuple[tuple[int, bool], ...]:
        """Evaluation slot order: parts ascending, primed copy before plain."""
        return self._slots

    def slot_index(self, part: int, primed: bool) -> int:
        return self._slots.index((part, primed))

    def letters(self) -> tuple["Var", ...]:
        """All variables in slot-major, index-minor order (the flat order)."""
        return self._letters

    def with_primed(self, part: int) -> "Alphabet":
        if not 1 <= part <= self.parts:
            raise ValueError(f"part {part} out of range")
        return Alphabet(self.sizes, self.primed_parts | {part})


# -- AST ----------------------------------------------------------------------


class Expr:
    """Base of the expression nodes, which are interned: a constructor returns
    the live node of equal type and fields if there is one, so ``==`` is
    identity and stands for equal structure.  ``copy`` and ``pickle`` go
    through the constructor.  ``repr`` is the dataclass text, on an explicit
    stack for ``Sum``, ``Product`` and ``Inverse``.
    """

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        # exactly the dataclass text, e.g. Inverse(arg=Sum(terms=(Var(...), ...)))
        out: list[str] = []
        todo: list[Expr | str] = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, Inverse):
                out.append("Inverse(arg=")
                todo += (")", item.arg)
            elif kids := _children(item):
                out.append(f"{type(item).__name__}({fields(item)[0].name}=(")
                todo.append("))")
                for k in kids[:0:-1]:
                    todo += (k, ", ")
                todo.append(kids[0])
            else:
                out.append(repr(item))
        return "".join(out)


# (type, *fields) -> the live node, which leaves with its last reference;
# the lock keeps two threads from building two nodes of one structure
_nodes: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_nodes_lock = threading.Lock()


def _intern(cls, *values):
    node = object.__new__(cls)
    for name, v in zip(cls.__slots__, values):
        object.__setattr__(node, name, v)
    with _nodes_lock:
        return _nodes.setdefault((cls, *values), node)


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Const(Expr):
    value: Fraction

    def __new__(cls, value):
        return _intern(cls, value if type(value) is Fraction else Fraction(value))


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Var(Expr):
    part: int
    index: int
    primed: bool = False

    def __new__(cls, part, index, primed=False):
        return _intern(cls, part, index, bool(primed))


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Sum(Expr):
    terms: tuple[Expr, ...]

    def __new__(cls, terms):
        if len(terms := tuple(terms)) < 2:
            raise ValueError("Sum needs at least two terms")
        return _intern(cls, terms)


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Product(Expr):
    factors: tuple[Expr, ...]

    def __new__(cls, factors):
        if len(factors := tuple(factors)) < 2:
            raise ValueError("Product needs at least two factors")
        return _intern(cls, factors)


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Inverse(Expr):
    arg: Expr

    def __new__(cls, arg):
        return _intern(cls, arg)


def _merge_const_runs(children: list[Expr], combine) -> list[Expr]:
    out: list[Expr] = []
    for c in children:
        if isinstance(c, Const) and out and isinstance(out[-1], Const):
            out[-1] = Const(combine(out[-1].value, c.value))
        else:
            out.append(c)
    return out


def expr_sum(terms: Iterable[Expr]) -> Expr:
    """n-ary sum builder: flattens, folds adjacent literals, drops zeros."""
    flat: list[Expr] = []
    for t in terms:
        flat.extend(t.terms) if isinstance(t, Sum) else flat.append(t)
    flat = _merge_const_runs(flat, lambda a, b: a + b)
    flat = [t for t in flat if not (isinstance(t, Const) and t.value == 0)]
    if not flat:
        return Const(_F0)
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def expr_product(factors: Iterable[Expr], *, absorb_zero: bool = False) -> Expr:
    """n-ary product builder: flattens and folds adjacent literals.

    Unit coefficients are dropped.  A literal zero factor only collapses the
    whole product when ``absorb_zero`` is set; the default keeps it so that a
    written expression keeps its written domain.
    """
    flat: list[Expr] = []
    for f in factors:
        flat.extend(f.factors) if isinstance(f, Product) else flat.append(f)
    flat = _merge_const_runs(flat, lambda a, b: a * b)
    if absorb_zero and any(isinstance(f, Const) and f.value == 0 for f in flat):
        return Const(_F0)
    kept = [f for f in flat if not (isinstance(f, Const) and f.value == 1)]
    if not kept:
        return Const(_F1)
    if len(kept) == 1:
        return kept[0]
    return Product(tuple(kept))


def expr_neg(e: Expr) -> Expr:
    return expr_product([Const(-_F1), e])


def inverse_of(e: Expr) -> Expr:
    """Inverse node; literal nonzero constants fold, everything else stays."""
    if isinstance(e, Const) and e.value != 0:
        return Const(1 / e.value)
    return Inverse(e)


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, Sum):
        return node.terms
    if isinstance(node, Product):
        return node.factors
    if isinstance(node, Inverse):
        return (node.arg,)
    return ()


def subexpr_at(e: Expr, path: Sequence[int]) -> Expr:
    """Child lookup along a path of 0-based child positions."""
    node = e
    for k in path:
        kids = _children(node)
        if not 0 <= k < len(kids):
            raise ValueError(f"no child at position {k}: the node has {len(kids)}")
        node = kids[k]
    return node


def _path_to(root: Expr, target: Expr) -> tuple[int, ...]:
    # Depth-first, children left to right, each shared node expanded once:
    # the first path found is the leftmost one.  A path is kept as linked
    # (position, parent link) pairs so that each push costs O(1).
    seen: set[Expr] = set()
    stack: list[tuple[Expr, tuple | None]] = [(root, None)]
    while stack:
        node, link = stack.pop()
        if node is target:
            path = []
            while link is not None:
                k, link = link
                path.append(k)
            return tuple(reversed(path))
        if node not in seen:
            seen.add(node)
            kids = _children(node)
            stack.extend((kids[k], (k, link)) for k in range(len(kids) - 1, -1, -1))
    raise ValueError("target is not a node of root")


_EMIT = object()


def walk(*roots: Expr, skip=()) -> Iterator[Expr]:
    """Every node of the roots once, children left to right and before their
    parents, the roots in order; a shared subtree at its first occurrence.
    A node in ``skip`` is neither entered nor yielded, and ``skip`` is only
    read, so a caller may add to it between two yields.  Uses no recursion.
    """
    seen: set[Expr] = set()
    stack: list = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node is _EMIT:
            node = stack.pop()
        elif node in skip or node in seen:
            continue
        elif kids := _children(node):
            # node comes back, after its children, behind the marker
            stack += (node, _EMIT)
            stack += reversed(kids)
            continue
        seen.add(node)
        yield node


def fold(e: Expr, rule: Callable[[Expr, list], T]) -> T:
    """Bottom-up value of e: rule(node, values of its children) over walk(e)."""
    values: dict[Expr, T] = {}
    for node in walk(e):
        values[node] = rule(node, [values[c] for c in _children(node)])
    return values[e]


def inversion_height(e: Expr) -> int:
    """Nesting depth of inverses (0 for polynomial expressions)."""
    return fold(e, lambda node, heights: heights[0] + 1 if isinstance(node, Inverse)
                else max(heights, default=0))


def validate_vars(e: Expr, alphabet: Alphabet) -> None:
    """Raise if any variable does not fit the alphabet."""
    _validate_nodes(walk(e), alphabet)


def _validate_nodes(nodes: Iterable[Expr], alphabet: Alphabet) -> None:
    # validate_vars over the given nodes: the first misfit met is reported
    for node in nodes:
        if isinstance(node, Var) and (why := _misfit(node, alphabet)):
            raise ValueError(why)


def _misfit(v: Var, alphabet: Alphabet) -> str | None:
    """Why the letter v does not fit the alphabet, or None if it does."""
    if not 1 <= v.part <= alphabet.parts:
        return f"unknown variable {format_expr(v)}: alphabet has {alphabet.parts} parts"
    if not 1 <= v.index <= alphabet.size_of(v.part):
        return f"index out of range: part {v.part} has {alphabet.size_of(v.part)} letters"
    if v.primed and v.part not in alphabet.primed_parts:
        return f"part {v.part} has no primed letters in this alphabet"
    return None


# -- parsing --------------------------------------------------------------------


class ExprSyntaxError(ValueError):
    """Parse failure with a 0-based column position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at column {position}: {message}")
        self.position = position


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<var>X\d+_\d+'?)
  | (?P<int>\d+)
  | (?P<inv>inv\b)
  | (?P<op>[+\-*/()])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            bad = text[pos]
            if bad == "X":
                # a variable that fizzled out: point at where it went wrong
                tail = re.match(r"X\d*_?", text[pos:])
                raise ExprSyntaxError("malformed variable, expected X<part>_<index>",
                                      pos + (tail.end() if tail else 0))
            raise ExprSyntaxError(f"unexpected character {bad!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def _got(kind: str, val: str) -> str:
    return repr(val) if kind != "eof" else "end of input"


def parse(text: str, alphabet: Alphabet) -> Expr:
    """Parse the grammar above; raises ExprSyntaxError with a column.

    Each open parenthesis saves the state of the enclosing expr on an
    explicit stack, so nesting depth is bounded only by memory.
    """
    tokens = _tokenize(text)
    k = 0
    # the enclosing groups, then the current one: its finished terms, whether
    # the current term follows a binary minus, that term's finished factors
    # and the unary minuses before the factor being read
    groups: list[tuple[bool, list[Expr], bool, list[Expr], int]] = []
    terms: list[Expr] = []
    minus = False
    factors: list[Expr] = []
    negs = 0
    while True:
        kind, val, pos = tokens[k]
        if val == "-":
            negs += 1
            k += 1
            continue
        if kind == "int":
            factor = Const(Fraction(int(val)))
            k += 1
            if tokens[k][1] == "/":
                kind, val, pos = tokens[k + 1]
                if kind != "int" or int(val) == 0:
                    raise ExprSyntaxError("expected a positive integer denominator", pos)
                factor = Const(factor.value / int(val))
                k += 2
        elif kind == "var":
            part, index = val[1:].rstrip("'").split("_")
            factor = Var(int(part), int(index), val.endswith("'"))
            if why := _misfit(factor, alphabet):
                raise ExprSyntaxError(why, pos)
            k += 1
        elif kind == "inv" or val == "(":
            is_inv = kind == "inv"
            if is_inv:
                k += 1
                kind, val, pos = tokens[k]
                if val != "(":
                    raise ExprSyntaxError(f"expected '(', got {_got(kind, val)}", pos)
            groups.append((is_inv, terms, minus, factors, negs))
            terms, minus, factors, negs = [], False, [], 0
            k += 1
            continue
        else:
            raise ExprSyntaxError(f"expected a factor, got {_got(kind, val)}", pos)
        # a factor is complete; it may in turn complete terms and groups
        while True:
            for _ in range(negs):
                factor = expr_neg(factor)
            factors.append(factor)
            negs = 0
            kind, val, pos = tokens[k]
            if val == "*":
                k += 1
                break
            term = expr_product(factors)
            terms.append(expr_neg(term) if minus else term)
            factors = []
            if val in ("+", "-"):
                minus = val == "-"
                k += 1
                break
            inner = expr_sum(terms)
            if not groups:
                if kind != "eof":
                    raise ExprSyntaxError(f"unexpected trailing {val!r}", pos)
                return inner
            if val != ")":
                raise ExprSyntaxError(f"expected ')', got {_got(kind, val)}", pos)
            k += 1
            is_inv, terms, minus, factors, negs = groups.pop()
            factor = inverse_of(inner) if is_inv else inner


# -- formatting -------------------------------------------------------------------


def _number_text(x: Fraction) -> str:
    """str(x), also for a numerator or denominator longer than the integer
    digit limit (sys.get_int_max_str_digits), which str refuses: Decimal
    writes an integer of any size.  The limit itself stays, for input."""
    try:
        return str(x)
    except ValueError:
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def _split_negative(e: Expr) -> Expr | None:
    # the negation of a term that prints better after a binary minus
    if isinstance(e, Const) and e.value < 0:
        return Const(-e.value)
    if isinstance(e, Product) and isinstance(e.factors[0], Const) and e.factors[0].value < 0:
        rest = e.factors[1:]
        if e.factors[0].value == -1:
            return rest[0] if len(rest) == 1 else Product(rest)
        return Product((Const(-e.factors[0].value),) + rest)
    return None


def format_expr(e: Expr) -> str:
    """Render to the surface grammar; parse(format_expr(e)) is e on builder output.

    A node's text does not depend on its parent: the parent adds the
    parentheses around a sum operand, and a sum turns a term's leading minus
    into a binary one.  So the text of each node referenced twice or more is
    written once, children first in ``walk`` order, and copied whole
    wherever the node recurs.  The work is linear in the output plus the
    nodes of the DAG.
    """
    return _format_roots((e,))[0]


def _format_roots(roots: Sequence[Expr]) -> list[str]:
    """format_expr of each root, with one memo across all of them: each root
    counts as one more reference, so a node shared between roots, or a root
    that is also a node of another root, is written once per call."""
    nodes = list(walk(*roots))
    refs = Counter(c for node in nodes for c in _children(node))
    refs.update(roots)
    memo: dict[Expr, str] = {}
    for node in nodes:
        if refs[node] > 1:
            memo[node] = _write(node, memo)
    return [_write(r, memo) for r in roots]


def _write(e: Expr, memo: dict[Expr, str]) -> str:
    # Works from an explicit stack of pending nodes and literal pieces.  Every
    # few thousand pieces are joined into a chunk, so that they never take
    # more memory than the text they spell.
    chunks: list[str] = []
    out: list[str] = []
    write = out.append
    todo: list[Expr | str] = [e]
    while todo:
        if len(out) > 4096:
            chunks.append("".join(out))
            out.clear()
        item = todo.pop()
        if isinstance(item, str):
            write(item)
        elif (text := memo.get(item)) is not None:
            write(text)
        elif isinstance(item, Const):
            write(_number_text(item.value))
        elif isinstance(item, Var):
            write(f"X{item.part}_{item.index}" + ("'" if item.primed else ""))
        elif isinstance(item, Inverse):
            write("inv(")
            todo += (")", item.arg)
        elif isinstance(item, Product):
            neg = _split_negative(item)
            if neg is not None:
                write("-")
                _push_operand(todo, neg)
            else:
                for f in item.factors[:0:-1]:
                    _push_operand(todo, f)
                    todo.append(" * ")
                _push_operand(todo, item.factors[0])
        elif isinstance(item, Sum):
            for t in item.terms[:0:-1]:
                neg = _split_negative(t)
                if neg is None:
                    _push_operand(todo, t)
                elif (text := memo.get(t)) is not None:
                    todo.append(text[1:])  # the stored text is "-" + that of neg
                else:
                    _push_operand(todo, neg)
                todo.append(" + " if neg is None else " - ")
            _push_operand(todo, item.terms[0])
        else:
            raise TypeError(f"not an expression node: {type(item).__name__}")
    chunks.append("".join(out))
    return "".join(chunks)


def _push_operand(todo: list, e: Expr) -> None:
    # a sum printed as a term or a factor gets parentheses
    if isinstance(e, Sum):
        todo += (")", e, "(")
    else:
        todo.append(e)


# -- polynomial normal form ---------------------------------------------------------


class ExprHasInverse(ValueError):
    """Raised when a polynomial-only operation meets an inverse node."""


#: A monomial assigns each slot a word: a tuple of 1-based letter indices.
Monomial = tuple[tuple[int, ...], ...]


def _nf_add(out: dict, m: Monomial, c: Fraction) -> None:
    # out[m] += c, dropping m when its coefficient cancels
    c = out.get(m, _F0) + c
    if c:
        out[m] = c
    else:
        out.pop(m, None)


def _nf_mul(a: dict, b: dict, slots: int) -> dict:
    out: dict[Monomial, Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _nf_add(out, tuple(ma[s] + mb[s] for s in range(slots)), ca * cb)
    return out


def poly_normal_form(e: Expr, alphabet: Alphabet) -> dict[Monomial, Fraction]:
    """Expand an inverse-free expression into its monomial coefficient map.

    A monomial has one word per alphabet slot, so letters of different slots
    commute and products concatenate slot-wise; no coefficient is zero.
    Raises ExprHasInverse on any inverse node.  Addition and multiplication
    of expressions match addition and slot-wise concatenation product of the
    returned maps, so equality of maps decides equality of polynomial
    functions exactly.
    """
    validate_vars(e, alphabet)
    ns = len(alphabet.slots())
    one: Monomial = tuple(() for _ in range(ns))

    def rule(node: Expr, kids: list[dict]) -> dict:
        if isinstance(node, Const):
            return {one: node.value} if node.value else {}
        if isinstance(node, Var):
            s = alphabet.slot_index(node.part, node.primed)
            return {tuple((node.index,) if k == s else () for k in range(ns)): _F1}
        if isinstance(node, Sum):
            out: dict[Monomial, Fraction] = {}
            for kid in kids:
                for m, c in kid.items():
                    _nf_add(out, m, c)
            return out
        if isinstance(node, Product):
            return reduce(lambda a, b: _nf_mul(a, b, ns), kids)
        if isinstance(node, Inverse):
            raise ExprHasInverse("expression contains an inverse; no polynomial normal form")
        raise TypeError(f"not an expression node: {type(node).__name__}")

    return fold(e, rule)
