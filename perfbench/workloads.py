"""The benchmark's workloads: inputs made from the seed, the operations the
timed loop runs, and the check each operation's outcome must pass.

``build(name, seed, workdir)`` returns the list of operations that make one
batch.  Building is the set-up: it imports the package, generates every
input from the seed and writes the input files the command line reads.  The
timed loop runs the same batch again and again, so a batch must leave no
state behind that changes the next one.

Checks run after the timed region.  They compare against independent
reference values: the naive evaluators of ``tests/helpers.py`` (plain lists
of Fractions, no memoization) and ``_TextValue`` below, which evaluates
printed expressions straight from their text, never against the code path
under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import helpers
import mprat
import mprat.cli
from mprat import QQ, Alphabet, Matrix, MpPoint

NAMES = ("zero-test", "point-eval", "symbolic")


@dataclass
class Op:
    """One timed call.

    ``call`` does the work; ``text`` renders its outcome canonically (the
    transcript that the workload digest hashes); ``check`` returns None
    when the outcome is right, else a one-line reason; ``verdict`` names
    the zero-test verdict kind ("zero" or "nonzero") or None.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    text: Callable[[Any], str]
    verdict: Callable[[Any], str | None] = lambda out: None


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    make = {"zero-test": _zero_test, "point-eval": _point_eval, "symbolic": _symbolic}[name]
    return make(random.Random(f"{name}|{seed}"), Path(workdir))


# -- command-line operations ------------------------------------------------------


@dataclass(frozen=True)
class CliOutcome:
    code: int
    out: str


def _cli_call(argv: list[str]) -> CliOutcome:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        # looked up at call time, so the tracer's wrapper is seen
        code = mprat.cli.main(argv)
    return CliOutcome(code, buf.getvalue())


def _cli_text(o: CliOutcome) -> str:
    return f"{o.code} {o.out}"


def _cli_op(kind, argv, check, verdict=lambda out: None) -> Op:
    return Op(kind, lambda: _cli_call(argv), check, _cli_text, verdict)


def _report(o: CliOutcome) -> dict:
    return json.loads(o.out)


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


def _rand_matrix(rng, n, bound):
    return Matrix.of(QQ, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def _rand_dense(rng, n, bound):
    """No zero entries, so pivot searches take the same path for every seed."""
    return Matrix.of(QQ, [[rng.choice([x for x in range(-bound, bound + 1) if x])
                           for _ in range(n)] for _ in range(n)])


def _lists(m: Matrix) -> list[list[Fraction]]:
    return [list(row) for row in m.data]


def _verdict_kind(o: CliOutcome) -> str | None:
    v = _report(o).get("verdict")
    if v in ("probably-zero", "exact-zero"):
        return "zero"
    if v == "nonzero":
        return "nonzero"
    return None


# -- reference values of printed expressions -------------------------------------


_TOKEN = re.compile(r"\s*(?:(inv\()|(\()|(\))|([-+*])|X(\d+)_(\d+)('?)|(\d+(?:/\d+)?))")


class _TextValue:
    """Reference value of a printed expression at one point, read straight
    from the text.

    A printed Schur inverse repeats its sub-inverses verbatim, so the value
    of every parenthesised group is kept by its text and reused; without
    that, checking a d=5 inverse would take minutes.  An inverse of a
    singular value makes the whole value None.
    """

    def __init__(self, assign: dict, n: int):
        self.assign, self.n = assign, n
        self.memo: dict = {}

    def __call__(self, text: str):
        self.text, self.pos = text, 0
        self.close = {}
        opened = []
        for m in re.finditer(r"[()]", text):
            if m.group() == "(":
                opened.append(m.start())
            else:
                self.close[opened.pop()] = m.start()
        value = self.expr()
        if text[self.pos:].strip():
            raise ValueError(f"trailing text at {self.pos}")
        return value

    def _peek(self):
        return _TOKEN.match(self.text, self.pos)

    def expr(self):
        value = self.term()
        while (m := self._peek()) and m.group(4) in ("+", "-"):
            self.pos = m.end()
            t = self.term()
            if value is not None and t is not None:
                value = helpers.l_add(value, t if m.group(4) == "+" else _l_neg(t))
            else:
                value = None
        return value

    def term(self):
        value = self.factor()
        while (m := self._peek()) and m.group(4) == "*":
            self.pos = m.end()
            f = self.factor()
            value = helpers.l_mul(value, f) if value is not None and f is not None else None
        return value

    def factor(self):
        m = self._peek()
        if m is None:
            raise ValueError(f"bad token at {self.pos}")
        if m.group(1) or m.group(2):
            return self._group(m.end() - 1, inverse=bool(m.group(1)))
        self.pos = m.end()
        if m.group(4) == "-":
            f = self.factor()
            return None if f is None else _l_neg(f)
        if m.group(5):
            return self.assign[(int(m.group(5)), int(m.group(6)), bool(m.group(7)))]
        if m.group(8):
            return helpers.l_scalar(self.n, Fraction(m.group(8)))
        raise ValueError(f"unexpected {m.group()!r} at {m.start()}")

    def _group(self, start: int, inverse: bool):
        end = self.close[start]
        key = (inverse, self.text[start:end])
        if key not in self.memo:
            self.pos = start + 1
            value = self.expr()
            if self.text[self.pos:end].strip():
                raise ValueError(f"unbalanced group at {start}")
            if inverse and value is not None:
                value = helpers.l_inv(value)
            self.memo[key] = value
        self.pos = end + 1
        return self.memo[key]


def _l_neg(a):
    return [[-x for x in row] for row in a]


def _mp_assign(point: MpPoint) -> tuple[dict, int]:
    """The tau-embedded letter values of a point, built here: (assign, size)."""
    dims = point.dims
    n = 1
    for d in dims:
        n *= d
    assign = {}
    pre = 1
    for (part, primed), mats, d in zip(point.alphabet.slots(), point.parts, dims):
        post = n // (pre * d)
        for j, m in enumerate(mats, start=1):
            assign[(part, j, primed)] = helpers.l_kron(
                helpers.l_kron(helpers.l_eye(pre), _lists(m)), helpers.l_eye(post))
        pre *= d
    return assign, n


# -- zero-test ----------------------------------------------------------------------
#
# True identities that use the whole level x trial budget, and false ones
# (the Hall identity of 2x2 matrices) whose first nonzero level is 3.  Every
# call gets its own --seed drawn from the workload seed.


def _expect_probably_zero(max_level: int, trials: int):
    want = {"verdict": "probably-zero", "max_level": max_level, "trials": trials}

    def check(o: CliOutcome):
        if o.code != 0 or _report(o) != want:
            return f"expected {want}, got exit {o.code}: {o.out[:120]}"
        return None
    return check


def _printed_point(alphabet: Alphabet, dims, parts) -> MpPoint:
    return MpPoint(alphabet, tuple(
        tuple(Matrix.from_flat(QQ, n, n, [Fraction(x) for x in flat]) for flat in mats)
        for n, mats in zip(dims, parts)))


def _witness_check(text: str, alphabet: Alphabet, level: int):
    def check(o: CliOutcome):
        rep = _report(o)
        if o.code != 1 or rep.get("verdict") != "nonzero" or rep.get("level") != level:
            return f"expected a nonzero witness at level {level}, got exit {o.code}: {o.out[:120]}"
        point = _printed_point(alphabet, rep["point"]["dims"], rep["point"]["parts"])
        ref = _TextValue(*_mp_assign(point))(text)
        value = [[Fraction(x) for x in row] for row in rep["value"]]
        if ref is None or ref != value or all(x == 0 for row in value for x in row):
            return "witness value does not match the reference evaluation"
        return None
    return check


def _defined_at_check(text: str, alphabet: Alphabet, level: int):
    def check(o: CliOutcome):
        rep = _report(o)
        if o.code != 0 or rep.get("status") != "defined" or rep.get("level") != level:
            return f"expected defined at level {level}, got exit {o.code}: {o.out[:120]}"
        point = _printed_point(alphabet, rep["dims"], rep["point"]["parts"])
        if _TextValue(*_mp_assign(point))(text) is None:
            return "reported point is outside the domain"
        return None
    return check


def _zero_test(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []

    def cli_seed() -> str:
        return str(rng.randrange(1 << 20))

    # Hua's identity, a true identity with nested inverses; letter roles vary.
    a, b = rng.sample(["X1_1", "X2_1"], 2)
    lhs = _write(workdir, "hua-l.expr", f"inv(inv({a}) + inv(inv({b}) - {a}))")
    rhs = _write(workdir, "hua-r.expr", f"{a} - {a} * {b} * {a}")
    ops.append(_cli_op("equiv-hua", ["equiv", "--alphabet", "2:1,1", lhs, rhs,
                                     "--trials", "4", "--seed", cli_seed()],
                       _expect_probably_zero(4, 4), _verdict_kind))

    # inv(AB + C)(AB + C) - 1 on three one-letter parts: 27x27 values at level 3.
    a, b, c = rng.sample(["X1_1", "X2_1", "X3_1"], 3)
    path = _write(workdir, "tri.expr", f"inv({a}*{b} + {c}) * ({a}*{b} + {c}) - 1")
    ops.append(_cli_op("check-zero-3part", ["check-zero", "--alphabet", "3:1,1,1",
                                            "--expr", path, "--max-level", "3",
                                            "--trials", "3", "--seed", cli_seed()],
                       _expect_probably_zero(3, 3), _verdict_kind))

    # The same form on two two-letter parts, up to level 4.
    a, c = rng.sample(["X1_1", "X1_2"], 2)
    b = rng.choice(["X2_1", "X2_2"])
    path = _write(workdir, "bi.expr", f"inv({a}*{b} + {c}) * ({a}*{b} + {c}) - 1")
    ops.append(_cli_op("check-zero-2part", ["check-zero", "--alphabet", "2:2,2",
                                            "--expr", path, "--max-level", "4",
                                            "--trials", "4", "--seed", cli_seed()],
                       _expect_probably_zero(4, 4), _verdict_kind))

    # Hall's identity [[x,y]^2, z] = 0 holds for 2x2 matrices only, so the
    # first nonzero level is 3; the inverse factor forces the sampled route.
    hall_ab = Alphabet((3, 1))
    for k in range(3):
        x, y, z = rng.sample(["X1_1", "X1_2", "X1_3"], 3)
        q = f"({x}*{y} - {y}*{x})"
        text = f"inv(X2_1 + {rng.randint(1, 3)}) * ({q}*{q}*{z} - {z}*{q}*{q})"
        path = _write(workdir, f"hall{k}.expr", text)
        ops.append(_cli_op("check-zero-hall", ["check-zero", "--alphabet", "2:3,1",
                                               "--expr", path, "--seed", cli_seed()],
                           _witness_check(text, hall_ab, 3),
                           _verdict_kind))

    # A commutator is singular on 1x1 points, so the smallest defined level is 2.
    for k, (spec, sizes) in enumerate((("1:2", (2,)), ("2:2,1", (2, 1)))):
        x, y = rng.sample(["X1_1", "X1_2"], 2)
        text = f"inv({x}*{y} - {y}*{x})" + (" * X2_1" if len(sizes) == 2 else "")
        path = _write(workdir, f"scan{k}.expr", text)
        ab = Alphabet(sizes)
        ops.append(_cli_op("domain-scan", ["domain-scan", "--alphabet", spec,
                                           "--expr", path, "--seed", cli_seed()],
                           _defined_at_check(text, ab, 2)))
    return ops


# -- point-eval ----------------------------------------------------------------------
#
# Thousands of library calls on tiny matrices: no identity sampling, so
# per-call overhead in the kernel and the evaluator dominates.


def _value_text(v) -> str:
    if isinstance(v, Matrix):
        return f"{v.rows}x{v.cols} " + " ".join(str(x) for row in v.data for x in row)
    return repr(v)


def _matches(value, ref) -> str | None:
    if ref is None:
        if isinstance(value, mprat.Undefined):
            return None
        return "defined where the reference evaluation is undefined"
    if not isinstance(value, Matrix):
        return f"got {value!r} where the reference evaluation is defined"
    if _lists(value) != ref:
        return "value differs from the reference evaluation"
    return None


def _l_tau(slot: int, m: list, n: int, slots: int) -> list:
    return helpers.l_kron(helpers.l_kron(helpers.l_eye(n ** (slot - 1)), m),
                          helpers.l_eye(n ** (slots - slot)))


def _naive_bf(e, p) -> list | None:
    # own construction of the g+2 slot model
    slots = p.g + 2
    assign = {}
    for i in range(p.g):
        assign[(1, i + 1, False)] = helpers.l_mul(
            _l_tau(1, _lists(p.a_outer[i]), p.n, slots),
            _l_tau(2 + i, _lists(p.a_inner[i]), p.n, slots))
        assign[(2, i + 1, False)] = helpers.l_mul(
            _l_tau(2 + i, _lists(p.b_inner[i]), p.n, slots),
            _l_tau(slots, _lists(p.b_outer[i]), p.n, slots))
    return helpers.naive_nc_eval(e, assign, p.n ** slots)


def _nc_assign(alphabet: Alphabet, mats) -> dict:
    return {(v.part, v.index, v.primed): _lists(m) for v, m in zip(alphabet.letters(), mats)}


def _block_point(a_prime, a, v, rest, alphabet) -> MpPoint:
    """The verify_fund point [[a'_j (x) I, v_j I], [0, I (x) a_j]], built here."""
    mp, m = a_prime[0].rows, a[0].rows
    half = mp * m
    blocks = []
    for ap, aj, vj in zip(a_prime, a, v):
        ul = helpers.l_kron(_lists(ap), helpers.l_eye(m))
        lr = helpers.l_kron(helpers.l_eye(mp), _lists(aj))
        ur = helpers.l_scalar(half, vj)
        rows = [ul[r] + ur[r] for r in range(half)]
        rows += [[Fraction(0)] * half + lr[r] for r in range(half)]
        blocks.append(Matrix(QQ, rows))
    return MpPoint(alphabet, (tuple(blocks),) + tuple(tuple(p) for p in rest))


def _point_eval(rng: random.Random, workdir: Path) -> list[Op]:
    ab = helpers.CORPUS_ALPHABET
    exprs = helpers.corpus()
    ops = []

    def mp_op(e, p):
        return Op("mp-eval", lambda: mprat.mp_evaluate(e, p),
                  lambda v: _matches(v, helpers.naive_mp_eval(e, p)), _value_text)

    for dims, count in (((2, 2), 32), ((3, 3), 12)):
        for _ in range(count):
            p = helpers.rand_mp_point(rng, ab, dims)
            ops.extend(mp_op(e, p) for e in exprs)

    # bf-evaluation at g=2, n=2 (16x16 values), every other corpus entry
    # at a point of its own
    def bf_op(e, p):
        return Op("bf-eval", lambda: mprat.bf_evaluate(e, p),
                  lambda v: _matches(v, _naive_bf(e, p)), _value_text)

    def fam():
        return tuple(_rand_matrix(rng, 2, 4) for _ in range(2))
    ops.extend(bf_op(e, mprat.BfPoint(2, 2, fam(), fam(), fam(), fam())) for e in exprs[::2])

    # realize about a defined 2x2 base point, reduce, then evaluate the
    # reduced pencil at 4x4 points
    letters = ab.letters()
    for e in exprs:
        while True:
            base = [_rand_matrix(rng, 2, 3) for _ in letters]
            if helpers.naive_nc_eval(e, _nc_assign(ab, base), 2) is not None:
                break
        slot: dict = {}

        def realize(e=e, base=base, slot=slot):
            r = mprat.realize(e, ab, base)
            slot["reduced"] = red = mprat.real_reduce(r)
            return r.dim, red.dim

        def realize_check(dims):
            return None if dims[1] <= dims[0] else "reduction grew the realization"
        ops.append(Op("realize", realize, realize_check, repr))

        for _ in range(4):
            a = [_rand_matrix(rng, 4, 3) for _ in letters]

            def real_check(v, e=e, a=a):
                ref = helpers.naive_nc_eval(e, _nc_assign(ab, a), 4)
                # a pencil may extend past the expression's domain, so only
                # points where the expression is defined are pinned
                return None if ref is None else _matches(v, ref)
            ops.append(Op("real-eval", lambda slot=slot, a=a: mprat.real_evaluate(slot["reduced"], a),
                          real_check, _value_text))

    # the block formula of the difference-differential operator
    for e in exprs:
        a_prime = [_rand_matrix(rng, 2, 3) for _ in range(2)]
        a = [_rand_matrix(rng, 1, 3) for _ in range(2)]
        rest = [[_rand_matrix(rng, 2, 3) for _ in range(2)]]
        v = [rng.choice([-2, -1, 1, 2]) for _ in range(2)]

        def fund(e=e, a_prime=a_prime, a=a, v=v, rest=rest):
            try:
                return mprat.verify_fund(e, a_prime, a, v, rest, ab)
            except mprat.UndefinedError:
                return "undefined"

        def fund_check(out, e=e, a_prime=a_prime, a=a, v=v, rest=rest):
            undefined = helpers.naive_mp_eval(e, _block_point(a_prime, a, v, rest, ab)) is None
            if out == ("undefined" if undefined else True):
                return None
            return f"verify_fund gave {out!r}, reference says undefined={undefined}"
        ops.append(Op("verify-fund", fund, fund_check, repr))
    return ops


# -- symbolic -----------------------------------------------------------------------
#
# Expression building and printing: Schur inversion, the difference
# operator and partial evaluation, all through the command line.


def _generic_entry(rng) -> str:
    # one-digit coefficients above 1: no sign or unit folding, so the
    # printed inverse has the same length for every seed
    a, b, c = (rng.randint(2, 9) for _ in range(3))
    return f"{a}*X1_1 + {b}*X1_2 + {c}"


def _block_value(texts, value: _TextValue):
    """Blockwise reference value of a matrix of printed expressions, or None."""
    rows = []
    for row in texts:
        vals = [value(t) for t in row]
        if any(v is None for v in vals):
            return None
        for r in range(len(vals[0])):
            rows.append([x for v in vals for x in v[r]])
    return rows


def _inverse_check(texts, alphabet: Alphabet, rng_seed: str):
    """M times the printed inverse, at a sampled 2x2 point, is the identity."""
    def check(o: CliOutcome):
        rep = _report(o)
        if o.code != 0 or rep.get("status") != "ok":
            return f"expected an inverse, got exit {o.code}: {o.out[:120]}"
        rng = random.Random(rng_seed)
        for _ in range(8):
            point = helpers.rand_mp_point(rng, alphabet, (2,) * alphabet.parts)
            value = _TextValue(*_mp_assign(point))
            m_val = _block_value(texts, value)
            inv_val = _block_value(rep["entries"], value)
            if m_val is not None and inv_val is not None:
                if helpers.l_mul(m_val, inv_val) != helpers.l_eye(len(m_val)):
                    return "M times the printed inverse is not the identity"
                return None
        return "no sampled point where M and its inverse are defined"
    return check


def _delta_check(text: str, alphabet: Alphabet, index: int, rng_seed: str):
    """The printed delta is the corner block of the expression's value at
    the block point [[a' (x) I, v I], [0, I (x) a]] with v the index's unit
    vector."""
    g = alphabet.size_of(1)
    v = [1 if j == index else 0 for j in range(1, g + 1)]
    ext = alphabet.with_primed(1)

    def check(o: CliOutcome):
        rep = _report(o)
        if o.code != 0 or "expression" not in rep:
            return f"expected an expression, got exit {o.code}: {o.out[:120]}"
        rng = random.Random(rng_seed)
        for _ in range(8):
            a_prime = [_rand_matrix(rng, 2, 3) for _ in range(g)]
            a = [_rand_matrix(rng, 2, 3) for _ in range(g)]
            rest = [[_rand_matrix(rng, 1, 3) for _ in range(alphabet.size_of(p))]
                    for p in range(2, alphabet.parts + 1)]
            whole = _TextValue(*_mp_assign(_block_point(a_prime, a, v, rest, alphabet)))(text)
            ext_point = MpPoint(ext, (tuple(a_prime), tuple(a)) + tuple(tuple(p) for p in rest))
            corner = _TextValue(*_mp_assign(ext_point))(rep["expression"])
            if whole is None or corner is None:
                continue
            half = len(whole) // 2
            if corner != [row[half:] for row in whole[:half]]:
                return "printed delta disagrees with the block formula"
            return None
        return "no sampled point where the expression and its delta are defined"
    return check


def _partial_check(text: str, alphabet: Alphabet, a1, rng_seed: str):
    """Blocks of the printed matrix agree with the full evaluation."""
    rest_ab = Alphabet(alphabet.sizes[1:])

    def check(o: CliOutcome):
        rep = _report(o)
        if o.code != 0 or rep.get("status") != "ok":
            return f"expected an expression matrix, got exit {o.code}: {o.out[:120]}"
        rng = random.Random(rng_seed)
        for _ in range(8):
            rest = tuple(tuple(_rand_matrix(rng, 2, 3) for _ in range(rest_ab.size_of(p)))
                         for p in range(1, rest_ab.parts + 1))
            whole = _TextValue(*_mp_assign(MpPoint(alphabet, (tuple(a1),) + rest)))(text)
            # the printed Schur formulas may be undefined where the
            # expression is not, so only points where both are defined count
            blocks = _block_value(rep["entries"], _TextValue(*_mp_assign(MpPoint(rest_ab, rest))))
            if whole is None or blocks is None:
                continue
            if blocks != whole:
                return "partial evaluation disagrees with the full evaluation"
            return None
        return "no sampled point where the expression and its partial value are defined"
    return check


def _invertible(m: Matrix) -> bool:
    return helpers.l_inv(_lists(m)) is not None


def _symbolic(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []

    def cli_seed() -> str:
        return str(rng.randrange(1 << 20))

    # generic d=4 and d=5 matrices of linear entries in two letters; five of
    # d=4, so that the median call is one of them and not a call so short
    # that fixed per-call costs rule its time
    ab12 = Alphabet((2,))
    for k, d in enumerate((4, 4, 4, 4, 4, 5)):
        rows = [[_generic_entry(rng) for _ in range(d)] for _ in range(d)]
        path = _write(workdir, f"generic{k}.json", json.dumps({"entries": rows}))
        ops.append(_cli_op(f"mat-inv-{d}", ["mat-inv", "--alphabet", "1:2", "--matrix", path,
                                            "--seed", cli_seed()],
                           _inverse_check(rows, ab12, f"check|{d}|{cli_seed()}")))

    # rows 0 and 1 agree in their first two columns, so after pivoting on
    # (0, 0) the Schur complement's first entry is B - A inv(A) B: zero, but
    # only a full sampled scan can say so
    ab221 = Alphabet((2, 1))
    a, d_ = rng.sample(["X1_1", "X1_2"], 2)
    b = "X2_1"
    c1, c2 = rng.sample([1, 2, 3, 4], 2)
    rows = [[a, b, str(c1)], [a, b, str(c2)], [d_, str(rng.randint(1, 4)), a]]
    path = _write(workdir, "schur-zero.json", json.dumps({"entries": rows}))
    ops.append(_cli_op("mat-inv-zero-schur", ["mat-inv", "--alphabet", "2:2,1",
                                              "--matrix", path, "--seed", cli_seed()],
                       _inverse_check(rows, ab221, f"check|schur|{cli_seed()}")))

    # the difference-differential operator on products with inverses
    templates = ("inv(X1_1 + {a}*X2_1) * X1_2 * inv(X1_1*X1_2 + {b})",
                 "X1_2 * inv({a} - X1_1*X2_1*X1_2) * X1_1 + {b}*inv(X1_2)")
    for k in range(2):
        text = templates[k].format(a=rng.randint(1, 4), b=rng.randint(1, 4))
        path = _write(workdir, f"delta{k}.expr", text)
        index = 1 + k
        ops.append(_cli_op("delta", ["delta", "--alphabet", "2:2,1", "--expr", path,
                                     "--part", "1", "--index", str(index)],
                           _delta_check(text, ab221, index,
                                        f"check|delta|{k}|{cli_seed()}")))

    # partial evaluation of part 1 at 3x3 matrices; X1_2's matrix is kept
    # invertible so that every inverse's partial value is invertible
    templates = ("inv(X1_1*X2_1 + X1_2) * X1_2 + X2_1*X1_1",
                 "inv(X1_1 + X2_1) * X1_2 * inv(X1_2 + X2_1*X2_1)")
    for k, text in enumerate(templates):
        while True:
            a1 = [_rand_dense(rng, 3, 5) for _ in range(2)]
            if _invertible(a1[1]):
                break
        doc = {"dims": [3], "parts": [[[str(x) for row in m.data for x in row] for m in a1]]}
        point = _write(workdir, f"partial{k}.json", json.dumps(doc))
        path = _write(workdir, f"partial{k}.expr", text)
        ops.append(_cli_op("partial-eval", ["partial-eval", "--alphabet", "2:2,1",
                                            "--expr", path, "--point", point,
                                            "--seed", cli_seed()],
                           _partial_check(text, ab221, a1,
                                          f"check|partial|{k}|{cli_seed()}")))
    return ops
