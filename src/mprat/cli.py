"""Batch command line front end.

Reads expressions and points from files, runs the library operations, and
prints one JSON report per invocation on standard output.  Reports use
compact separators and a fixed key order, so identical inputs give
byte-identical output.

Exit codes: 0 success or zero verdict, 1 nonzero witness or not invertible,
2 usage or parse error, 3 undefined at the given point, 4 internal error
(any other exception; one "error: ..." line goes to stderr and nothing to
stdout).
"""

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .calculus import delta
from .evaluation import BfPoint, MpPoint, Undefined, bf_evaluate, mp_evaluate
from .expression import Alphabet, _format_roots, _number_text, format_expr, parse
from .identity import (
    ExactZero,
    NonzeroWitness,
    NowhereDefined,
    ProbablyZeroUpTo,
    TestConfig,
    domain_scan,
    equivalent,
    is_zero,
)
from .matrix_kernel import QQ, Matrix
from .matrix_rational import (
    ExprMatrix,
    NotInvertible,
    PartialUndefined,
    matrix_inverse_expr,
    partial_evaluate,
)
from .realization import BasePointOutsideDomain, Realization, real_reduce, realize


class CliError(Exception):
    """Anything wrong with the invocation or its input files (exit 2)."""


# -- input parsing ------------------------------------------------------------


def parse_alphabet(text: str) -> Alphabet:
    head, sep, tail = text.partition(":")
    if not sep:
        raise CliError(f"--alphabet must look like G:g1,g2,... (got {text!r})")
    try:
        count = int(head)
        sizes = tuple(int(t) for t in tail.split(","))
    except ValueError:
        raise CliError(f"--alphabet must list integers (got {text!r})") from None
    if count != len(sizes):
        raise CliError(f"--alphabet says {count} parts but lists {len(sizes)} sizes")
    try:
        return Alphabet(sizes)
    except ValueError as exc:
        raise CliError(f"--alphabet: {exc}") from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer past the digit limit
        raise CliError(f"{path}: invalid JSON: {exc}") from None


def load_expr(path: str, alphabet: Alphabet):
    text = _read_text(path)
    try:
        return parse(text, alphabet)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


#: Largest |exponent| of a point entry like '1e5': Fraction expands the
#: power of ten before anything else reads it, so 10 bytes could ask for
#: millions of digits.  4300 is the interpreter's default integer digit limit.
MAX_EXPONENT = 4300


def _fraction(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise CliError(f"{where}: entries must be integers or 'p/q' strings, "
                       "or exact decimal strings like '0.5', '1e5' or '1_000'")
    if isinstance(value, str):
        _, e, exponent = value.lower().rpartition("e")
        try:
            too_big = bool(e) and abs(int(exponent)) > MAX_EXPONENT
        except ValueError:
            too_big = False  # not an exponent: Fraction says why
        if too_big:
            raise CliError(f"{where}: exponent beyond ±{MAX_EXPONENT}: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{where}: not a rational: {value!r}") from None


def _matrices(mats, want: int, n: int, path: str, label: str) -> tuple[Matrix, ...]:
    """A JSON list of want flat row-major n×n matrices; label names the list
    in messages, as in "part 1" or "'b_inner'"."""
    if not isinstance(mats, list) or len(mats) != want:
        raise CliError(f"{path}: {label} needs {want} matrices")
    where = f"{path} {label}"
    out = []
    for entries in mats:
        if not isinstance(entries, list) or len(entries) != n * n:
            raise CliError(f"{where}: expected a flat row-major list of {n * n} entries")
        out.append(Matrix.from_flat(QQ, n, n, [_fraction(v, where) for v in entries]))
    return tuple(out)


def _point_doc(doc, path: str):
    if not isinstance(doc, dict) or "dims" not in doc or "parts" not in doc:
        raise CliError(f"{path}: point files need 'dims' and 'parts' keys")
    dims, parts = doc["dims"], doc["parts"]
    if not isinstance(dims, list) or not isinstance(parts, list):
        raise CliError(f"{path}: 'dims' and 'parts' must be lists")
    if len(dims) != len(parts):
        raise CliError(f"{path}: {len(dims)} dims but {len(parts)} parts")
    if not all(type(n) is int and n >= 1 for n in dims):
        raise CliError(f"{path}: 'dims' entries must be positive integers")
    return dims, parts


def load_point(path: str, alphabet: Alphabet) -> MpPoint:
    dims, parts = _point_doc(load_json(path), path)
    if len(parts) != alphabet.parts:
        raise CliError(f"{path}: alphabet has {alphabet.parts} parts, file has {len(parts)}")
    return MpPoint(alphabet, tuple(_matrices(mats, alphabet.size_of(i), n, path, f"part {i}")
                                   for i, (n, mats) in enumerate(zip(dims, parts), start=1)))


def load_base_point(path: str, alphabet: Alphabet) -> list[Matrix]:
    """A point file with one common size m across parts, flattened per letter."""
    a = load_point(path, alphabet)
    if len(set(a.dims)) != 1:
        raise CliError(f"{path}: base points need one common size, got dims {list(a.dims)}")
    return [m for mats in a.parts for m in mats]


# -- output shaping -----------------------------------------------------------


def matrix_rows(m: Matrix) -> list[list[str]]:
    return [[_number_text(x) for x in row] for row in m.data]


def matrix_flat(m: Matrix) -> list[str]:
    return [_number_text(x) for x in m.flat()]


def dump_point(a: MpPoint) -> dict:
    return {"dims": list(a.dims),
            "parts": [[matrix_flat(m) for m in mats] for mats in a.parts]}


class Printed:
    """Printed expression text, or rows of it, as a report value.  The
    printer writes no character that JSON escapes, so _dumps writes the text
    between quotes as it is; the wrapper copies none of it."""

    __slots__ = ("value",)

    def __init__(self, value: str | list[list[str]]):
        self.value = value


def _dumps(report: dict) -> str:
    """json.dumps(report, separators=(",", ":")), joined once from pieces,
    for a report whose Printed values stand at its top level."""
    out: list[str] = []
    for key, value in report.items():
        out += (",", json.dumps(key), ":")
        if isinstance(value, Printed):
            _quote(value.value, out)
        else:
            out.append(json.dumps(value, separators=(",", ":")))
    out[:1] = ["{"]  # the first comma, if any, opens the object
    out.append("}")
    return "".join(out)


def _quote(value: str | list, out: list[str]) -> None:
    if isinstance(value, str):
        out += ('"', value, '"')
        return
    out.append("[")
    for i, item in enumerate(value):
        if i:
            out.append(",")
        _quote(item, out)
    out.append("]")


def value_report(v: Matrix | Undefined) -> tuple[dict, int]:
    """The report of a value at a point, or of where it is undefined (exit 3)."""
    if isinstance(v, Undefined):
        return {"status": "undefined",
                "path": list(v.path),
                "subexpression": Printed(format_expr(v.subexpr))}, 3
    return {"status": "ok", "size": v.rows, "matrix": matrix_rows(v)}, 0


def format_entries(m: ExprMatrix) -> Printed:
    """The printed entries of m, row by row, written through one memo: a
    subexpression shared by several entries is written once."""
    texts = iter(_format_roots([e for row in m.entries for e in row]))
    return Printed([[next(texts) for _ in row] for row in m.entries])


def dump_realization(r: Realization) -> dict:
    """Print each letter coordinate u as one pencil term: its letter, the
    C blocks of column u and B = {(u, u): I_m}, which is always the identity
    and is printed only to keep the output format."""
    columns: dict[int, dict] = {}
    for (k, u), v in sorted(r.C.items()):
        columns.setdefault(u, {})[f"{k},{u}"] = matrix_flat(v)
    eye = matrix_flat(Matrix.identity(r.m))
    return {"m": r.m,
            "dim": r.dim,
            "rho": r.rho,
            "p": [matrix_flat(m) for m in r.p],
            "c": [matrix_flat(m) for m in r.c],
            "b": [matrix_flat(m) for m in r.b],
            "terms": [{"letter": letter, "C": columns.get(u, {}), "B": {f"{u},{u}": eye}}
                      for u, letter in sorted(r.letters.items())]}


def verdict_report(v) -> tuple[dict, int]:
    if isinstance(v, ExactZero):
        return {"verdict": "exact-zero"}, 0
    if isinstance(v, ProbablyZeroUpTo):
        return {"verdict": "probably-zero",
                "max_level": v.max_level,
                "trials": v.trials}, 0
    if isinstance(v, NonzeroWitness):
        return {"verdict": "nonzero",
                "level": v.level,
                "trial": v.trial,
                "point": dump_point(v.point),
                "value": matrix_rows(v.value)}, 1
    if isinstance(v, NowhereDefined):
        return {"verdict": "nowhere-defined",
                "path": list(v.path),
                "subexpression": Printed(format_expr(v.subexpr))}, 3
    raise TypeError(f"unknown verdict {type(v).__name__}")


# -- subcommand handlers ------------------------------------------------------


def build_config(ns) -> TestConfig:
    try:
        return TestConfig(max_level=ns.max_level, trials_per_level=ns.trials,
                          entry_bound=ns.bound, seed=ns.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def cmd_eval(ns) -> tuple[dict, int]:
    alphabet = parse_alphabet(ns.alphabet)
    e = load_expr(ns.expr, alphabet)
    return value_report(mp_evaluate(e, load_point(ns.point, alphabet)))


def cmd_check_zero(ns) -> tuple[dict, int]:
    alphabet = parse_alphabet(ns.alphabet)
    e = load_expr(ns.expr, alphabet)
    return verdict_report(is_zero(e, alphabet, build_config(ns)))


def cmd_equiv(ns) -> tuple[dict, int]:
    alphabet = parse_alphabet(ns.alphabet)
    lhs = load_expr(ns.lhs, alphabet)
    rhs = load_expr(ns.rhs, alphabet)
    return verdict_report(equivalent(lhs, rhs, alphabet, build_config(ns)))


def cmd_delta(ns) -> tuple[dict, int]:
    alphabet = parse_alphabet(ns.alphabet)
    e = load_expr(ns.expr, alphabet)
    try:
        d = delta(ns.part, ns.index, e, alphabet)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return {"expression": Printed(format_expr(d))}, 0


def cmd_realize(ns) -> tuple[dict, int]:
    alphabet = parse_alphabet(ns.alphabet)
    e = load_expr(ns.expr, alphabet)
    base = load_base_point(ns.base_point, alphabet)
    try:
        r = realize(e, alphabet, base)
    except BasePointOutsideDomain as exc:
        return value_report(exc.undefined)
    red = real_reduce(r)
    return {"m": r.m,
            "dim": r.dim,
            "reduced_dim": red.dim,
            "realization": dump_realization(red)}, 0


def cmd_bf_eval(ns) -> tuple[dict, int]:
    if ns.g < 1:
        raise CliError(f"--g must be at least 1 (got {ns.g})")
    doc = load_json(ns.point)
    if not isinstance(doc, dict) or "n" not in doc:
        raise CliError(f"{ns.point}: bf point files need an 'n' key")
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise CliError(f"{ns.point}: 'n' must be a positive integer")
    p = BfPoint(ns.g, n, *(_matrices(doc.get(key), ns.g, n, ns.point, f"'{key}'")
                           for key in ("a_outer", "a_inner", "b_inner", "b_outer")))
    e = load_expr(ns.expr, Alphabet((ns.g, ns.g)))
    return value_report(bf_evaluate(e, p))


def cmd_domain_scan(ns) -> tuple[dict, int]:
    alphabet = parse_alphabet(ns.alphabet)
    e = load_expr(ns.expr, alphabet)
    cfg = build_config(ns)
    level, point = domain_scan(e, alphabet, cfg)
    if level is None:
        return {"status": "no-defined-point",
                "max_level": cfg.max_level,
                "trials": cfg.trials_per_level}, 3
    return {"status": "defined",
            "level": level,
            "dims": list(point.dims),
            "point": dump_point(point)}, 0


def cmd_mat_inv(ns) -> tuple[dict, int]:
    alphabet = parse_alphabet(ns.alphabet)
    doc = load_json(ns.matrix)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise CliError(f"{ns.matrix}: matrix files need an 'entries' key")
    rows = doc["entries"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise CliError(f"{ns.matrix}: 'entries' must be a list of rows")
    def entry(text, i, j):
        if not isinstance(text, str):
            raise CliError(f"{ns.matrix}: entry ({i},{j}) must be an expression string")
        try:
            return parse(text, alphabet)
        except ValueError as exc:
            raise CliError(f"{ns.matrix} entry ({i},{j}): {exc}") from None
    try:
        m = ExprMatrix(alphabet, tuple(
            tuple(entry(t, i, j) for j, t in enumerate(row))
            for i, row in enumerate(rows)))
    except ValueError as exc:
        raise CliError(f"{ns.matrix}: {exc}") from None
    cfg = build_config(ns)
    try:
        res = matrix_inverse_expr(m, cfg)
    except NotInvertible:
        return {"status": "not-invertible",
                "max_level": cfg.max_level,
                "trials": cfg.trials_per_level}, 1
    return {"status": "ok",
            "d": m.d,
            "entries": format_entries(res.matrix),
            "pivots": [{"depth": r.depth, "row": r.row, "col": r.col,
                        "level": r.witness.level, "trial": r.witness.trial}
                       for r in res.pivots]}, 0


def cmd_partial_eval(ns) -> tuple[dict, int]:
    alphabet = parse_alphabet(ns.alphabet)
    e = load_expr(ns.expr, alphabet)
    dims, parts = _point_doc(load_json(ns.point), ns.point)
    if len(parts) != 1:
        raise CliError(f"{ns.point}: partial evaluation takes a one-part point file "
                       "(matrices for part 1 only)")
    a1 = _matrices(parts[0], alphabet.size_of(1), dims[0], ns.point, "part 1")
    try:
        s = partial_evaluate(e, alphabet, a1, build_config(ns))
    except PartialUndefined as exc:
        return {"status": "undefined", "reason": str(exc)}, 3
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return {"status": "ok",
            "d": s.d,
            "parts": list(s.alphabet.sizes),
            "entries": format_entries(s)}, 0


# -- wiring -------------------------------------------------------------------


def _add_alphabet(p):
    p.add_argument("--alphabet", required=True, metavar="G:g1,g2,...",
                   help="number of parts and letters per part")


def _add_expr(p):
    p.add_argument("--expr", required=True, metavar="FILE",
                   help="expression file")


def _add_config(p):
    p.add_argument("--max-level", type=int, default=4, metavar="L",
                   help="largest sample size per slot; at level L the root value is "
                        "L^S x L^S for S slots (parts plus primed copies) and dense work "
                        "grows like L^(3S): L=9 on 3 parts asks for 729x729 values")
    p.add_argument("--trials", type=int, default=8, metavar="T")
    p.add_argument("--bound", type=int, default=10, metavar="B")
    p.add_argument("--seed", type=int, default=0, metavar="S")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="mprat",
        description="Exact evaluation and identity testing for multipartite "
                    "rational expressions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression at a point")
    _add_alphabet(p)
    _add_expr(p)
    p.add_argument("--point", required=True, metavar="FILE")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("check-zero", help="randomized zero test with witnesses")
    _add_alphabet(p)
    _add_expr(p)
    _add_config(p)
    p.set_defaults(handler=cmd_check_zero)

    p = sub.add_parser("equiv", help="test two expressions for equality")
    _add_alphabet(p)
    p.add_argument("lhs", metavar="LHS.expr")
    p.add_argument("rhs", metavar="RHS.expr")
    _add_config(p)
    p.set_defaults(handler=cmd_equiv)

    p = sub.add_parser("delta", help="difference-differential operator")
    _add_alphabet(p)
    _add_expr(p)
    p.add_argument("--part", required=True, type=int, metavar="I")
    p.add_argument("--index", required=True, type=int, metavar="J")
    p.set_defaults(handler=cmd_delta)

    p = sub.add_parser("realize", help="linear pencil realization about a base point")
    _add_alphabet(p)
    _add_expr(p)
    p.add_argument("--base-point", required=True, metavar="FILE")
    p.set_defaults(handler=cmd_realize)

    p = sub.add_parser("bf-eval", help="two-family evaluation in the g+2 slot model")
    p.add_argument("--g", required=True, type=int, metavar="G",
                   help="letters per family")
    _add_expr(p)
    p.add_argument("--point", required=True, metavar="FILE")
    p.set_defaults(handler=cmd_bf_eval)

    p = sub.add_parser("domain-scan", help="search for a point where the "
                                           "expression is defined")
    _add_alphabet(p)
    _add_expr(p)
    _add_config(p)
    p.set_defaults(handler=cmd_domain_scan)

    p = sub.add_parser("mat-inv", help="symbolic inverse of an expression matrix")
    _add_alphabet(p)
    p.add_argument("--matrix", required=True, metavar="FILE")
    _add_config(p)
    p.set_defaults(handler=cmd_mat_inv)

    p = sub.add_parser("partial-eval", help="evaluate part 1 only, leaving an "
                                            "expression matrix over the rest")
    _add_alphabet(p)
    _add_expr(p)
    p.add_argument("--point", required=True, metavar="FILE")
    _add_config(p)
    p.set_defaults(handler=cmd_partial_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or help
        return 0 if exc.code in (0, None) else 2
    try:
        report, code = ns.handler(ns)
        out = _dumps(report)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 4
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
