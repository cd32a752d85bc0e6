"""End-to-end command line checks: pinned outputs, exit codes, round trips."""

import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import mprat
import pytest

from mprat.cli import main
from mprat.matrix_kernel import kron

from helpers import rand_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jrun(capsys, *argv):
    # every report is byte for byte what json.dumps makes of it
    code, out, _err = run(capsys, *argv)
    rep = json.loads(out)
    assert out == json.dumps(rep, separators=(",", ":")) + "\n"
    return code, rep


def w(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def wj(tmp_path, name, doc):
    return w(tmp_path, name, json.dumps(doc))


def point_file(tmp_path, name, dims, parts):
    def flat(m):
        return [str(m.entry(i, j)) for i in range(m.rows) for j in range(m.cols)]
    return wj(tmp_path, name, {"dims": list(dims),
                               "parts": [[flat(m) for m in mats] for mats in parts]})


def test_check_zero_cross_commutator_exact(tmp_path, capsys):
    expr = w(tmp_path, "c.expr", "X1_1 * X2_1 - X2_1 * X1_1")
    code, out, _ = run(capsys, "check-zero", "--alphabet", "2:1,1", "--expr", expr)
    assert code == 0
    assert out == '{"verdict":"exact-zero"}\n'


def test_equiv_hua_probably_zero(tmp_path, capsys):
    lhs = w(tmp_path, "l.expr", "inv(inv(X1_1) + inv(inv(X2_1) - X1_1))")
    rhs = w(tmp_path, "r.expr", "X1_1 - X1_1 * X2_1 * X1_1")
    code, out, _ = run(capsys, "equiv", "--alphabet", "2:1,1", lhs, rhs, "--seed", "7")
    assert code == 0
    assert out == '{"verdict":"probably-zero","max_level":4,"trials":8}\n'


def test_eval_kronecker_product(tmp_path, capsys):
    rng = random.Random("cli-eval")
    a = rand_matrix(rng, 2)
    b = rand_matrix(rng, 3)
    expr = w(tmp_path, "e.expr", "X1_1 * X2_1")
    point = point_file(tmp_path, "p.json", (2, 3), ((a,), (b,)))
    code, rep = jrun(capsys, "eval", "--alphabet", "2:1,1",
                     "--expr", expr, "--point", point)
    assert code == 0
    want = kron(a, b)
    assert rep == {"status": "ok", "size": 6,
                   "matrix": [[str(want.entry(i, j)) for j in range(6)]
                              for i in range(6)]}


def test_point_entries_take_every_exact_fraction_string(tmp_path, capsys):
    # entries go through Fraction(str): decimals, exponents, digit
    # underscores and surrounding spaces are all read exactly
    expr = w(tmp_path, "e.expr", "X1_1")
    point = wj(tmp_path, "p.json", {"dims": [3], "parts": [[[
        "0.5", "1e5", "1_000", " 3 ", "-2/4", "1.5e-3", 7, "-0", "+4"]]]})
    code, rep = jrun(capsys, "eval", "--alphabet", "1:1", "--expr", expr, "--point", point)
    assert code == 0
    assert rep["matrix"] == [["1/2", "100000", "1000"], ["3", "-1/2", "3/2000"],
                             ["7", "0", "4"]]


def test_point_entry_exponents_stop_at_the_digit_limit(tmp_path, capsys):
    # Fraction would expand 10^|exponent| first, so the bound is checked on
    # the string; the largest exponents still read exactly
    expr = w(tmp_path, "e.expr", "X1_1")
    for entry, want in (("1e4300", "1" + "0" * 4300), ("-1E-4_300", "-1/1" + "0" * 4300)):
        point = wj(tmp_path, "p.json", {"dims": [1], "parts": [[[entry]]]})
        assert jrun(capsys, "eval", "--alphabet", "1:1", "--expr", expr, "--point", point) == (
            0, {"status": "ok", "size": 1, "matrix": [[want]]})
    for entry in ("1e4301", "1e-4301", "0e10000000"):
        point = wj(tmp_path, "p.json", {"dims": [1], "parts": [[[entry]]]})
        code, out, err = run(capsys, "eval", "--alphabet", "1:1", "--expr", expr, "--point", point)
        assert (code, out) == (2, "")
        assert err == f"error: {point} part 1: exponent beyond ±4300: {entry!r}\n"


def test_values_past_the_integer_digit_limit_print_exactly(tmp_path, capsys):
    # str() of an integer refuses more than 4300 digits; the reports do not.
    # (10^4000 - 1)^2 = 9…98 0…01, 8000 digits
    nines = "9" * 4000
    c = "9" * 3999 + "8" + "0" * 3999 + "1"
    expr = w(tmp_path, "e.expr", f"X1_1 * {nines} * {nines}")
    one = wj(tmp_path, "p.json", {"dims": [1], "parts": [[["1"]]]})
    matrix = wj(tmp_path, "m.json", {"entries": [[f"X1_1 * {nines} * {nines}"]]})
    assert jrun(capsys, "eval", "--alphabet", "1:1", "--expr", expr, "--point", one) == (
        0, {"status": "ok", "size": 1, "matrix": [[c]]})
    assert jrun(capsys, "delta", "--alphabet", "1:1", "--expr", expr,
                "--part", "1", "--index", "1") == (0, {"expression": c})
    code, rep = jrun(capsys, "check-zero", "--alphabet", "1:1", "--expr", expr)
    assert (code, rep["point"]["parts"], rep["value"]) == (1, [[["1"]]], [[c]])
    code, rep = jrun(capsys, "mat-inv", "--alphabet", "1:1", "--matrix", matrix)
    assert (code, rep["entries"]) == (0, [[f"inv(X1_1 * {c})"]])
    # a nested continued fraction at 1: numerator and denominator of about
    # 4600 digits, p/q -> q/(99q + p) at each level
    depth = 2300
    expr = w(tmp_path, "cf.expr", "inv(99 + " * depth + "X1_1" + ")" * depth)
    code, rep = jrun(capsys, "eval", "--alphabet", "1:1", "--expr", expr, "--point", one)
    num, den = rep["matrix"][0][0].split("/")
    p = q = 1
    for _ in range(depth):
        p, q = q, 99 * q + p
    assert code == 0 and num.isdigit() and den.isdigit() and len(num) > 4500
    assert (int(Decimal(num)), int(Decimal(den))) == (p, q)


def test_eval_undefined_exit_3(tmp_path, capsys):
    from mprat.matrix_kernel import Matrix
    expr = w(tmp_path, "e.expr", "inv(X1_1)")
    point = point_file(tmp_path, "p.json", (2,), ((Matrix.zeros(2, 2),),))
    code, rep = jrun(capsys, "eval", "--alphabet", "1:1",
                     "--expr", expr, "--point", point)
    assert code == 3
    assert rep["status"] == "undefined"
    assert rep["path"] == []
    assert rep["subexpression"] == "inv(X1_1)"


def test_check_zero_witness_round_trip(tmp_path, capsys):
    expr = w(tmp_path, "c.expr", "X1_1 * X1_2 - X1_2 * X1_1")
    code, rep = jrun(capsys, "check-zero", "--alphabet", "1:2", "--expr", expr)
    assert code == 1
    assert rep["verdict"] == "nonzero"
    assert rep["level"] == 2
    point = wj(tmp_path, "w.json", rep["point"])
    code2, rep2 = jrun(capsys, "eval", "--alphabet", "1:2",
                       "--expr", expr, "--point", point)
    assert code2 == 0
    assert rep2["matrix"] == rep["value"]


def test_byte_determinism(tmp_path, capsys):
    expr = w(tmp_path, "c.expr", "X1_1 * X1_2 - X1_2 * X1_1")
    args = ("check-zero", "--alphabet", "1:2", "--expr", expr, "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_delta_output(tmp_path, capsys):
    expr = w(tmp_path, "e.expr", "X1_1 * X1_1")
    code, rep = jrun(capsys, "delta", "--alphabet", "1:1",
                     "--expr", expr, "--part", "1", "--index", "1")
    assert code == 0
    assert rep == {"expression": "X1_1' + X1_1"}


def test_delta_with_inverses_and_fractions(tmp_path, capsys):
    text = "inv(X1_1 - 1/2) * X1_2 * X1_1 - 3 * inv(X2_1 + X1_2)"
    expr = w(tmp_path, "e.expr", text)
    code, rep = jrun(capsys, "delta", "--alphabet", "2:2,1",
                     "--expr", expr, "--part", "1", "--index", "2")
    assert code == 0
    alphabet = mprat.Alphabet((2, 1))
    assert rep == {"expression": mprat.format_expr(
        mprat.delta(1, 2, mprat.parse(text, alphabet), alphabet))}


def test_realize_reports_dims(tmp_path, capsys):
    from mprat.matrix_kernel import QQ, Matrix
    expr = w(tmp_path, "e.expr", "inv(X1_1)")
    base = point_file(tmp_path, "b.json", (1,), ((Matrix.of(QQ, [[2]]),),))
    code, rep = jrun(capsys, "realize", "--alphabet", "1:1",
                     "--expr", expr, "--base-point", base)
    assert code == 0
    assert rep["m"] == 1
    assert rep["dim"] == 3
    assert rep["reduced_dim"] <= rep["dim"]
    assert rep["realization"]["dim"] == rep["reduced_dim"]
    assert rep["realization"]["terms"]
    assert rep["realization"]["p"] == [["2"]]


def test_realize_outside_domain(tmp_path, capsys):
    from mprat.matrix_kernel import QQ, Matrix
    expr = w(tmp_path, "e.expr", "inv(X1_1)")
    base = point_file(tmp_path, "b.json", (1,), ((Matrix.of(QQ, [[0]]),),))
    code, rep = jrun(capsys, "realize", "--alphabet", "1:1",
                     "--expr", expr, "--base-point", base)
    assert code == 3
    assert rep["status"] == "undefined"


REALIZE_GOLDEN = [
    ("inv(X1_1)", "1:1", {"dims": [1], "parts": [[["2"]]]},
     '{"m":1,"dim":3,"reduced_dim":2,"realization":{"m":1,"dim":2,"rho":1,'
     '"p":[["2"]],"c":[["1"],["0"]],"b":[["1/2"],["-1/2"]],'
     '"terms":[{"letter":1,"C":{"0,1":["1/2"],"1,1":["-1/2"]},"B":{"1,1":["1"]}}]}}\n'),
    ("X1_1 * X1_2 + 1", "1:2",
     {"dims": [2], "parts": [[["1", "2", "3", "4"], ["0", "1", "-1", "1/2"]]]},
     '{"m":2,"dim":5,"reduced_dim":4,"realization":{"m":2,"dim":4,"rho":2,'
     '"p":[["1","2","3","4"],["0","1","-1","1/2"]],'
     '"c":[["1","0","0","1"],["0","0","0","0"],["0","0","0","0"],["1","0","0","1"]],'
     '"b":[["-2","2","-4","5"],["0","1","-1","1/2"],["1","0","0","1"],["1","0","0","1"]],'
     '"terms":[{"letter":1,"C":{"0,1":["1","0","0","1"]},"B":{"1,1":["1","0","0","1"]}},'
     '{"letter":2,"C":{"0,2":["1","2","3","4"],"1,2":["1","0","0","1"]},'
     '"B":{"2,2":["1","0","0","1"]}}]}}\n'),
    ("X1_1 + X1_1", "1:2", {"dims": [1], "parts": [[["3"], ["-5/2"]]]},
     '{"m":1,"dim":4,"reduced_dim":4,"realization":{"m":1,"dim":4,"rho":2,'
     '"p":[["3"],["-5/2"]],"c":[["1"],["0"],["1"],["0"]],"b":[["3"],["1"],["3"],["1"]],'
     '"terms":[{"letter":1,"C":{"0,1":["1"]},"B":{"1,1":["1"]}},'
     '{"letter":1,"C":{"2,3":["1"]},"B":{"3,3":["1"]}}]}}\n'),
]


def test_realize_prints_pinned_blocks(tmp_path, capsys):
    # the full printed realization, blocks and rho included, stays byte-identical
    for i, (text, alphabet, base, want) in enumerate(REALIZE_GOLDEN):
        expr = w(tmp_path, f"e{i}.expr", text)
        point = wj(tmp_path, f"b{i}.json", base)
        code, out, _ = run(capsys, "realize", "--alphabet", alphabet,
                           "--expr", expr, "--base-point", point)
        assert code == 0
        assert out == want


def test_bf_eval_cross_family_commutator(tmp_path, capsys):
    rng = random.Random("cli-bf")
    def flat():
        return [str(rng.randint(-5, 5)) for _ in range(4)]
    point = wj(tmp_path, "bf.json", {
        "n": 2,
        "a_outer": [flat(), flat()],
        "a_inner": [flat(), flat()],
        "b_inner": [flat(), flat()],
        "b_outer": [flat(), flat()],
    })
    expr = w(tmp_path, "e.expr", "X1_1 * X2_2 - X2_2 * X1_1")
    code, rep = jrun(capsys, "bf-eval", "--g", "2", "--expr", expr, "--point", point)
    assert code == 0
    assert rep["size"] == 16
    assert all(v == "0" for row in rep["matrix"] for v in row)


def test_domain_scan_found_and_fed_back(tmp_path, capsys):
    expr = w(tmp_path, "e.expr", "inv(X1_1 * X1_2 - X1_2 * X1_1)")
    code, rep = jrun(capsys, "domain-scan", "--alphabet", "1:2", "--expr", expr)
    assert code == 0
    assert rep["status"] == "defined"
    assert rep["level"] == 2
    point = wj(tmp_path, "p.json", rep["point"])
    code2, rep2 = jrun(capsys, "eval", "--alphabet", "1:2",
                       "--expr", expr, "--point", point)
    assert code2 == 0
    assert rep2["status"] == "ok"


def test_domain_scan_nowhere(tmp_path, capsys):
    expr = w(tmp_path, "e.expr", "inv(X1_1 - X1_1)")
    code, rep = jrun(capsys, "domain-scan", "--alphabet", "1:1", "--expr", expr,
                     "--max-level", "2", "--trials", "2")
    assert code == 3
    assert rep == {"status": "no-defined-point", "max_level": 2, "trials": 2}


def test_nowhere_defined_verdict_exit_3(tmp_path, capsys):
    nowhere = w(tmp_path, "n.expr", "inv(X1_1 - X1_1)")
    x = w(tmp_path, "x.expr", "X1_1")
    want = '{"verdict":"nowhere-defined","path":[],"subexpression":"inv(X1_1 - X1_1)"}\n'
    for argv in (["check-zero", "--alphabet", "1:1", "--expr", nowhere],
                 ["equiv", "--alphabet", "1:1", nowhere, x],
                 ["equiv", "--alphabet", "1:1", x, nowhere]):
        assert run(capsys, *argv) == (3, want, "")
    # equiv gives the path from the root of the side that holds the inverse
    inner = w(tmp_path, "i.expr", "X1_1 * inv(X1_1 - X1_1)")
    want = want.replace('"path":[]', '"path":[1]')
    for sides in ([inner, x], [x, inner]):
        assert run(capsys, "equiv", "--alphabet", "1:1", *sides) == (3, want, "")


@pytest.mark.parametrize("text, path", [
    ("X1_1 * inv(X1_1 - X1_1) + inv(X1_1 - X1_1)", [0, 1]),
    ("inv(inv(X1_1 - X1_1) + 1) + inv(X1_1 - X1_1)", [0, 0, 0]),
    ("inv(X1_1*X2_1 - X2_1*X1_1) * X1_1 + X2_1 * inv(X1_1*X2_1 - X2_1*X1_1)", [0, 0]),
])
def test_repeated_undefined_subtrees_keep_their_paths(tmp_path, capsys, text, path):
    # an undefined subexpression written twice is reported at its leftmost place
    expr = w(tmp_path, "e.expr", text)
    code, rep = jrun(capsys, "check-zero", "--alphabet", "2:1,1", "--expr", expr)
    assert code == 3
    assert rep["verdict"] == "nowhere-defined"
    assert rep["path"] == path


def test_module_entry_points_agree(tmp_path):
    # python -m mprat.cli runs the command line as python -m mprat does
    expr = w(tmp_path, "n.expr", "inv(X1_1 - X1_1)")
    env = {**os.environ, "PYTHONPATH": str(Path(mprat.__file__).parent.parent)}
    runs = [subprocess.run([sys.executable, "-m", module, "check-zero", "--alphabet", "1:1",
                            "--expr", expr], capture_output=True, text=True, env=env)
            for module in ("mprat", "mprat.cli")]
    assert [(r.returncode, r.stdout) for r in runs] == [
        (3, '{"verdict":"nowhere-defined","path":[],"subexpression":"inv(X1_1 - X1_1)"}\n')] * 2


def test_bf_eval_undefined_exit_3(tmp_path, capsys):
    point = wj(tmp_path, "bf.json", {"n": 1, "a_outer": [["0"]], "a_inner": [["1"]],
                                     "b_inner": [["1"]], "b_outer": [["1"]]})
    expr = w(tmp_path, "e.expr", "inv(X1_1)")
    assert run(capsys, "bf-eval", "--g", "1", "--expr", expr, "--point", point) == (
        3, '{"status":"undefined","path":[],"subexpression":"inv(X1_1)"}\n', "")


def test_mat_inv_triangular(tmp_path, capsys):
    mat = wj(tmp_path, "m.json", {"entries": [["X1_1", "1"], ["0", "X1_1"]]})
    code, rep = jrun(capsys, "mat-inv", "--alphabet", "1:1", "--matrix", mat)
    assert code == 0
    assert rep["d"] == 2
    assert rep["entries"] == [["inv(X1_1)", "-inv(X1_1) * inv(X1_1)"],
                              ["0", "inv(X1_1)"]]
    assert [p["depth"] for p in rep["pivots"]] == [0, 1]


def test_mat_inv_generic_d4(tmp_path, capsys):
    rng = random.Random("cli-mat-inv")
    rows = [[f"{rng.randint(-3, 3)} * X1_1 + {rng.randint(-3, 3)} * X1_2 + {rng.randint(1, 3)}"
             for _ in range(4)] for _ in range(4)]
    mat = wj(tmp_path, "m.json", {"entries": rows})
    code, rep = jrun(capsys, "mat-inv", "--alphabet", "1:2", "--matrix", mat)
    assert code == 0
    assert rep["d"] == 4 and len(rep["pivots"]) == 4
    alphabet = mprat.Alphabet((2,))
    for row in rep["entries"]:
        assert len(row) == 4
        for text in row:
            mprat.parse(text, alphabet)


def test_mat_inv_singular(tmp_path, capsys):
    mat = wj(tmp_path, "m.json", {"entries": [["X1_1", "X1_1"], ["X1_1", "X1_1"]]})
    code, rep = jrun(capsys, "mat-inv", "--alphabet", "1:1", "--matrix", mat,
                     "--max-level", "2", "--trials", "4")
    assert code == 1
    assert rep == {"status": "not-invertible", "max_level": 2, "trials": 4}


def test_partial_eval(tmp_path, capsys):
    expr = w(tmp_path, "e.expr", "X1_1 * X2_1")
    point = wj(tmp_path, "p.json", {"dims": [2],
                                    "parts": [[["2", "3", "4", "5"]]]})
    code, rep = jrun(capsys, "partial-eval", "--alphabet", "2:1,1",
                     "--expr", expr, "--point", point)
    assert code == 0
    assert rep["d"] == 2
    assert rep["parts"] == [1]
    assert rep["entries"] == [["2 * X1_1", "3 * X1_1"],
                              ["4 * X1_1", "5 * X1_1"]]


def test_partial_eval_undefined(tmp_path, capsys):
    expr = w(tmp_path, "e.expr", "inv(X1_1)")
    point = wj(tmp_path, "p.json", {"dims": [2],
                                    "parts": [[["0", "0", "0", "0"]]]})
    code, rep = jrun(capsys, "partial-eval", "--alphabet", "2:1,1",
                     "--expr", expr, "--point", point)
    assert code == 3
    assert rep["status"] == "undefined"


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["check-zero", "--alphabet", "2:1", "--expr", "nope"]) == 2
    capsys.readouterr()
    expr = w(tmp_path, "bad.expr", "X1_1 * + 3")
    assert main(["check-zero", "--alphabet", "1:1", "--expr", expr]) == 2
    capsys.readouterr()
    bad = w(tmp_path, "bad.json", "{not json")
    e = w(tmp_path, "ok.expr", "X1_1")
    assert main(["eval", "--alphabet", "1:1", "--expr", e, "--point", bad]) == 2
    _, err = capsys.readouterr().out, capsys.readouterr().err
    assert main(["eval", "--alphabet", "1:1", "--expr", "missing.expr",
                 "--point", bad]) == 2
    capsys.readouterr()
    for dims, mats in ((["1", 1], [["1"]]), ([1.0, 1], [["1"]]),
                       ([True, 1], [["1"]]), ([0, 1], [[]])):
        point = wj(tmp_path, "dims.json", {"dims": dims, "parts": [mats, [["1"]]]})
        assert main(["eval", "--alphabet", "2:1,1", "--expr", e, "--point", point]) == 2
        assert capsys.readouterr().out == ""
    for n in (True, 1.0, "1", 0):
        point = wj(tmp_path, "bf.json", {"n": n, "a_outer": [["1"]], "a_inner": [["1"]],
                                         "b_inner": [["1"]], "b_outer": [["1"]]})
        assert main(["bf-eval", "--g", "1", "--expr", e, "--point", point]) == 2
        assert capsys.readouterr().out == ""
    point = wj(tmp_path, "bf0.json", {"n": 1, "a_outer": [], "a_inner": [],
                                      "b_inner": [], "b_outer": []})
    assert main(["bf-eval", "--g", "0", "--expr", e, "--point", point]) == 2
    assert capsys.readouterr() == ("", "error: --g must be at least 1 (got 0)\n")
    # one input per other check on the input: each exits 2, prints nothing on
    # stdout and one error line, naming what is wrong, on stderr
    e2 = w(tmp_path, "e2.expr", "X1_1 * X2_1")
    files = iter(range(100))

    def pt(doc):
        # each case its own file: the list is built before any case runs
        return wj(tmp_path, f"f{next(files)}.json", doc)

    one = {"dims": [1], "parts": [[["1"]]]}
    cases = [
        (["check-zero", "--alphabet", "1", "--expr", e], "must look like G:g1,g2"),
        (["check-zero", "--alphabet", "1:x", "--expr", e], "must list integers"),
        (["check-zero", "--alphabet", "1:0", "--expr", e], "at least one letter"),
        (["eval", "--alphabet", "1:1", "--expr", e,
          "--point", pt({"dims": [1], "parts": [[[1.5]]]})], "integers or 'p/q' strings"),
        (["eval", "--alphabet", "1:1", "--expr", e,
          "--point", pt({"dims": [1], "parts": [[[True]]]})], "integers or 'p/q' strings"),
        (["eval", "--alphabet", "1:1", "--expr", e,
          "--point", pt({"dims": [1], "parts": [[[0.5]]]})], "like '0.5', '1e5' or '1_000'"),
        (["eval", "--alphabet", "1:1", "--expr", e,
          "--point", pt({"dims": [1], "parts": [[["1/0"]]]})], "not a rational: '1/0'"),
        (["eval", "--alphabet", "1:1", "--expr", e,
          "--point", pt({"dims": [2], "parts": [[["1"]]]})], "list of 4 entries"),
        (["eval", "--alphabet", "1:1", "--expr", e,
          "--point", pt({"dims": [1], "parts": [[["1e5000"]]]})], "exponent beyond ±4300"),
        (["eval", "--alphabet", "1:1", "--expr", e,
          "--point", w(tmp_path, "big.json", '{"dims": [1], "parts": [[[' + "1" * 5000 + "]]]}")],
         "invalid JSON"),
        (["eval", "--alphabet", "1:1", "--expr", e, "--point", pt({"dims": [1]})],
         "need 'dims' and 'parts' keys"),
        (["eval", "--alphabet", "1:1", "--expr", e, "--point", pt({"dims": 1, "parts": 1})],
         "must be lists"),
        (["eval", "--alphabet", "1:1", "--expr", e,
          "--point", pt({"dims": [1, 1], "parts": [[["1"]]]})], "2 dims but 1 parts"),
        (["eval", "--alphabet", "2:1,1", "--expr", e, "--point", pt(one)],
         "alphabet has 2 parts, file has 1"),
        (["eval", "--alphabet", "1:2", "--expr", e, "--point", pt(one)],
         "part 1 needs 2 matrices"),
        (["realize", "--alphabet", "2:1,1", "--expr", e2, "--base-point",
          pt({"dims": [1, 2], "parts": [[["1"]], [["1", "0", "0", "1"]]]})],
         "one common size, got dims [1, 2]"),
        (["check-zero", "--alphabet", "1:1", "--expr", e, "--trials", "0"], "must be ≥ 1"),
        (["delta", "--alphabet", "1:1", "--expr", e, "--part", "3", "--index", "1"],
         "part 3 out of range"),
        (["bf-eval", "--g", "1", "--expr", e, "--point", pt({})],
         "need an 'n' key"),
        (["bf-eval", "--g", "1", "--expr", e,
          "--point", pt({"n": 1, "a_outer": [["1"]], "a_inner": [["1"]], "b_inner": []})],
         "'b_inner' needs 1 matrices"),
        (["mat-inv", "--alphabet", "1:1", "--matrix", pt({})], "need an 'entries' key"),
        (["mat-inv", "--alphabet", "1:1", "--matrix", pt({"entries": ["X1_1"]})],
         "must be a list of rows"),
        (["mat-inv", "--alphabet", "1:1", "--matrix", pt({"entries": [[1]]})],
         "entry (0,0) must be an expression string"),
        (["mat-inv", "--alphabet", "1:1", "--matrix", pt({"entries": [["X1_1", "1"]]})],
         "matrix must be square"),
        (["partial-eval", "--alphabet", "2:1,1", "--expr", e2,
          "--point", pt({"dims": [1, 1], "parts": [[["1"]], [["1"]]]})],
         "takes a one-part point file"),
        (["partial-eval", "--alphabet", "2:2,1", "--expr", e2, "--point", pt(one)],
         "part 1 needs 2 matrices"),
        (["partial-eval", "--alphabet", "1:1", "--expr", e, "--point", pt(one)],
         "need at least one remaining part"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert message in err, (argv, err)


def test_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    # exit 1 means "nonzero witness"; a crash must not be mistaken for it
    def broken(*args):
        raise RuntimeError("library failure\nsecond line")
    monkeypatch.setattr("mprat.cli.is_zero", broken)
    expr = w(tmp_path, "e.expr", "inv(X1_1)")
    code, out, err = run(capsys, "check-zero", "--alphabet", "1:1", "--expr", expr)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_input_gets_a_verdict(tmp_path, capsys):
    # 5000 nested inverses of X1_1 evaluate to X1_1 itself
    expr = w(tmp_path, "deep.expr", "inv(" * 5000 + "X1_1" + ")" * 5000)
    code, rep = jrun(capsys, "check-zero", "--alphabet", "1:1", "--expr", expr)
    assert code == 1
    assert rep["verdict"] == "nonzero"
    assert rep["value"] == [[rep["point"]["parts"][0][0][0]]]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_calls_in_one_process_do_not_share_state(tmp_path, capsys):
    # one process, one parser: each call's exit code, stdout and stderr are
    # the same whatever ran before it
    ok = w(tmp_path, "ok.expr", "X1_1 * X1_2 - X1_2 * X1_1")
    bad = w(tmp_path, "bad.expr", "X1_1 * + 3")
    calls = [
        [],                                                          # usage error
        ["--help"],
        ["mat-inv", "--help"],
        ["check-zero", "--alphabet", "1:2", "--expr", bad],          # parse error
        ["check-zero", "--alphabet", "1:2", "--expr", ok, "--seed", "3", "--max-level", "2"],
        ["check-zero", "--alphabet", "1:2", "--expr", ok],           # option defaults
        ["delta", "--alphabet", "1:2", "--expr", ok, "--part", "1", "--index", "2"],
        ["check-zero", "--alphabet", "1:2", "--expr", ok, "--trials", "x"],
    ]
    forward = [run(capsys, *argv) for argv in calls]
    backward = [run(capsys, *argv) for argv in reversed(calls)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [2, 0, 0, 2, 1, 1, 0, 2]
    assert forward[4][1] != forward[5][1]
