"""End-to-end command line checks: pinned outputs, exit codes, round trips."""

import json
import random

from mprat.cli import main
from mprat.matrix_kernel import kron

from helpers import rand_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jrun(capsys, *argv):
    code, out, _err = run(capsys, *argv)
    return code, json.loads(out)


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


def test_mat_inv_triangular(tmp_path, capsys):
    mat = wj(tmp_path, "m.json", {"entries": [["X1_1", "1"], ["0", "X1_1"]]})
    code, rep = jrun(capsys, "mat-inv", "--alphabet", "1:1", "--matrix", mat)
    assert code == 0
    assert rep["d"] == 2
    assert rep["entries"] == [["inv(X1_1)", "-inv(X1_1) * inv(X1_1)"],
                              ["0", "inv(X1_1)"]]
    assert [p["depth"] for p in rep["pivots"]] == [0, 1]


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
