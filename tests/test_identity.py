"""Randomized zero/equivalence testing and domain scanning."""

import random
from fractions import Fraction

import pytest

from helpers import naive_mp_eval
from mprat.evaluation import mp_evaluate
from mprat.expression import Alphabet, parse, poly_normal_form
from mprat.identity import (
    ExactZero,
    NonzeroWitness,
    NowhereDefined,
    ProbablyZeroUpTo,
    TestConfig,
    domain_scan,
    equivalent,
    is_zero,
    sample_point,
)

F = Fraction

AB1 = Alphabet((2,))
AB3 = Alphabet((3,))
AB11 = Alphabet((1, 1))
AB2 = Alphabet((2, 2))


def test_config_defaults_and_validation():
    cfg = TestConfig()
    assert (cfg.max_level, cfg.trials_per_level, cfg.entry_bound, cfg.seed) == (4, 8, 10, 0)
    with pytest.raises(ValueError):
        TestConfig(max_level=0)
    with pytest.raises(ValueError):
        TestConfig(entry_bound=0)


def test_sample_point_deterministic():
    cfg = TestConfig(seed=42)
    a = sample_point(AB2, (2, 3), cfg, 5)
    b = sample_point(AB2, (2, 3), cfg, 5)
    assert a == b
    assert a != sample_point(AB2, (2, 3), cfg, 6)
    assert a != sample_point(AB2, (2, 3), TestConfig(seed=43), 5)


def test_sample_point_shapes_and_bound():
    cfg = TestConfig(entry_bound=1)
    p = sample_point(AB2, (2, 3), cfg, 0)
    assert p.dims == (2, 3)
    assert len(p.parts[0]) == 2 and len(p.parts[1]) == 2
    for mats in p.parts:
        for m in mats:
            assert all(-1 <= x <= 1 for x in m.flat())


def test_exact_zero_cross_part():
    v = is_zero(parse("X1_1 * X2_1 - X2_1 * X1_1", AB11), AB11)
    assert isinstance(v, ExactZero)


def test_same_part_commutator_witness_at_level_2():
    v = is_zero(parse("X1_1 * X1_2 - X1_2 * X1_1", AB1), AB1)
    assert isinstance(v, NonzeroWitness)
    assert v.level == 2
    assert v.point.dims == (2,)
    assert not v.value.is_zero()


def test_witness_reverifies_independently():
    e = parse("X1_1 * X1_2 - X1_2 * X1_1", AB1)
    v = is_zero(e, AB1)
    assert naive_mp_eval(e, v.point) == v.value.data


def test_hall_expression_separates_levels_2_and_3():
    # [[x,y]^2, z] vanishes on 2x2 matrices (squared commutators are scalar
    # there) but not on 3x3
    text = ("(X1_1 * X1_2 - X1_2 * X1_1) * (X1_1 * X1_2 - X1_2 * X1_1) * X1_3"
            " - X1_3 * (X1_1 * X1_2 - X1_2 * X1_1) * (X1_1 * X1_2 - X1_2 * X1_1)")
    e = parse(text, AB3)
    v = is_zero(e, AB3)
    assert isinstance(v, NonzeroWitness)
    assert v.level == 3
    assert naive_mp_eval(e, v.point) == v.value.data


def test_exactness_matches_normal_form_on_random_polys():
    from helpers import gen_expr
    rng = random.Random("exact-h0")
    cfg = TestConfig(max_level=2, trials_per_level=4)
    for _ in range(60):
        e = gen_expr(rng, AB2, 2, allow_inverse=False)
        verdict = is_zero(e, AB2, cfg)
        if not poly_normal_form(e, AB2):
            assert isinstance(verdict, ExactZero)
        else:
            assert isinstance(verdict, NonzeroWitness)


def test_tiny_entry_bound_still_finds_witness():
    cfg = TestConfig(max_level=1, trials_per_level=2, entry_bound=1, seed=9)
    v = is_zero(parse("X1_1 * X1_2 - X1_2 * X1_1", AB1), AB1, cfg)
    assert isinstance(v, NonzeroWitness)
    assert v.level == 2


def test_rational_zero_is_probably_zero():
    e = parse("inv(X1_1) * inv(X2_1) - inv(X2_1) * inv(X1_1)", AB11)
    v = is_zero(e, AB11, TestConfig(max_level=3))
    assert isinstance(v, ProbablyZeroUpTo)
    assert v.max_level == 3 and v.trials == 8
    assert v.decided > 0


def test_rational_nonzero_witness():
    e = parse("inv(X1_1) * X1_2 - X1_2 * inv(X1_1)", AB1)
    v = is_zero(e, AB1, TestConfig(max_level=3))
    assert isinstance(v, NonzeroWitness)
    assert v.level == 2
    assert mp_evaluate(e, v.point) == v.value


def test_nowhere_defined():
    e = parse("inv(X1_1 * X2_1 - X2_1 * X1_1)", AB11)
    v = is_zero(e, AB11, TestConfig(max_level=2))
    assert isinstance(v, NowhereDefined)
    assert v.path == ()


def test_equivalent_double_inverse():
    ab = Alphabet((1,))
    lhs = parse("inv(inv(X1_1 + 2))", ab)
    rhs = parse("X1_1 + 2", ab)
    v = equivalent(lhs, rhs, ab)
    assert isinstance(v, ProbablyZeroUpTo)
    assert v.decided >= 16


def test_equivalent_product_inverse_reversal():
    lhs = parse("inv(X1_1 * X2_1)", AB11)
    rhs = parse("inv(X2_1) * inv(X1_1)", AB11)
    v = equivalent(lhs, rhs, AB11)
    assert isinstance(v, ProbablyZeroUpTo)
    assert v.decided >= 16


def test_equivalent_hua_identity():
    x, y = "X1_1", "X1_2"
    lhs = parse(f"inv(inv({x}) + inv(inv({y}) - {x}))", AB1)
    rhs = parse(f"{x} - {x} * {y} * {x}", AB1)
    v = equivalent(lhs, rhs, AB1)
    assert isinstance(v, ProbablyZeroUpTo)
    assert v.decided >= 16


def test_equivalent_polynomials_is_exact():
    lhs = parse("(X1_1 + X1_2) * (X1_1 + X1_2)", AB1)
    rhs = parse("X1_1 * X1_1 + X1_1 * X1_2 + X1_2 * X1_1 + X1_2 * X1_2", AB1)
    assert isinstance(equivalent(lhs, rhs, AB1), ExactZero)
    wrong = parse("X1_1 * X1_1 + 2 * X1_1 * X1_2 + X1_2 * X1_2", AB1)
    assert isinstance(equivalent(lhs, wrong, AB1), NonzeroWitness)


def test_equivalent_detects_difference():
    lhs = parse("inv(X1_1)", AB1)
    rhs = parse("inv(X1_2)", AB1)
    v = equivalent(lhs, rhs, AB1)
    assert isinstance(v, NonzeroWitness)
    assert v.level == 1


def test_domain_scan_polynomial():
    level, point = domain_scan(parse("X1_1 * X2_1", AB11), AB11)
    assert level == 1
    assert point.dims == (1, 1)


def test_domain_scan_needs_level_2():
    e = parse("inv(X1_1 * X1_2 - X1_2 * X1_1)", AB1)
    level, point = domain_scan(e, AB1)
    assert level == 2
    assert not isinstance(mp_evaluate(e, point), type(None))
    from mprat.evaluation import Undefined
    assert not isinstance(mp_evaluate(e, point), Undefined)


def test_domain_scan_nowhere():
    e = parse("inv(X1_1 * X2_1 - X2_1 * X1_1)", AB11)
    assert domain_scan(e, AB11, TestConfig(max_level=3)) == (None, None)


def test_monotone_domain_doubling():
    from mprat.evaluation import MpPoint, Undefined
    from mprat.matrix_kernel import direct_sum
    e = parse("inv(X1_1 * X1_2 - X1_2 * X1_1)", AB1)
    level, point = domain_scan(e, AB1)
    doubled = MpPoint(AB1, (tuple(direct_sum(m, m) for m in point.parts[0]),))
    assert not isinstance(mp_evaluate(e, doubled), Undefined)


def test_verdicts_deterministic():
    e = parse("inv(X1_1) * X1_2 - X1_2 * inv(X1_1)", AB1)
    v1 = is_zero(e, AB1, TestConfig(seed=3))
    v2 = is_zero(e, AB1, TestConfig(seed=3))
    assert v1 == v2


NOWHERE = "inv(X1_1 * X2_1 - X2_1 * X1_1)"


@pytest.mark.parametrize("undefined_side", ["lhs", "rhs"])
def test_equivalent_reports_the_undefined_side(undefined_side):
    bad = parse(f"X1_1 + {NOWHERE}", AB11)
    good = parse("inv(X1_1 + 3)", AB11)
    lhs, rhs = (bad, good) if undefined_side == "lhs" else (good, bad)
    v = equivalent(lhs, rhs, AB11, TestConfig(max_level=2, trials_per_level=2))
    assert isinstance(v, NowhereDefined)
    assert v.path == (1,)
    assert v.subexpr is bad.terms[1]


def test_determinant_self_check_raises_on_singular_nonzero_values(monkeypatch):
    monkeypatch.setattr("mprat.identity._det_nonzero", lambda m: False)
    e = parse("inv(X1_1) * X1_2 - X1_2 * inv(X1_1)", AB1)
    with pytest.raises(RuntimeError, match="determinant criterion"):
        is_zero(e, AB1, TestConfig(max_level=2))


def test_true_identity_computes_no_determinant(monkeypatch):
    calls = []
    monkeypatch.setattr("mprat.identity._det_nonzero", calls.append)
    e = parse("inv(X1_1) * inv(X2_1) - inv(X2_1) * inv(X1_1)", AB11)
    assert isinstance(is_zero(e, AB11, TestConfig(max_level=2)), ProbablyZeroUpTo)
    lhs = parse("inv(X1_1 * X2_1)", AB11)
    rhs = parse("inv(X2_1) * inv(X1_1)", AB11)
    assert isinstance(equivalent(lhs, rhs, AB11, TestConfig(max_level=2)), ProbablyZeroUpTo)
    assert calls == []
