"""Randomized zero/equivalence testing and domain scanning."""

import random
from fractions import Fraction

import pytest

from helpers import corpus, gen_expr, l_inv, naive_mp_eval
from mprat.evaluation import Undefined, mp_evaluate
from mprat.expression import (
    Alphabet,
    Inverse,
    Product,
    Sum,
    Var,
    inversion_height,
    parse,
    poly_normal_form,
    subexpr_at,
)
from mprat.identity import (
    ExactZero,
    NonzeroWitness,
    NowhereDefined,
    ProbablyZeroUpTo,
    TestConfig,
    _hunt_polynomial_witness,
    _zero_test,
    domain_scan,
    equivalent,
    is_zero,
    sample_point,
)
from mprat.matrix_kernel import QQ, Matrix

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


@pytest.mark.parametrize("alphabet,dims", [
    (AB2, (2, 3)),
    (AB1, (0,)),
    (AB11.with_primed(1), (1, 3, 2)),
    (Alphabet((2, 1), frozenset({2})), (3, 0, 2)),
])
def test_sample_point_is_the_from_flat_construction(alphabet, dims):
    # the same randint calls, row-major, through the checked constructor
    def reference(cfg, trial):
        rng = random.Random(f"{cfg.seed}|{','.join(map(str, dims))}|{trial}")
        return tuple(
            tuple(Matrix.from_flat(QQ, n, n, [rng.randint(-cfg.entry_bound, cfg.entry_bound)
                                              for _ in range(n * n)])
                  for _ in range(alphabet.size_of(part)))
            for n, (part, _) in zip(dims, alphabet.slots()))

    for seed in (0, 1, 17):
        for bound in (1, 10):
            cfg = TestConfig(seed=seed, entry_bound=bound)
            for trial in range(4):
                assert sample_point(alphabet, dims, cfg, trial).parts == reference(cfg, trial)


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


def test_equivalent_hua_identity_on_two_parts():
    # the letters commute, and the inverses of sums above 3x3 are taken
    # through the inverse in each sum
    lhs = parse("inv(inv(X1_1) + inv(inv(X2_1) - X1_1))", AB11)
    rhs = parse("X1_1 - X1_1 * X2_1 * X1_1", AB11)
    v = equivalent(lhs, rhs, AB11)
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
@pytest.mark.parametrize("text, path", [
    (f"X1_1 + {NOWHERE}", (1,)),
    ("X1_1 * inv(X1_1 - X1_1)", (1,)),
    ("X2_1 + X1_1 * inv(X1_1 - X1_1)", (1, 1)),
    ("inv(inv(X1_1 - X1_1) + X2_1) * 2", (0, 0, 0)),
])
def test_equivalent_reports_the_undefined_side(undefined_side, text, path):
    # the path runs from the root of the side that holds the inverse
    bad = parse(text, AB11)
    good = parse("inv(X1_1 + 3)", AB11)
    lhs, rhs = (bad, good) if undefined_side == "lhs" else (good, bad)
    v = equivalent(lhs, rhs, AB11, TestConfig(max_level=2, trials_per_level=2))
    assert isinstance(v, NowhereDefined)
    assert v.path == path
    assert v.subexpr is subexpr_at(bad, path)


@pytest.mark.parametrize("lhs, rhs", [
    ("inv(X1_1) * X2_1", "X2_1 * inv(X1_1)"),
    ("X1_1", "X1_1 + inv(X2_1) - inv(X2_1)"),
    ("inv(X1_1 + X2_1) + inv(X2_1)", "inv(X2_1) + inv(X1_1 + X2_1)"),
])
def test_equivalent_decides_the_trials_where_both_sides_are_defined(lhs, rhs):
    # the reference evaluates each side on its own, as two evaluators
    e1, e2 = parse(lhs, AB11), parse(rhs, AB11)
    cfg = TestConfig(max_level=3, trials_per_level=6, entry_bound=1)
    decided = 0
    for level in range(1, cfg.max_level + 1):
        for trial in range(cfg.trials_per_level):
            a = sample_point(AB11, (level, level), cfg, trial)
            v1, v2 = mp_evaluate(e1, a), mp_evaluate(e2, a)
            if not isinstance(v1, Undefined) and not isinstance(v2, Undefined):
                assert v1 == v2
                decided += 1
    assert 0 < decided < cfg.max_level * cfg.trials_per_level
    assert equivalent(e1, e2, AB11, cfg) == ProbablyZeroUpTo(
        cfg.max_level, cfg.trials_per_level, decided)


def test_equivalent_rejects_a_letter_outside_the_alphabet_on_either_side():
    # also when the other side is undefined at every point
    nowhere, stray = parse("inv(X1_1 - X1_1)", AB1), Var(2, 1)
    for lhs, rhs in ((nowhere, stray), (stray, nowhere)):
        with pytest.raises(ValueError, match="X2_1"):
            equivalent(lhs, rhs, AB1, TestConfig(max_level=1, trials_per_level=1))


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


def _counting_evaluate(calls):
    def evaluate(e, trial, a):
        calls.append((a.dims, trial))
        return mp_evaluate(e, a)
    return evaluate


def test_rational_witness_ends_the_scan():
    # level 1 commutes, so all of it is zero; at level 2 the first nonzero
    # value is nonsingular and ends the scan
    cfg = TestConfig()
    calls = []
    e = parse("inv(X1_1) * X1_2 - X1_2 * inv(X1_1)", AB1)
    v = _zero_test(e, AB1, cfg, _counting_evaluate(calls))
    assert isinstance(v, NonzeroWitness) and v.level == 2
    assert v.trial < cfg.trials_per_level - 1
    assert calls == ([((1,), t) for t in range(cfg.trials_per_level)]
                     + [((2,), t) for t in range(v.trial + 1)])


def test_singular_first_witness_stays_the_witness(monkeypatch):
    # the first nonzero value fails the determinant test: the scan goes on
    # to the next nonzero value, which passes it, and returns the first
    dets = []

    def det_nonzero(m):
        dets.append(m)
        return len(dets) > 1

    monkeypatch.setattr("mprat.identity._det_nonzero", det_nonzero)
    cfg = TestConfig()
    e = parse("inv(X1_1) * X1_2 - X1_2 * inv(X1_1)", AB1)
    level_2 = [mp_evaluate(e, sample_point(AB1, (2,), cfg, t))
               for t in range(cfg.trials_per_level)]
    nonzero = [t for t, m in enumerate(level_2) if not m.is_zero()]
    assert nonzero[1] < cfg.trials_per_level - 1
    calls = []
    v = _zero_test(e, AB1, cfg, _counting_evaluate(calls))
    assert (v.level, v.trial, v.value) == (2, nonzero[0], level_2[nonzero[0]])
    assert dets == [level_2[t] for t in nonzero[:2]]
    assert calls[-1] == ((2,), nonzero[1])


def test_polynomial_level_1_witness_needs_no_normal_form(monkeypatch):
    def no_normal_form(e, alphabet):
        raise AssertionError("normal form computed")

    monkeypatch.setattr("mprat.identity.poly_normal_form", no_normal_form)
    ab = Alphabet((2, 1))
    f = " * ".join(["(X1_1 + X1_2 + X2_1)"] * 6)
    e = parse(f"{f} - {f} + X1_1 * X1_2", ab)
    v = is_zero(e, ab)
    assert isinstance(v, NonzeroWitness) and v.level == 1
    assert mp_evaluate(e, v.point) == v.value


def test_polynomial_hunt_evaluates_each_point_once():
    # the level-1 points are all zero and tried before the normal form; the
    # hunt goes on from level 2 and finds the same witness as a hunt from 1
    cfg = TestConfig()
    e = parse("X1_1 * X1_2 - X1_2 * X1_1", AB1)
    calls = []
    v = _zero_test(e, AB1, cfg, _counting_evaluate(calls))
    assert isinstance(v, NonzeroWitness) and v.level == 2
    assert calls == ([((1,), t) for t in range(cfg.trials_per_level)]
                     + [((2,), t) for t in range(v.trial + 1)])
    assert v == _hunt_polynomial_witness(e, AB1, cfg, 2, _counting_evaluate([]), first_level=1)


# -- an independent full-level scan as the oracle ---------------------------------


def _kids(e):
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, Inverse):
        return (e.arg,)
    return ()


def _naive_value(e, a):
    """naive_mp_eval(e, a), or (subexpr, path) of the first inverse that a
    left-to-right evaluation finds singular."""
    v = naive_mp_eval(e, a)
    if v is not None:
        return v

    def first_singular(node, path):
        for k, kid in enumerate(_kids(node)):
            hit = first_singular(kid, path + (k,))
            if hit:
                return hit
        if isinstance(node, Inverse) and naive_mp_eval(node, a) is None:
            return node, path
        return None

    return first_singular(e, ())


def _full_level_scan(value_at, alphabet, cfg):
    """Every trial of a level first, then the determinant self-check and the
    level's verdict.  value_at(a) is a _naive_value."""
    first_undef, decided = None, 0
    for level in range(1, cfg.max_level + 1):
        dims = (level,) * len(alphabet.slots())
        nonzero = []
        for trial in range(cfg.trials_per_level):
            a = sample_point(alphabet, dims, cfg, trial)
            v = value_at(a)
            if isinstance(v, tuple):
                first_undef = first_undef or v
                continue
            decided += 1
            if any(x != 0 for row in v for x in row):
                nonzero.append((trial, a, v))
        if nonzero:
            assert any(l_inv(v) is not None for _, _, v in nonzero)
            trial, a, v = nonzero[0]
            return "witness", a, v, level, trial
    if decided == 0:
        return ("nowhere", *first_undef)
    return "probably-zero", cfg.max_level, cfg.trials_per_level, decided


def _summary(verdict):
    if isinstance(verdict, NonzeroWitness):
        return ("witness", verdict.point, verdict.value.data, verdict.level,
                verdict.trial)
    if isinstance(verdict, NowhereDefined):
        return "nowhere", verdict.subexpr, verdict.path
    assert isinstance(verdict, ProbablyZeroUpTo)
    return "probably-zero", verdict.max_level, verdict.trials, verdict.decided


def _naive_difference(e1, e2):
    def value_at(a):
        v1 = _naive_value(e1, a)
        if isinstance(v1, tuple):
            return v1
        v2 = _naive_value(e2, a)
        if isinstance(v2, tuple):
            return v2
        return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(v1, v2)]
    return value_at


def test_scan_matches_full_level_oracle():
    rng = random.Random("full-level-oracle")
    rational = [e for e in corpus() if inversion_height(e)]
    while len(rational) < 28:
        e = gen_expr(rng, AB2, 3)
        if inversion_height(e):
            rational.append(e)
    rational.append(parse(NOWHERE, AB2))
    seen = set()
    for k, e in enumerate(rational):
        cfg = TestConfig(max_level=3, trials_per_level=3, seed=k % 3)
        got = _summary(is_zero(e, AB2, cfg))
        assert got == _full_level_scan(lambda a: _naive_value(e, a), AB2, cfg)
        seen.add(got[0])
        other = rational[(7 * k + 3) % len(rational)]
        pairs = [(e, other), (other, e)] + [(e, e)] * (k % 4 == 0)
        for lhs, rhs in pairs:
            got = _summary(equivalent(lhs, rhs, AB2, cfg))
            assert got == _full_level_scan(_naive_difference(lhs, rhs), AB2, cfg)
            seen.add(got[0])
    assert seen == {"witness", "nowhere", "probably-zero"}
