"""Randomized zero- and equivalence-testing with level escalation.

One driver draws the sample points of every level×trial search: _points
yields square levels (n, …, n) for n = 1..L with trials 0..T−1 at each
level, for is_zero, equivalent, domain_scan, the polynomial witness hunt
and matrix_rational.matrix_invertible.  All sampling is a pure function of
(seed, dims, trial), so verdicts are reproducible.

Inverse-free expressions are decided exactly through the polynomial normal
form; when nonzero, a concrete witness point is still hunted down (it exists
at level ⌊d/2⌋+1 for maximal per-part degree d, since no product of fewer
than 2n alternating factors vanishes identically on n-by-n matrices, and the
parts separate into independent tensor slots).

Expressions containing inverses go through _scan, shared by is_zero and
equivalent.  A nonzero value at a defined point is a proof of nonzeroness;
exhausting the budget only ever yields "probably zero up to this level",
never a zero claim.  Undefined trials are skipped; when no trial is defined
the first Undefined met is reported.

Determinant self-check: by the determinant criterion, a level at which the
value is singular at every defined trial must have every value zero.  _scan
checks this at the end of each level that has a nonzero value, testing the
determinants of its nonzero values only until the first nonzero one, and
raises RuntimeError when all of them vanish.  Each test is
``_det_nonzero``: a determinant nonzero mod 2^61 - 1 is a proof, and only
one that is 0 mod p is computed exactly.  A level with only zero values
tests no determinant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .evaluation import MpPoint, Undefined, mp_evaluate
from .expression import (
    Alphabet,
    Expr,
    expr_neg,
    expr_sum,
    inversion_height,
    poly_normal_form,
)
# det stays bound here for perfbench/tracing.py, which wraps it by name
from .matrix_kernel import QQ, Matrix, _det_nonzero, det  # noqa: F401


@dataclass(frozen=True)
class TestConfig:
    __test__ = False  # keep pytest from collecting this as a test class

    max_level: int = 4
    trials_per_level: int = 8
    entry_bound: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_level < 1 or self.trials_per_level < 1 or self.entry_bound < 1:
            raise ValueError("max_level, trials_per_level, entry_bound must be ≥ 1")


@dataclass(frozen=True)
class ExactZero:
    """The expression is the zero polynomial (inverse-free case only)."""


@dataclass(frozen=True)
class NonzeroWitness:
    point: MpPoint
    value: Matrix
    level: int
    trial: int


@dataclass(frozen=True)
class ProbablyZeroUpTo:
    max_level: int
    trials: int
    decided: int


@dataclass(frozen=True)
class NowhereDefined:
    subexpr: Expr
    path: tuple[int, ...]


ZeroVerdict = ExactZero | NonzeroWitness | ProbablyZeroUpTo | NowhereDefined


def _sample(alphabet: Alphabet, dims, seed: int, trial: int, bound: int) -> MpPoint:
    rng = random.Random(f"{seed}|{','.join(map(str, dims))}|{trial}")
    parts = []
    for s, (part, _) in enumerate(alphabet.slots()):
        n = dims[s]
        parts.append(tuple(
            Matrix.from_flat(QQ, n, n, [rng.randint(-bound, bound) for _ in range(n * n)])
            for _ in range(alphabet.size_of(part))))
    return MpPoint(alphabet, tuple(parts))


def sample_point(alphabet: Alphabet, dims, cfg: TestConfig, trial: int) -> MpPoint:
    """Deterministic in (cfg.seed, dims, trial); entries uniform in [−B, B]."""
    if len(dims) != len(alphabet.slots()):
        raise ValueError(f"expected {len(alphabet.slots())} dims, got {len(dims)}")
    return _sample(alphabet, dims, cfg.seed, trial, cfg.entry_bound)


def _points(alphabet: Alphabet, cfg: TestConfig, top: int):
    """Yield (level, trial, point) over square levels 1..top, trials in order."""
    for level in range(1, top + 1):
        dims = (level,) * len(alphabet.slots())
        for trial in range(cfg.trials_per_level):
            yield level, trial, sample_point(alphabet, dims, cfg, trial)


def _scan(value_at, alphabet: Alphabet, cfg: TestConfig) -> ZeroVerdict:
    # value_at(trial, a) is the Matrix or Undefined at the trial-th point a
    # of its level.  Every trial of a level is evaluated before the level's
    # verdict, so the determinant self-check (see the module docstring) sees
    # all of its defined values.
    first_undef: Undefined | None = None
    decided = 0
    nonzero = []
    for level, trial, a in _points(alphabet, cfg, cfg.max_level):
        v = value_at(trial, a)
        if isinstance(v, Undefined):
            if first_undef is None:
                first_undef = v
        else:
            decided += 1
            if not v.is_zero():
                nonzero.append((trial, a, v))
        if nonzero and trial == cfg.trials_per_level - 1:
            # A zero value has det 0, so only the nonzero ones need a det.
            # A failure means a kernel bug or an astronomically unlucky
            # sample of a nonvanishing det.
            if not any(_det_nonzero(v) for _, _, v in nonzero):
                raise RuntimeError("determinant criterion violated: singular "
                                   "values at a level where no determinant "
                                   "was nonzero")
            trial, a, v = nonzero[0]
            return NonzeroWitness(a, v, level, trial)
    if decided == 0:
        return NowhereDefined(first_undef.subexpr, first_undef.path)
    return ProbablyZeroUpTo(cfg.max_level, cfg.trials_per_level, decided)


def _hunt_polynomial_witness(e: Expr, alphabet: Alphabet, cfg: TestConfig,
                             guarantee_level: int, evaluate) -> NonzeroWitness:
    top = max(cfg.max_level, guarantee_level)
    for level, trial, a in _points(alphabet, cfg, top):
        v = evaluate(e, trial, a)
        if not v.is_zero():
            return NonzeroWitness(a, v, level, trial)
    # the nonzero locus at the guarantee level is dense; widen the entry
    # range until a sample lands in it; these points are not sample_point's,
    # so they are not evaluate's either
    bound = cfg.entry_bound
    trial = cfg.trials_per_level
    dims = (top,) * len(alphabet.slots())
    while True:
        bound *= 2
        for _ in range(cfg.trials_per_level):
            a = _sample(alphabet, dims, cfg.seed, trial, bound)
            v = mp_evaluate(e, a)
            if not v.is_zero():
                return NonzeroWitness(a, v, top, trial)
            trial += 1


def is_zero(e: Expr, alphabet: Alphabet, cfg: TestConfig | None = None) -> ZeroVerdict:
    """Zero-test: exact for inverse-free input, level-scanned otherwise."""
    # mp_evaluate is looked up per call, so a wrapper bound in its place is used
    return _zero_test(e, alphabet, cfg or TestConfig(),
                      lambda x, trial, a: mp_evaluate(x, a))


def _zero_test(e: Expr, alphabet: Alphabet, cfg: TestConfig, evaluate) -> ZeroVerdict:
    """is_zero, with evaluate(e, trial, a) giving the value of e at the point
    a = sample_point(alphabet, a.dims, cfg, trial).  A caller may thus keep
    one evaluator per (dims, trial) across many zero tests with one
    alphabet and one cfg."""
    if inversion_height(e) == 0:
        nf = poly_normal_form(e, alphabet)
        if not nf:
            return ExactZero()
        degree = max(len(word) for mono in nf for word in mono)
        return _hunt_polynomial_witness(e, alphabet, cfg, degree // 2 + 1, evaluate)
    return _scan(lambda trial, a: evaluate(e, trial, a), alphabet, cfg)


def equivalent(e1: Expr, e2: Expr, alphabet: Alphabet,
               cfg: TestConfig | None = None) -> ZeroVerdict:
    """Zero-test of e1 − e2 on the intersection of the two mp-domains.

    Trials where either side is undefined are skipped, not counted; when
    both sides are, e1's Undefined is the one reported.  With two
    inverse-free inputs the decision is exact via normal forms.
    """
    cfg = cfg or TestConfig()
    if inversion_height(e1) == 0 and inversion_height(e2) == 0:
        return is_zero(expr_sum([e1, expr_neg(e2)]), alphabet, cfg)

    def difference(trial: int, a: MpPoint) -> Matrix | Undefined:
        v1 = mp_evaluate(e1, a)
        if isinstance(v1, Undefined):
            return v1
        v2 = mp_evaluate(e2, a)
        return v2 if isinstance(v2, Undefined) else v1 - v2

    return _scan(difference, alphabet, cfg)


def domain_scan(e: Expr, alphabet: Alphabet, cfg: TestConfig | None = None):
    """Smallest square level with a sampled point in the mp-domain.

    Returns (level, witness point) or (None, None).  Once an expression is
    defined at level n it is defined at every multiple of n (pad the point
    with direct-sum copies of itself), so a hit certifies all multiples.
    """
    cfg = cfg or TestConfig()
    for level, _, a in _points(alphabet, cfg, cfg.max_level):
        if not isinstance(mp_evaluate(e, a), Undefined):
            return level, a
    return None, None
