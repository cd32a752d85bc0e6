"""The benchmark's tracer against the library names it wraps.

``perfbench/tracing.py`` wraps ``Evaluator.run``, reads ``Evaluator.n``
and wraps ``inv_det`` where ``mprat.evaluation`` binds it, and ``kron``,
``inv_det``, ``det`` and ``solve`` where ``mprat.realization`` binds them.
A change to those names shows only in a traced benchmark run, so these
tests install the tracer around one evaluation and one realization.
"""

import importlib.util
import random
from pathlib import Path

import mprat
import mprat.realization
from helpers import rand_invertible, rand_mp_point
from mprat.expression import Alphabet, parse

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_evaluator_and_its_inversions():
    tracing = load_tracing()
    ab = Alphabet((1, 1))
    e = parse("inv(X1_1 * X2_1 + 2) * X1_1", ab)
    point = rand_mp_point(random.Random("tracer"), ab, (2, 3), bound=5)
    evaluate = mprat.mp_evaluate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        value = mprat.mp_evaluate(e, point)
    finally:
        tracer.uninstall()
    assert mprat.mp_evaluate is evaluate
    assert value == evaluate(e, point)
    names = [name for name, _, _, _ in tracer.spans]
    assert "evaluation.run@Evaluator" in names
    assert "matrix_kernel.inv_det@evaluation" in names
    assert tracer.max_n == 6
    metrics = tracing.layer_metrics(tracer, 1, {})
    assert metrics["evaluation.calls"] == 1
    assert metrics["evaluation.max_n"] == 6


def test_tracer_sees_realize_invert_without_an_evaluator():
    # realize takes the value at the base point from its own fold: its
    # inversions are its own inv_det calls, and no Evaluator runs inside it
    tracing = load_tracing()
    for name in tracing.SITES["mprat.realization"]:
        assert hasattr(mprat.realization, name), name
    ab = Alphabet((1, 1))
    e = parse("inv(X1_1 * X2_1 + 2) * inv(X1_1)", ab)
    rng = random.Random("tracer-realize")
    base = (rand_invertible(rng, 2, bound=5), rand_invertible(rng, 2, bound=5))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        r = mprat.realize(e, ab, base)
    finally:
        tracer.uninstall()
    assert r == mprat.realize(e, ab, base)
    names = [name for name, _, _, _ in tracer.spans]
    root = names.index("realization.realize@mprat")
    inside = set()
    for i, (_, parent, _, _) in enumerate(tracer.spans):
        if parent == root or parent in inside:
            inside.add(i)
    inside_names = [names[i] for i in sorted(inside)]
    assert inside_names.count("matrix_kernel.inv_det@realization") == 2
    assert "evaluation.run@Evaluator" not in inside_names
