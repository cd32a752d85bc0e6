"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

import json
from types import SimpleNamespace

import pytest

import tracing
import worker


def test_self_time_subtracts_only_direct_children():
    spans = [
        ["op.a", -1, 0, 100],
        ["evaluation.run@Evaluator", 0, 10, 60],
        ["matrix_kernel.matmul@Matrix", 1, 20, 30],
        ["matrix_kernel.matmul@Matrix", 1, 35, 50],
        ["matrix_kernel.inv_det@evaluation", 0, 70, 90],
    ]
    assert tracing.self_times(spans) == [100 - 50 - 20, 50 - 10 - 15, 10, 15, 20]


def test_outermost_ignores_nesting_within_one_layer():
    spans = [
        ["cli.main@cli", -1, 0, 100],
        ["matrix_rational.partial_evaluate@cli", 0, 1, 90],
        ["matrix_rational.matrix_inverse_expr@matrix_rational", 1, 2, 80],
        ["identity.is_zero@matrix_rational", 2, 3, 70],
    ]
    assert tracing._outermost(spans) == [True, True, False, True]


def test_layer_metrics_are_per_batch():
    tr = tracing.Tracer()
    tr.spans = [
        ["evaluation.mp_evaluate@mprat", -1, 0, 4_000_000_000],
        ["evaluation.run@Evaluator", 0, 0, 3_000_000_000],
        ["matrix_kernel.matmul@Matrix", 1, 0, 2_000_000_000],
    ]
    m = tracing.layer_metrics(tr, batches=2, extra_counts={})
    assert m["evaluation.calls"] == 0.5
    assert m["evaluation.s"] == 2.0
    assert m["evaluation.self_s"] == 1.0
    assert m["matrix_kernel.matmul_s"] == 1.0


def test_tail_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 101))
    assert worker.tail_percentile(xs, 90) == 90
    assert worker.tail_percentile(xs[:99], 90) is None
    assert worker.tail_percentile(xs[:20], 50) == 10
    assert worker.tail_percentile(xs[:19], 50) is None
    assert worker.tail_percentile([], 50) is None


def test_batch_seconds_sums_each_operations_median():
    rows = [[1, 5, 9], [2, 1, 9], [30, 2, 9]]
    assert worker.batch_seconds(rows) == 2 + 2 + 9
    assert worker.batch_seconds(rows, lambda i: i != 2) == 4


def test_digest_status():
    recorded = {"w": {"3": "abc"}}
    assert worker.digest_status(recorded, "w", 3, "abc") == "match"
    assert worker.digest_status(recorded, "w", 3, "abd") == "mismatch"
    assert worker.digest_status(recorded, "w", 4, "abc") == "unrecorded"
    assert worker.digest_status(recorded, "other", 3, "abc") == "unrecorded"


def _ops(outputs):
    return [SimpleNamespace(kind="k", call=lambda o=o: o, check=lambda o: None,
                            text=str, verdict=lambda o: None) for o in outputs]


@pytest.fixture
def digests(tmp_path, monkeypatch):
    path = tmp_path / "digests.json"
    monkeypatch.setattr(worker, "DIGESTS", path)
    monkeypatch.setattr(worker, "OUT", tmp_path)
    return path


def test_recorded_digest_mismatch_fails_every_operation(digests):
    ops = _ops([1, 2, 3])
    digests.write_text(json.dumps({"w": {"0": worker.run_batch(ops, keep=False).transcript}}))
    ok = worker.measure(ops, "w", 0, seconds=0, trace=False)
    assert ok["correct"] and ok["failed"] == 0 and ok["info"]["digest_status"] == "match"

    digests.write_text(json.dumps({"w": {"0": "0" * 64}}))
    bad = worker.measure(ops, "w", 0, seconds=0, trace=False)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] == 3
    assert bad["info"]["digest_status"] == "mismatch"


def test_later_batches_flag_calls_whose_output_changed():
    outputs = iter([1, 2, 3, 1, 5, 3])
    ops = _ops([0, 0, 0])
    for op in ops:
        op.call = lambda: next(outputs)
    first = worker.run_batch(ops, keep=True)
    assert worker.run_batch(ops, keep=False, expect=first.op_digests).differs == [1]


def test_call_times_are_rescaled_by_the_reference_timings_around_them(monkeypatch):
    factors = iter([1, 2, 3, 6, 8])
    monkeypatch.setattr(worker, "reference_time", lambda: next(factors) * worker.REFERENCE_S)
    monkeypatch.setattr(worker, "REFERENCE_EVERY_S", 0)
    batch = worker.run_batch(_ops([1, 2, 3, 4]), keep=False)
    # timings 1, 2, 3, 6 precede the four calls and 8 follows the last; each
    # call is scaled by the mean of up to two timings on either side
    expected = [(1 + 2 + 3) / 3, (1 + 2 + 3 + 6) / 4, (2 + 3 + 6 + 8) / 4, (3 + 6 + 8) / 3]
    for scaled, measured, f in zip(batch.times, batch.measured, expected):
        assert scaled == pytest.approx(measured / f)


def test_failed_check_and_raising_operation_count(digests):
    def boom():
        raise RuntimeError("no")
    ops = _ops([1, 2])
    ops[0].check = lambda o: "wrong"
    ops[1].call = boom
    res = worker.measure(ops, "w", 0, seconds=0, trace=False)
    assert res["failed"] == 2 and not res["correct"]
    assert res["info"]["fail_ratio"] == 1.0
