"""Tests of the benchmark's own arithmetic, tracer and metric tables.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import sys
import time
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from scoring import panel_stats, rank_auc, rejections
from spans import Span, Tracer, aggregate, self_time, union_length

ROOT = Path(__file__).resolve().parent.parent


def pairwise_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


@pytest.mark.parametrize(
    "scores, labels, expected",
    [
        ([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0], 0.75),  # 3 of 4 pairs ordered
        ([1.0, 1.0, 1.0, 1.0], [1, 0, 1, 0], 0.5),  # all tied
        ([2.0, 1.0, 1.0, 0.0], [1, 1, 0, 0], 0.875),  # one tied pair: 3.5 / 4
        ([3.0, 2.0, 1.0], [1, 1, 0], 1.0),
        ([1.0, 2.0, 3.0], [1, 1, 0], 0.0),
        ([-1.0, -1.0, -0.01, -1.0], [1, 0, 1, 0], 0.75),  # -p: two p = 1 ties
    ],
)
def test_rank_auc_hand_worked(scores, labels, expected):
    assert rank_auc(scores, labels) == expected
    assert pairwise_auc(scores, labels) == expected


def test_rank_auc_needs_both_classes():
    with pytest.raises(ValueError):
        rank_auc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        rank_auc([0.1, 0.2], [1, 2])


def test_rejections_and_panel_stats():
    assert rejections([0.01, 0.05, 0.06, 1.0], 0.05) == 2
    stats = panel_stats([1.0, 0.01, 1.0, 1.0], [0.0, 0.2, 0.01, 0.0], [0, 1, 0, 1], 0.05)
    assert stats["pvalue_auc"] == 0.75  # (1 + 1 + 0.5 + 0.5) / 4
    assert stats["gap_auc"] == 0.625  # (1 + 1 + 0.5 + 0) / 4
    assert (stats["h0_rejections"], stats["h1_rejections"]) == (0, 1)
    assert (stats["h0_reject_rate"], stats["h1_reject_rate"]) == (0.0, 0.5)


def test_union_length():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 15)]) == 15  # overlapping
    assert union_length([(0, 5), (5, 10)]) == 10  # adjacent
    assert union_length([(0, 10), (2, 3)]) == 10  # nested
    assert union_length([(20, 30), (0, 5)]) == 15  # disjoint, unsorted
    assert union_length([(4, 4), (7, 3)]) == 0  # empty intervals


def _span(sid, start, end, parent=-1, name="f"):
    return Span(sid, name, start, end, parent, 0, False)


def test_self_time_subtracts_union_of_children():
    parent = _span(0, 0, 100)
    assert self_time(parent, []) == 100
    assert self_time(parent, [_span(1, 10, 20, 0), _span(2, 20, 30, 0)]) == 80  # adjacent
    assert self_time(parent, [_span(1, 10, 50, 0), _span(2, 20, 30, 0)]) == 60  # nested
    assert self_time(parent, [_span(1, 10, 40, 0), _span(2, 30, 60, 0)]) == 50  # overlapping
    assert self_time(parent, [_span(1, 90, 120, 0)]) == 90  # clipped to the parent


def test_aggregate_busy_self_and_calls():
    spans = [
        _span(0, 0, 100, name="a"),
        _span(1, 10, 30, 0, name="b"),
        _span(2, 30, 60, 0, name="b"),
        _span(3, 40, 50, 2, name="c"),
        _span(4, 200, 210, name="a"),
    ]
    stats = aggregate(spans)
    assert (stats["a"].calls, stats["a"].busy_ns, stats["a"].self_ns) == (2, 110, 60)
    assert (stats["b"].calls, stats["b"].busy_ns, stats["b"].self_ns) == (2, 50, 40)
    assert (stats["c"].calls, stats["c"].busy_ns, stats["c"].self_ns) == (1, 10, 10)
    # A name that re-enters itself counts its busy time once.
    nested = aggregate([_span(0, 0, 10, name="r"), _span(1, 2, 5, 0, name="r")])
    assert (nested["r"].busy_ns, nested["r"].self_ns) == (10, 10)


def test_tracer_records_parents_ops_and_restores():
    mod = types.ModuleType("fake")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer, mod.broken = inner, outer, lambda: 1
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    seen = []
    tracer.wrap(mod, "outer", "m.outer")
    tracer.wrap(mod, "inner", lambda args: f"m.inner.{args[0]}", lambda t, a, r: seen.append(r))
    tracer.wrap(mod, "absent", "m.absent")
    tracer.wrap(mod, "broken", "m.broken", lambda t, a, r: r.no_such_field)
    assert tracer.missing == {"fake.absent"}
    with tracer:
        tracer.op = 7
        assert mod.outer(1) == 4
        with pytest.raises(ValueError):
            mod.inner(-1)
        assert mod.broken() == 1
    assert tracer.counters["probe_errors"] == 1
    assert mod.outer is outer and mod.inner is inner
    assert seen == [2]
    inner_span, outer_span, failed, _ = tracer.spans
    assert (outer_span.name, outer_span.parent, outer_span.op, outer_span.raised) == ("m.outer", -1, 7, False)
    assert (inner_span.name, inner_span.parent) == ("m.inner.1", outer_span.sid)
    assert outer_span.start_ns < inner_span.start_ns < inner_span.end_ns < outer_span.end_ns
    assert (failed.name, failed.parent, failed.raised) == ("m.inner.-1", -1, True)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_host_sampler_samples_and_restores():
    assert run.calibration_kernel() == run.calibration_kernel()  # fixed work
    before = signal.getsignal(signal.SIGALRM)
    sampler = run.HostSampler(0.02)
    with sampler:
        t = time.perf_counter()
        while time.perf_counter() - t < 0.3:
            sum(range(1000))
    assert len(sampler.samples) >= 3
    assert sampler.spent_s == pytest.approx(sum(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_timed_op_leaves_out_paused_time():
    paused = {"s": 0.0}

    def op(cf, item):
        time.sleep(0.05)
        paused["s"] += 0.04  # as if a sampler took 0.04 s of the call
        return "report"

    wl = run.Workload("fake", 1, None, op, lambda report: [], str)
    result, dt, problems = run.timed_op(None, wl, run.Item(0, None), lambda: paused["s"])
    assert (result, problems) == ("report", [])
    assert 0.005 <= dt < 0.04


def test_check_ci_test_recomputes_decision_and_pvalue():
    good = SimpleNamespace(decision="H1", gap=0.1, tau=0.0859, n_s=500, p_value=0.1641699972477976)  # 2 e^-2.5
    assert run.check_ci_test(good) == []
    assert len(run.check_ci_test(SimpleNamespace(**{**vars(good), "decision": "H0"}))) == 1
    assert len(run.check_ci_test(SimpleNamespace(**{**vars(good), "p_value": 0.1641699972477977}))) == 1
    floored = SimpleNamespace(decision="H1", gap=1.0, tau=0.03, n_s=5000, p_value=sys.float_info.min)
    assert run.check_ci_test(floored) == []


def test_check_verify_needs_every_gating_check():
    ok = {"all_pass": True, "checks": {"a": {"pass": True, "gating": True}, "b": {"pass": False, "gating": False}}}
    assert run.check_verify(ok) == []
    bad = {"all_pass": True, "checks": {"a": {"pass": False, "gating": True}}}
    assert run.check_verify(bad) == ["gating check a failed"]


@pytest.fixture(scope="module")
def cf():
    sys.path.insert(0, str(ROOT / "src"))
    import ciforge

    return ciforge


def test_fingerprint_sees_data_and_schema(cf):
    ds = cf.gen_postnonlinear(cf.PostNonlinearConfig(d_z=2, n=50, ci=True, seed=3))
    base = run.fingerprint([run.Item(1, 0, ds)])
    data = ds.data.copy()
    data[0, 0] += 1e-9
    changed = cf.Dataset(ds.x_cols, ds.y_cols, ds.z_cols, data)
    renamed = cf.Dataset(ds.x_cols, (cf.Column("y_other"),), ds.z_cols, ds.data)
    assert run.fingerprint([run.Item(1, 0, changed)]) != base
    assert run.fingerprint([run.Item(1, 0, renamed)]) != base
    assert run.fingerprint([run.Item(1, 1, ds)]) != base
    assert run.fingerprint([run.Item(1, 0, ds)]) == base


SMALL_VERIFY = dict(seed=1, n_gap_joints=5, n_ci=5, n_dep=5, n_pairs=20, n_sparse=3, n_lp=3)


def test_traced_reports_are_byte_identical(cf):
    ds = cf.gen_postnonlinear(cf.PostNonlinearConfig(d_z=2, n=240, ci=False, seed=5))
    config = cf.TestConfig(gbt=cf.GbtConfig(rounds=10), mimic_config=cf.MimicConfig(tree_rounds=10))
    plain = cf.testkit.ci_test(ds, config).to_json()
    plain_verify = run.verify_bytes(cf.oracle.run_verify(**SMALL_VERIFY))
    tracer = Tracer()
    run.install_probes(tracer, cf)
    with tracer:
        traced = cf.testkit.ci_test(ds, config).to_json()
        traced_verify = run.verify_bytes(cf.oracle.run_verify(**SMALL_VERIFY))
    assert traced == plain
    assert traced_verify == plain_verify
    assert tracer.missing == set()
    values = run.layer_values(tracer)
    assert values["classify.gbt_train.f1.calls"] == values["classify.gbt_train.f2.calls"] == 1
    assert values["classify.fit_boosted_trees.calls"] == 2
    assert values["classify.rounds_boosted"] == 20
    assert values["classify.trees_built"] == 20 + 10  # two classifiers plus one regressor
    assert values["oracle.max_coupling_mass_lp.calls"] == 3
    assert values["testkit.ci_test.self_s"] <= values["testkit.ci_test.s"]
