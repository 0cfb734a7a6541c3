"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

They are not part of the package's test suite and import gf2matroid from
this checkout's src/ the same way the benchmark does.
"""

import random

import pytest

import run
import tracing
import workloads
from tracing import Span, Summary, Tracer, layer_metrics, self_times

g = run.load_program()


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a
        Span("leaf", 2.0, 3.0, parent=1),
        Span("c", 8.0, 12.0, parent=0),  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_nested_same_name_time_counts_once_and_calls_each():
    spans = [
        Span("x", 0.0, 5.0),
        Span("x", 1.0, 2.0, parent=0),
        Span("y", 6.0, 7.0),
    ]
    t = Summary(spans)
    assert t.calls["x"] == 2
    assert t.busy["x"] == pytest.approx(5.0)
    assert t.self_s["x"] == pytest.approx(5.0)  # 4 outside the child, 1 inside it


def test_retries_and_useful_nodes_come_from_attempt_spans():
    spans = [
        Span("search.max_size", 0.0, 10.0, job="j"),
        Span("search.attempt", 0.0, 1.0, parent=0, nodes=10),
        Span("search.attempt", 1.0, 2.0, parent=0, nodes=20),
        Span("search.attempt", 2.0, 9.0, parent=0, nodes=70),
        Span("search.max_size", 10.0, 11.0, job="k"),
        Span("search.attempt", 10.0, 11.0, parent=4, nodes=100),
    ]
    m = layer_metrics(spans)
    assert m["search.max_size.retry_calls"][0] == 2
    assert m["search.max_size.useful_nodes_frac"][0] == pytest.approx(170 / 200)
    assert tracing.job_attempts(spans) == {"j": 2, "k": 0}


def _small_jobs():
    cs = g.ConstraintSet(min_odd_girth=5, forbid_affine=True)
    text = workloads.to_text(4, [1, 2, 4, 8, 15])
    return [
        workloads._max_size_job(g, "girth>=5 non-affine", 4, cs, 5),
        workloads._verify_job(
            g, "bose_burton", {"n": 2, "r": 4}, workloads.bose_burton_bound(2, 4)
        ),
        workloads.Job(
            "analyze circuit",
            lambda b: g.cli.analysis_dict(g.parse(text)),
            lambda out: None,
        ),
    ]


def test_traced_and_untraced_runs_give_the_same_answers_and_node_counts():
    jobs = _small_jobs()
    plain = run.run_batch(jobs, deadline=float("inf"))
    tracer = Tracer()
    originals = (g.max_size, g.search.kernels, g.cli.critical_number)
    with tracer.installed(g):
        traced = run.run_batch(jobs, deadline=float("inf"), tracer=tracer)
    assert (g.max_size, g.search.kernels, g.cli.critical_number) == originals
    assert [r.error for r in plain + traced] == [None] * 6
    answers = [workloads.answer(r.out) for r in plain + traced]
    assert answers[:3] == answers[3:]
    m = layer_metrics(tracer.spans)
    assert m["kernels.forward_search.nodes"][0] == traced[0].out.nodes
    assert m["kernels.complement_search.nodes"][0] == traced[1].out.nodes
    assert m["cli.analysis_dict.calls"][0] == 1
    assert m["files.parse.calls"][0] == 1
    assert {s.job for s in tracer.spans} == {j.name for j in jobs}


def test_generators_are_deterministic_for_a_seed():
    def inputs(seed):
        return workloads.analyze_inputs(random.Random(seed), [])

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    _, pairs = inputs(7)
    for name, ta, tb, isomorphic in pairs:
        a, b = g.parse(ta).point_list(), g.parse(tb).point_list()
        assert (workloads.line_count(a) == workloads.line_count(b)) or not isomorphic


def test_a_wrong_expected_value_is_reported_as_a_failure():
    cs = g.ConstraintSet(min_odd_girth=5, forbid_affine=True)
    right = workloads._max_size_job(g, "right", 4, cs, 5)
    wrong = workloads._max_size_job(g, "wrong", 4, cs, 6)
    results = run.run_batch([right, wrong], deadline=float("inf"))
    run.check(results)
    assert results[0].error is None
    assert results[1].error == "optimum 5, expected 6"


def test_import_times_reads_gf2matroid_top_level_and_the_pool_import():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       241 |       6556 |     concurrent.futures",
            "import time:       608 |      14875 |     concurrent.futures.process",
            "import time:      7070 |      28500 |   gf2matroid.search",
            "import time:       600 |      56219 | gf2matroid",
            "import time:      3615 |       8684 | gf2matroid.cli",
        ]
    )
    own, pool = run.import_times(stderr)
    assert own == pytest.approx((56219 + 8684) / 1e6)
    assert pool == pytest.approx(14875 / 1e6)


def test_backends_agree_in_lockstep():
    pairs = workloads.lockstep(g)
    if pairs is None:
        pytest.skip("compiled backend does not import")
    assert all(same for _, same in pairs), pairs
