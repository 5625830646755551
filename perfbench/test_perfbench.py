"""Tests of the benchmark itself.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import sys

import pytest

import run
import spans
import workloads as w

sys.path.insert(0, str(run.SRC))

from chorcheck import generate_lts, parse_choreography, parse_collaboration  # noqa: E402
from chorcheck.cli import main  # noqa: E402


def sizes(lts):
    return lts.n_states, len(lts.transitions)


def test_families_have_the_stated_sizes():
    assert sizes(generate_lts(parse_choreography(w.fanin_choreography(3)))) == (12, 16)
    assert sizes(generate_lts(parse_collaboration(w.fanin_collaboration(3)))) == (360, 1104)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_expected_answers_match_the_program(workload):
    calls = run.calls_for(workload)
    assert len(calls) == (19 if workload == "corpus" else 1)
    for call in calls:
        _, problem = run.run_call(main, call)
        assert problem == "", f"{call.name}: {problem}"


def test_wrong_expected_answer_counts_as_failed():
    right = w.corpus_calls()[0]
    wrong = dataclasses.replace(right, name="wrong", code=0, stdout="tbc true\nbbc true\n")
    plain, _, _, failures, _ = run.closed_loop([right, wrong], seed=1, seconds=0.2)
    failed_names = {call.name for call, _ in failures}
    assert failed_names == {"wrong"}
    assert len(failures) == len(plain) > 0  # one per pass
    assert all("exit code 4, expected 0" in problem for _, problem in failures)


def traced_call(workload):
    tracer = spans.Tracer()
    (call,) = run.calls_for(workload)
    tracer.install()
    try:
        _, problem = run.run_call(main, call, tracer)
    finally:
        tracer.uninstall()
    assert problem == ""
    return tracer


def test_trace_attributes_fanin_to_saturation():
    tracer = traced_call("fanin")
    assert max(tracer.self_s, key=tracer.self_s.get) == "conformance.saturate"
    assert tracer.counts["conformance.saturate_calls"] == 4
    assert tracer.absent == []


def test_trace_attributes_lts_to_exploration_without_checks():
    tracer = traced_call("lts")
    assert max(tracer.self_s, key=tracer.self_s.get) == "semantics.generate_lts"
    assert not any(layer.startswith("conformance.check_") for layer in tracer.self_s)
    assert tracer.counts["semantics.states"] == 360


def test_missing_site_is_absent_and_wrappers_come_off(monkeypatch):
    import chorcheck.cli
    import chorcheck.conformance

    originals = (chorcheck.cli.generate_lts, chorcheck.conformance.WeakLts.__init__)
    sites = dict(spans.SITES)
    sites["conformance.saturate"] = sites["conformance.saturate"] + [
        "chorcheck.conformance:no_such_function",
        "chorcheck.no_such_module:saturate",
    ]
    monkeypatch.setattr(spans, "SITES", sites)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert chorcheck.cli.generate_lts is not originals[0]
    finally:
        tracer.uninstall()
    assert tracer.absent == [
        "chorcheck.conformance:no_such_function",
        "chorcheck.no_such_module:saturate",
    ]
    assert (chorcheck.cli.generate_lts, chorcheck.conformance.WeakLts.__init__) == originals
