"""τ-confluence reduction against full exploration.

`generate_lts(..., reduce=True)` must return a sub-LTS of the full system
(matched by marking) that is weakly bisimilar to it, and every verdict line
`check` prints, counterexamples included, must be the one full exploration
gives.  Under tight bounds the reduced exploration may only fail where the
full one fails the same way; where only the full one fails, looser bounds
must give the full exploration the reduced verdicts.
"""

import contextlib
import io
import random

import pytest

import chorcheck.cli
from chorcheck import (
    BoundExceeded,
    Choreography,
    check_bbc,
    check_tbc,
    compose,
    generate_lts,
    labels_choreo,
    labels_collab,
    parse_choreography,
    parse_collaboration,
)
from chorcheck.cli import _print_verdict, main
from chorcheck.conformance import saturate_pair
from chorcheck.model import TAU
from chorcheck.semantics import DEFAULT_BOUNDS, compile_net, confluent_rules
from conftest import fixture_path
from generators import fanin, matched_tuple_pair
from test_net_semantics import FIXTURE_MODELS, FLOODING, TIGHT_BOUNDS, random_collaborations
from test_weak_layer import ROLE_ASSIGNMENTS, STUDY_PAIRS

# Pool A loops silently for ever, through confluent rules only, while pool B
# can still receive.  Prioritising the loop without the proviso that a
# prioritised step must discover a new state would lose B's receive.
IGNORING_COLLABORATION = """
pool A { start(a1) | taskSnd(a1, a2, A->B:m) | xorJoin({a2, a4}, a3) | task(a3, a4) }
pool B { start(b1) | taskRcv(b1, b2, A->B:m) | end(b2, b3) }
"""
IGNORING_CHOREOGRAPHY = "start(c1) | task(c1, c2, A->B:m) | end(c2, c3)"


def outcome(model, bounds, reduce):
    try:
        return generate_lts(model, bounds, reduce=reduce)
    except BoundExceeded as err:
        return err.kind


def assert_sub_lts(model):
    """The reduced LTS is part of the full one and weakly bisimilar to it.

    Each reduced state either keeps all of its full transitions or takes a
    single silent step.
    """
    full = generate_lts(model)
    reduced = generate_lts(model, reduce=True)
    where = {marking: s for s, marking in enumerate(full.states)}
    assert where[reduced.states[reduced.initial]] == full.initial
    out = {s: set() for s in range(full.n_states)}
    for src, label, tgt in full.transitions:
        out[src].add((label, tgt))
    mine = {s: set() for s in range(reduced.n_states)}
    for src, label, tgt in reduced.transitions:
        mine[src].add((label, where[reduced.states[tgt]]))
    for s, steps in mine.items():
        expected = out[where[reduced.states[s]]]
        assert steps <= expected
        assert steps == expected or (len(steps) == 1 and next(iter(steps))[0] == TAU)
    return full, reduced


@pytest.mark.parametrize("name,model", FIXTURE_MODELS, ids=[n for n, _ in FIXTURE_MODELS])
def test_reduced_fixture_lts_is_a_bisimilar_sub_lts(name, model):
    full = outcome(model, DEFAULT_BOUNDS, False)
    if isinstance(full, str):  # the unbounded fixture
        assert outcome(model, DEFAULT_BOUNDS, True) == full
        return
    full, reduced = assert_sub_lts(model)
    assert check_bbc(full, reduced).verdict


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_reduced_fanin_is_a_sub_lts(k):
    choreography, collaboration = fanin(k)
    assert_sub_lts(choreography)
    full, reduced = assert_sub_lts(collaboration)
    if k <= 4:
        assert check_bbc(full, reduced).verdict


def test_fanin_reduction_sizes():
    sizes = [generate_lts(fanin(k)[1], reduce=True).n_states for k in (3, 4, 5)]
    assert sizes == [21, 32, 51]
    assert [generate_lts(fanin(k)[1]).n_states for k in (3, 4)] == [360, 1840]


def test_confluent_rules():
    collab = parse_collaboration("""
    pool A { start(a1) | xorSplit(a1, {a2, a3}) | taskSnd(a2, a4, A->B:m) |
             taskSnd(a3, a5, A->B:n) | xorJoin({a4, a5}, a6) | end(a6, a7) }
    pool B { start(b1) | eventBased(b1, {(A->B:m) b2, (A->B:n) b3}) |
             xorJoin({b2, b3}, b4) | end(b4, b5) }
    """)
    net = compile_net(collab)
    kinds = [type(collab.nodes[net.rules[i].node]).__name__ for i in confluent_rules(net)]
    # Neither the XOR split's two rules nor the event-based branches.
    assert kinds == [
        "StartEvent", "TaskSnd", "TaskSnd", "XorJoin", "XorJoin", "EndEvent",
        "StartEvent", "XorJoin", "XorJoin", "EndEvent",
    ]


# ---------------------------------------------------------------------------
# Verdict lines


def _labels(model):
    return labels_choreo(model) if isinstance(model, Choreography) else labels_collab(model)


def verdict_lines(a, b, reduce, hidden=frozenset(), bounds=DEFAULT_BOUNDS, explored=None):
    """`check --report lines` output for two models, or the bound's kind.

    `explored` caches each model's LTS across calls.
    """
    explored = {} if explored is None else explored
    try:
        for model in (a, b):
            if (model, reduce) not in explored:
                explored[model, reduce] = generate_lts(model, bounds, reduce=reduce)
    except BoundExceeded as err:
        return err.kind
    la, lb = explored[a, reduce], explored[b, reduce]
    weak = saturate_pair(la, lb, (_labels(b) - _labels(a)) | hidden)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_verdict(check_tbc(*weak), "lines")
        _print_verdict(check_bbc(*weak), "lines")
    return out.getvalue()


def random_check_cases(seed, count):
    """Pairs of compositions over the same messages, in both orders, and once
    more with a shared label hidden."""
    rng = random.Random(seed)
    for _ in range(count):
        first, second, names = matched_tuple_pair(rng)
        a, b = compose(first, names), compose(second, names)
        yield a, b, frozenset()
        yield b, a, frozenset()
        shared = sorted(labels_collab(a) & labels_collab(b), key=str)
        if shared:
            yield a, b, frozenset([rng.choice(shared)])


@pytest.mark.parametrize("seed", [31, 32])
def test_random_verdict_lines_equal_full_exploration(seed):
    verdicts = []
    explored = {}
    for a, b, hidden in random_check_cases(seed, 300):
        expected = verdict_lines(a, b, False, hidden, explored=explored)
        assert verdict_lines(a, b, True, hidden, explored=explored) == expected
        verdicts.append("false" in expected)
    assert len(verdicts) > 800
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_ignoring_loop_keeps_the_other_pools_moves():
    choreography = parse_choreography(IGNORING_CHOREOGRAPHY)
    collaboration = parse_collaboration(IGNORING_COLLABORATION)
    expected = verdict_lines(choreography, collaboration, False)
    assert expected == "tbc true\nbbc true\n"
    assert verdict_lines(choreography, collaboration, True) == expected
    assert_sub_lts(collaboration)


def _full_exploration(model, bounds=DEFAULT_BOUNDS, *, reduce=False):
    """`generate_lts` that ignores `reduce`: the oracle for `check`."""
    return generate_lts(model, bounds)


def check_outputs(argv, capsys, monkeypatch):
    """(exit code, stdout, stderr) of `argv`, reduced and then full."""
    outputs = []
    for explore in (generate_lts, _full_exploration):
        monkeypatch.setattr(chorcheck.cli, "generate_lts", explore)
        code = main(argv)
        outputs.append((code, *capsys.readouterr()))
    return outputs


@pytest.mark.parametrize("report", ["lines", "human"])
def test_check_reports_equal_full_exploration_on_fixtures(report, capsys, monkeypatch):
    calls = [[str(fixture_path(ch)), str(fixture_path(col))] for ch, col in STUDY_PAIRS]
    calls += [
        [str(fixture_path("booking_choreography.txt")),
         "--processes", ",".join(str(fixture_path(n)) for n in names),
         "--names", "bk,c,bs"]
        for names in ROLE_ASSIGNMENTS
    ]
    calls.append([str(fixture_path("booking_choreography.bpmn")),
                  str(fixture_path("booking_collaboration.bpmn"))])
    codes = set()
    for argv in calls:
        reduced, full = check_outputs(["check", *argv, "--report", report], capsys, monkeypatch)
        assert reduced == full
        codes.add(reduced[0])
    assert codes == {0, 4}


# ---------------------------------------------------------------------------
# Bounds


def test_reduced_bound_failures_are_full_failures():
    models = [model for _, model in FIXTURE_MODELS]
    models += list(random_collaborations(13, 60))
    models += [fanin(3)[1], parse_collaboration(FLOODING)]
    kinds, only_full = set(), 0
    for bounds in TIGHT_BOUNDS:
        for model in models:
            full = outcome(model, bounds, False)
            reduced = outcome(model, bounds, True)
            if isinstance(reduced, str):
                assert full == reduced
                kinds.add(reduced)
            elif isinstance(full, str):
                only_full += 1
    assert kinds == {"tokens", "messages", "states"}
    assert only_full > 0


def test_bound_failing_only_in_full_exploration_has_the_reduced_verdicts():
    pairs = [
        (parse_choreography(fixture_path(ch).read_text()),
         parse_collaboration(fixture_path(col).read_text()))
        for ch, col in STUDY_PAIRS
    ]
    pairs += [(a, b) for a, b, hidden in random_check_cases(33, 30) if not hidden]
    both, only_full = 0, 0
    for bounds in TIGHT_BOUNDS:
        for a, b in pairs:
            full = verdict_lines(a, b, False, bounds=bounds)
            reduced = verdict_lines(a, b, True, bounds=bounds)
            if reduced in ("tokens", "messages", "states"):
                assert full == reduced
                both += 1
            elif full in ("tokens", "messages", "states"):
                assert verdict_lines(a, b, False) == reduced
                only_full += 1
            else:
                assert full == reduced
    assert both > 0 and only_full > 0


def test_check_on_an_unbounded_choreography_exits_3_and_names_the_edge(capsys):
    code = main(["check", str(fixture_path("looping_andsplit.txt")),
                 str(fixture_path("two_messages_inorder.txt"))])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: tokens bound exceeded: edge 'w3' would hold 3 tokens (")
