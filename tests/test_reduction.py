"""Representative exploration against full exploration.

`generate_lts(..., reduce=True)` visits one representative per class of
markings joined by confluent silent steps.  Every state must be a reachable
marking, the initial state the representative of the initial marking, and
every step one full non-confluent step followed by confluent steps to the
representative of its target; the result must be weakly bisimilar to the
full system.  Every verdict line `check` prints, counterexamples included,
must be the one full exploration gives on the fixtures and the matched-pair
family; on the XOR-heavy family a BBC witness, which is picked by state
number, may rarely differ but must replay on the full systems.  Under tight
bounds a reduced failure must be a full failure too.
"""

import contextlib
import io
import random
from collections import defaultdict

import pytest

import chorcheck.cli
from chorcheck import (
    BoundExceeded,
    Choreography,
    Comm,
    ExplorationBounds,
    check_bbc,
    check_tbc,
    compose,
    export_aut,
    generate_lts,
    hide,
    labels_choreo,
    labels_collab,
    parse_choreography,
    parse_collaboration,
    print_model,
    saturate,
)
from chorcheck.cli import _print_verdict, main
from chorcheck.conformance import ConformanceResult, saturate_pair
from chorcheck.model import TAU, replace
from chorcheck.semantics import DEFAULT_BOUNDS, compile_net, confluent_rules
from conftest import fixture_path, fixture_text
from generators import fanin, matched_tuple_pair, xor_tuple_pair
from test_conformance import assert_replays
from test_net_semantics import FIXTURE_MODELS, FLOODING, TIGHT_BOUNDS, random_collaborations
from test_weak_layer import ROLE_ASSIGNMENTS, STUDY_PAIRS

# Both sends are confluent: they reach the representative of the initial
# marking with two messages in flight.
TWO_SENDS = """
pool A { start(a1) | taskSnd(a1, a2, A->B:m) | taskSnd(a2, a3, A->B:n) | end(a3, a4) }
pool B { start(b1) | taskRcv(b1, b2, A->B:m) | taskRcv(b2, b3, A->B:n) | end(b3, b4) }
"""

# Pool A's five sends are confluent, so settling the initial marking
# overflows the default message bound before any state is reached, while
# full exploration interleaves them with B's start and meets a small state
# bound first.
FIVE_SENDS = """
pool A { start(a1) | taskSnd(a1, a2, A->B:m) | taskSnd(a2, a3, A->B:m)
         | taskSnd(a3, a4, A->B:m) | taskSnd(a4, a5, A->B:m) | taskSnd(a5, a6, A->B:m) }
pool B { start(b1) | taskRcv(b1, b2, A->B:m) | end(b2, b3) }
"""


def outcome(model, bounds, reduce):
    try:
        return generate_lts(model, bounds, reduce=reduce)
    except BoundExceeded as err:
        return err.kind


def enabled(marking, rule):
    return all(marking[p] for p in rule.pre)


def fire(marking, rule):
    nxt = list(marking)
    for p in rule.pre:
        nxt[p] -= 1
    for p in rule.post:
        nxt[p] += 1
    return tuple(nxt)


def reach(rules, marking):
    """Every marking reachable from `marking` by `rules`."""
    seen = {marking}
    todo = [marking]
    while todo:
        m = todo.pop()
        for rule in rules:
            if enabled(m, rule):
                nxt = fire(m, rule)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return seen


def represents(confluent, marking, rep):
    """`rep` is the least marking of a bottom SCC that `marking` reaches by
    confluent steps."""
    if rep not in reach(confluent, marking):
        return False
    scc = reach(confluent, rep)
    return rep == min(scc) and all(rep in reach(confluent, m) for m in scc)


def assert_representatives(model):
    """The reduced LTS explores representatives of the full one.

    Every reduced marking is reachable, the reduced initial state is the
    representative of the full initial state, and each reduced step is one
    full non-confluent step followed by confluent steps to the
    representative of its target, for every non-confluent step there is.
    """
    full = generate_lts(model)
    reduced = generate_lts(model, reduce=True)
    net = compile_net(model)
    chosen = set(confluent_rules(net))
    confluent = [rule for i, rule in enumerate(net.rules) if i in chosen]
    others = [rule for i, rule in enumerate(net.rules) if i not in chosen]
    where = {marking: s for s, marking in enumerate(full.states)}
    assert all(marking in where for marking in reduced.states)
    assert represents(confluent, net.initial, reduced.states[reduced.initial])
    full_steps = set(full.transitions)
    mine = defaultdict(set)
    for src, label, tgt in reduced.transitions:
        mine[src].add((label, reduced.states[tgt]))
    for s, marking in enumerate(reduced.states):
        steps = set()
        for rule in others:
            if enabled(marking, rule):
                nxt = fire(marking, rule)
                assert (where[marking], rule.label, where[nxt]) in full_steps
                step = [(l, t) for l, t in mine[s] if l == rule.label and represents(confluent, nxt, t)]
                assert len(step) == 1
                steps.add(step[0])
        assert steps == mine[s]
    return full, reduced


@pytest.mark.parametrize("name,model", FIXTURE_MODELS, ids=[n for n, _ in FIXTURE_MODELS])
def test_reduced_fixture_lts_is_a_bisimilar_sub_lts(name, model):
    full = outcome(model, DEFAULT_BOUNDS, False)
    if isinstance(full, str):  # the unbounded fixture
        assert outcome(model, DEFAULT_BOUNDS, True) == full
        return
    full, reduced = assert_representatives(model)
    assert check_bbc(full, reduced).verdict


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_reduced_fanin_is_a_sub_lts(k):
    choreography, collaboration = fanin(k)
    assert_representatives(choreography)
    full, reduced = assert_representatives(collaboration)
    if k <= 4:
        assert check_bbc(full, reduced).verdict


def test_fanin_reduction_sizes():
    """Each side of fan-in k reduces to one state per set of finished
    exchanges, with no silent step left."""
    for k in range(1, 7):
        for side in fanin(k):
            lts = generate_lts(side, reduce=True)
            assert lts.n_states == 2 ** k
            assert all(label != TAU for _, label, _ in lts.transitions)
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


def test_hidden_receives_are_confluent():
    collab = parse_collaboration(TWO_SENDS)
    net = compile_net(collab)
    m = Comm("A", "B", "m")
    added = set(confluent_rules(compile_net(collab, {m}))) - set(confluent_rules(net))
    assert [net.rules[i].label for i in added] == [m]
    lts = generate_lts(collab, reduce=True, hidden={m})
    assert lts.labels() == {Comm("A", "B", "n")}
    assert lts.n_states == 2
    assert generate_lts(collab, reduce=True).n_states == 3


def test_bounds_are_checked_on_the_way_to_a_representative():
    collab = parse_collaboration(TWO_SENDS.replace("A->B:n", "A->B:m"))
    bounds = ExplorationBounds(max_messages_per_edge=1)
    with pytest.raises(BoundExceeded) as err:
        generate_lts(collab, bounds, reduce=True)
    assert (err.value.kind, err.value.states, err.value.frontier) == ("messages", 0, 0)
    assert outcome(collab, bounds, False) == "messages"


def looping_pools(k):
    """`k` pools that each loop silently for ever."""
    return "\n".join(
        f"pool P{i} {{ start(a{i}) | xorJoin({{a{i}, c{i}}}, b{i}) | task(b{i}, c{i}) }}"
        for i in range(k)
    )


def test_confluent_rules_leave_out_silent_loops():
    collab = parse_collaboration(looping_pools(2))
    net = compile_net(collab)
    kept = [
        (type(collab.nodes[net.rules[i].node]).__name__, net.places[net.rules[i].pre[0]])
        for i in confluent_rules(net)
    ]
    # Each pool's start and the xorJoin rule that enters its loop, but not
    # the loop's back edge into the xorJoin nor its task.
    assert kept == [("StartEvent", 0), ("XorJoin", "a0"), ("StartEvent", 3), ("XorJoin", "a1")]


def test_reduced_exploration_keeps_silent_loops():
    """Each pool's loop stays in the reduced system: one state per choice
    of where each pool is on its loop."""
    collab = parse_collaboration(looping_pools(3))
    assert generate_lts(collab, reduce=True).n_states == 8
    assert_representatives(collab)


def test_reduced_exploration_of_twelve_looping_pools_meets_the_state_bound(tmp_path, capsys):
    """The initial representative has all twelve loops entered, and its
    twelve loop steps lead to new states: a state bound of 10 stops the
    reduced exploration there, and full exploration too."""
    collab = parse_collaboration(looping_pools(12))
    bounds = ExplorationBounds(max_states=10)
    with pytest.raises(BoundExceeded) as err:
        generate_lts(collab, bounds, reduce=True)
    assert (err.value.kind, err.value.states, err.value.frontier) == ("states", 10, 9)
    assert outcome(collab, bounds, False) == "states"
    choreo_file, collab_file = tmp_path / "choreo.txt", tmp_path / "collab.txt"
    choreo_file.write_text("start(s) | end(s, e)")
    collab_file.write_text(looping_pools(12))
    code = main(["check", str(choreo_file), str(collab_file), "--max-states", "10"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: states bound exceeded: more than 10 reachable states"
        " (10 states reached, 9 not yet expanded)\n"
    )


# ---------------------------------------------------------------------------
# Verdict lines


def _labels(model):
    return labels_choreo(model) if isinstance(model, Choreography) else labels_collab(model)


def checked(a, b, reduce, hidden=frozenset(), bounds=DEFAULT_BOUNDS, explored=None):
    """(TBC result, BBC result, LTS of `a`, LTS of `b`, labels hidden in `b`)
    as `check` computes them for two models, or the bound's kind.

    As in `check`, reduced exploration of `b` hides those labels itself;
    full exploration, the oracle, leaves them to `saturate_pair`.
    `explored` caches each model's LTS across calls.
    """
    explored = {} if explored is None else explored
    hidden = (_labels(b) - _labels(a)) | hidden
    keys = [(a, reduce, frozenset()), (b, reduce, hidden if reduce else frozenset())]
    try:
        for key in keys:
            if key not in explored:
                model, _, silent = key
                explored[key] = generate_lts(model, bounds, reduce=reduce, hidden=silent)
    except BoundExceeded as err:
        return err.kind
    la, lb = explored[keys[0]], explored[keys[1]]
    weak = saturate_pair(la, lb, hidden)
    return check_tbc(weak), check_bbc(weak), la, lb, hidden


def verdict_lines(*args, **kwargs):
    """`check --report lines` output for two models, or the bound's kind."""
    results = checked(*args, **kwargs)
    if isinstance(results, str):
        return results
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_verdict(results[0], "lines")
        _print_verdict(results[1], "lines")
    return out.getvalue()


def random_check_cases(seed, count, pair=matched_tuple_pair, **kwargs):
    """Pairs of compositions over the same messages, in both orders, and once
    more with a shared label hidden."""
    rng = random.Random(seed)
    for _ in range(count):
        first, second, names = pair(rng, **kwargs)
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
    choreography = parse_choreography(fixture_text("ignoring_loop_choreography.txt"))
    collaboration = parse_collaboration(fixture_text("ignoring_loop_collaboration.txt"))
    expected = verdict_lines(choreography, collaboration, False)
    assert expected == "tbc true\nbbc true\n"
    assert verdict_lines(choreography, collaboration, True) == expected
    full, reduced = assert_representatives(collaboration)
    assert check_bbc(full, reduced).verdict


def _full_exploration(model, bounds=DEFAULT_BOUNDS, *, reduce=False, hidden=()):
    """`generate_lts` that ignores `reduce` and hides `hidden` afterwards:
    the oracle for `check`."""
    return hide(generate_lts(model, bounds), hidden)


def check_outputs(argv, capsys, monkeypatch):
    """(exit code, stdout, stderr) of `argv`, reduced and then full."""
    outputs = []
    for explore in (generate_lts, _full_exploration):
        monkeypatch.setattr(chorcheck.cli, "generate_lts", explore)
        code = main(argv)
        outputs.append((code, *capsys.readouterr()))
    return outputs


def assert_replays_on_full(witness, reduced, full, hidden):
    """A BBC witness found on the reduced systems replays on the full ones."""
    states = []
    for lts, state in zip(reduced, (witness.choreo_state, witness.collab_state)):
        states.append(full[len(states)].states.index(lts.states[state]))
    mapped = replace(witness, choreo_state=states[0], collab_state=states[1])
    assert_replays(
        ConformanceResult("bbc", False, mapped),
        saturate(full[0]), saturate(hide(full[1], hidden)),
    )


@pytest.mark.parametrize("seed", [41, 42])
def test_xor_checks_agree_with_full_exploration(seed):
    """On XOR-heavy pairs, reduced `check` gives full exploration's exit
    code, TBC line and BBC verdict.  The BBC witness is chosen by state
    number, so a reduction can change it: it must then still replay on the
    full systems, and stay rare."""
    explored = {}
    verdicts, moved = [], []
    for a, b, hidden in random_check_cases(seed, 60, xor_tuple_pair, max_pools=3):
        tbc, bbc, *full, silent = checked(a, b, False, hidden, explored=explored)
        tbc_r, bbc_r, *reduced, _ = checked(a, b, True, hidden, explored=explored)
        assert tbc_r == tbc
        assert bbc_r.verdict == bbc.verdict
        verdicts.append(tbc.verdict and bbc.verdict)
        if bbc.verdict:
            continue
        witness, expected = bbc_r.counterexample, bbc.counterexample
        if (witness.path, witness.offending, witness.side) != (
            expected.path, expected.offending, expected.side
        ):
            assert_replays_on_full(witness, reduced, full, silent)
            moved.append(witness)
    assert len(verdicts) > 150
    assert 0.2 < verdicts.count(True) / len(verdicts) < 0.8
    assert len(moved) <= len(verdicts) // 50


def test_xor_checks_exit_like_full_exploration(tmp_path, capsys, monkeypatch):
    """`check` with the first composition as an `.aut` choreography: the
    collaboration is reduced with the labels the `.aut` lacks counted as
    silent.  Exit code, stderr, the TBC line and the BBC verdict must be
    those of full exploration."""
    aut, text = tmp_path / "a.aut", tmp_path / "b.txt"
    codes = []
    for a, b, hidden in random_check_cases(43, 40, xor_tuple_pair, max_pools=3):
        if hidden:
            continue
        aut.write_bytes(export_aut(generate_lts(a)))
        text.write_text(print_model(b))
        argv = ["check", str(aut), str(text), "--report", "lines"]
        outputs = []
        for code, out, err in check_outputs(argv, capsys, monkeypatch):
            tbc, bbc = out.splitlines()
            outputs.append((code, err, tbc, bbc.split()[:2]))
        assert outputs[0] == outputs[1]
        codes.append(outputs[0][0])
    assert set(codes) == {0, 4}


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
    """Every marking the reduced exploration passes through is reachable, so
    its failures are full failures, though full exploration, which visits
    more states, may meet the state bound first."""
    models = [model for _, model in FIXTURE_MODELS]
    models += list(random_collaborations(13, 60))
    models += [fanin(3)[1], parse_collaboration(FLOODING), parse_collaboration(FIVE_SENDS)]
    kinds, only_full, other_kind = set(), 0, 0
    for bounds in TIGHT_BOUNDS:
        for model in models:
            full = outcome(model, bounds, False)
            reduced = outcome(model, bounds, True)
            if isinstance(reduced, str):
                assert isinstance(full, str)
                kinds.add(reduced)
                if full != reduced:
                    other_kind += 1
                    raised = ExplorationBounds(
                        bounds.max_tokens_per_edge, bounds.max_messages_per_edge, 10 ** 6
                    )
                    assert outcome(model, raised, False) in ("tokens", "messages")
            elif isinstance(full, str):
                only_full += 1
    assert kinds == {"tokens", "messages", "states"}
    assert only_full > 0 and other_kind > 0


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
    assert capsys.readouterr().err == (
        "error: tokens bound exceeded: edge 'w5' would hold 3 tokens"
        " (5 states reached, 0 not yet expanded)\n"
    )
