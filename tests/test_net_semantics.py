"""The compiled net against the explicit-configuration oracle.

`generate_lts` must return exactly the oracle's LTS, state numbering and
transition order included, and each marking it keeps must decode to the
oracle's configuration for the same state.  Under tight bounds both must
fail with the same kind of BoundExceeded.  `hide` must equal the oracle's
re-sorting `hide`.
"""

import gc
import itertools
import random

import pytest

import oracle_explore
import oracle_semantics as oracle
from chorcheck import (
    BoundExceeded,
    BpmnDocument,
    Collaboration,
    Comm,
    CompositionError,
    ExplorationBounds,
    MalformedModelError,
    MessageEdge,
    ParseError,
    compose,
    generate_lts,
    hide,
    labels_collab,
    load_choreography,
    load_collaboration,
    parse_choreography,
    parse_collaboration,
    parse_process,
)
from chorcheck.semantics import DEFAULT_BOUNDS, _Columns, _Packing, compile_net
from conftest import FIXTURES, fixture_text
from generators import fanin, matched_process_tuple, random_lts

# The sender loops, queueing messages faster than the receiver reads them.
FLOODING = """
pool A { start(a1) | xorJoin({a1, a3}, a2) | taskSnd(a2, a3, A->B:m) }
pool B { start(b1) | taskRcv(b1, b2, A->B:m) | end(b2, b3) }
"""

TIGHT_BOUNDS = [
    ExplorationBounds(max_tokens_per_edge=1),
    ExplorationBounds(max_messages_per_edge=1),
    ExplorationBounds(max_tokens_per_edge=1, max_messages_per_edge=1),
    ExplorationBounds(max_states=1),
    ExplorationBounds(max_states=4),
    ExplorationBounds(max_tokens_per_edge=1, max_messages_per_edge=1, max_states=9),
]


def decode(net, marking, collab: bool):
    """The oracle's configuration for a net marking."""
    sequence, messages, started = {}, {}, []
    for name, n in zip(net.places, marking):
        if isinstance(name, int):
            if not n:
                started.append(name)
        elif isinstance(name, MessageEdge):
            messages[name] = n
        else:
            sequence[name] = n
    if collab:
        return oracle.CollabConfig.make(sequence, messages, started)
    return oracle.ChoreoConfig.make(sequence, started)


def outcome(explore, model, bounds):
    try:
        return explore(model, bounds)
    except (BoundExceeded, oracle.BoundExceeded) as err:
        return err.kind


def assert_same(model, bounds=DEFAULT_BOUNDS):
    expected = outcome(oracle.generate_lts, model, bounds)
    got = outcome(generate_lts, model, bounds)
    assert got == expected
    if isinstance(got, str):
        return got
    assert (got.n_states, got.initial) == (expected.n_states, expected.initial)
    assert got.transitions == expected.transitions
    net = compile_net(model)
    collab = isinstance(model, Collaboration)
    assert all(min(m) >= 0 for m in got.states)
    assert [decode(net, m, collab) for m in got.states] == list(expected.states)
    return got


def fixture_models():
    """Every choreography and collaboration the fixtures hold, plus the
    composable role assignments of the booking processes."""
    models = []
    for path in sorted(FIXTURES.iterdir()):
        if path.suffix == ".txt":
            source = path.read_text()
            readers = (parse_choreography, parse_collaboration)
        else:
            source = BpmnDocument.from_path(str(path))
            readers = (load_choreography, load_collaboration)
        for read in readers:
            try:
                models.append((path.name, read(source)))
            except (ParseError, MalformedModelError):
                pass
    banks = ["bank.txt"]
    customers = ["customer_basic.txt", "customer_ack.txt"]
    systems = ["booking_system_race.txt", "booking_system_ack.txt", "booking_system_xor.txt"]
    for names in itertools.product(banks, customers, systems):
        processes = [parse_process(fixture_text(n)) for n in names]
        try:
            models.append(("+".join(names), compose(processes, ("bk", "c", "bs"))))
        except CompositionError:
            pass
    return models


FIXTURE_MODELS = fixture_models()


def random_collaborations(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        processes, names = matched_process_tuple(rng)
        yield compose(processes, names)


def test_fixture_models_cover_every_fixture_kind():
    names = {name for name, _ in FIXTURE_MODELS}
    assert len(FIXTURE_MODELS) >= 26
    assert {"booking_choreography.bpmn", "booking_collaboration.bpmn"} <= names
    assert sum("+" in name for name in names) == 3


@pytest.mark.parametrize("name,model", FIXTURE_MODELS, ids=[n for n, _ in FIXTURE_MODELS])
def test_fixture_lts_equals_the_oracle(name, model):
    assert_same(model)


@pytest.mark.parametrize("seed", [11, 12])
def test_random_collaborations_equal_the_oracle(seed):
    sizes = []
    for collab in random_collaborations(seed, 300):
        got = assert_same(collab)
        sizes.append(got if isinstance(got, str) else got.n_states)
    assert max(s for s in sizes if isinstance(s, int)) > 50


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fanin_equals_the_oracle(k):
    choreography, collaboration = fanin(k)
    assert_same(choreography)
    assert_same(collaboration)


def test_tight_bounds_fail_like_the_oracle():
    kinds = set()
    for bounds in TIGHT_BOUNDS:
        for _, model in FIXTURE_MODELS:
            kinds.add(assert_same(model, bounds))
        for collab in random_collaborations(13, 60):
            kinds.add(assert_same(collab, bounds))
        kinds.add(assert_same(fanin(3)[1], bounds))
        kinds.add(assert_same(parse_collaboration(FLOODING), bounds))
    assert {"tokens", "messages", "states"} <= kinds


def test_processes_are_rejected_like_the_oracle(booking_processes):
    for process in booking_processes.values():
        with pytest.raises(TypeError):
            oracle.generate_lts(process)
        with pytest.raises(TypeError):
            generate_lts(process)


# ---------------------------------------------------------------------------
# Hiding


def test_hide_equals_the_oracle_on_random_systems():
    rng = random.Random(21)
    alphabet = ("m1", "m2", "m3")
    for _ in range(1500):
        lts = random_lts(rng, max_states=rng.randint(1, 8), alphabet=alphabet, max_out=4)
        hidden = {Comm("A", "B", m) for m in alphabet if rng.random() < 0.4}
        if rng.random() < 0.2:
            hidden.add(Comm("X", "Y", "absent"))
        assert hide(lts, hidden) == oracle.hide(lts, hidden)


def test_hide_equals_the_oracle_on_generated_systems():
    rng = random.Random(22)
    for collab in random_collaborations(23, 150):
        lts = generate_lts(collab)
        labels = sorted(labels_collab(collab), key=str)
        hidden = {l for l in labels if rng.random() < 0.5}
        got = hide(lts, hidden)
        assert got == oracle.hide(lts, hidden)
        assert got.states is lts.states


def test_generated_markings_read_as_their_tuple_and_decode_once(monkeypatch):
    """`Lts.states` of a generated system stays packed through `len`, and
    its first read decodes it, once, into the tuple the eager decode gives."""
    _, collab = fanin(2)
    lts = generate_lts(collab)
    eager = oracle_explore.generate_lts(collab).states
    calls = []
    unpack = _Packing.unpack
    monkeypatch.setattr(_Packing, "unpack", lambda self, m: calls.append(m) or unpack(self, m))
    states = lts.states
    assert len(states) == lts.n_states == len(eager) > 3 and not calls
    assert states == eager and eager == states and not states != eager
    assert states != list(eager) and states != eager[1:]
    assert (states[0], states[-1], states[1:3]) == (eager[0], eager[-1], eager[1:3])
    assert tuple(states) == eager and states.index(eager[3]) == 3 and eager[3] in states
    assert repr(states) == repr(eager)
    assert len(calls) == 1
    assert hide(lts, labels_collab(collab)).states is states


def test_generated_transitions_read_as_their_tuple_and_decode_once(monkeypatch):
    """`Lts.transitions` of a generated system stays in columns through
    `len`, and its first read decodes it, once, into the reference tuple;
    equal columns compare and hash without decoding."""
    _, collab = fanin(2)
    lts = generate_lts(collab)
    eager = tuple(oracle_explore.generate_lts(collab).transitions)
    calls = []
    decode = _Columns._decode
    monkeypatch.setattr(_Columns, "_decode", lambda self: calls.append(self) or decode(self))
    transitions = lts.transitions
    assert len(transitions) == len(eager) > 3 and not calls
    assert transitions == eager and eager == transitions and not transitions != eager
    assert transitions != list(eager) and transitions != eager[1:]
    assert (transitions[0], transitions[-1], transitions[1:3]) == (eager[0], eager[-1], eager[1:3])
    assert tuple(transitions) == eager and transitions.index(eager[3]) == 3
    assert eager[3] in transitions
    assert repr(transitions) == repr(eager) and len(calls) == 1
    again = generate_lts(collab).transitions
    assert again == transitions and hash(again) == hash(transitions) and len(calls) == 1


def test_an_explored_system_keeps_fewer_objects_than_states():
    """Full fan-in k=5 (9 888 states, 48 832 transitions) keeps its steps in
    a few int lists, so the garbage collector tracks fewer objects for it
    than it has states, where one tuple per transition kept 48 839."""
    _, collab = fanin(5)
    generate_lts(fanin(1)[1])  # what a first exploration keeps for the process
    gc.collect()
    before = len(gc.get_objects())
    lts = generate_lts(collab)
    gc.collect()
    kept = len(gc.get_objects()) - before
    assert lts.n_states == 9_888 and len(lts.transitions) == 48_832
    assert kept < lts.n_states, kept


def test_hide_returns_the_system_when_nothing_is_hidden():
    _, collab = fanin(2)
    lts = generate_lts(collab)
    assert hide(lts, ()) is lts
    assert hide(lts, {Comm("p0", "hub", "absent")}) is lts
    with pytest.raises(ValueError):
        hide(lts, {oracle.TAU})
