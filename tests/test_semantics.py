import random

import pytest

from chorcheck import (
    TAU,
    AndJoin,
    AndSplit,
    BoundExceeded,
    Choreography,
    Collaboration,
    Comm,
    EndEvent,
    ExplorationBounds,
    InterSnd,
    StartEvent,
    TaskSnd,
    TaskRcv,
    InterRcv,
    EventBased,
    MessageEdge,
    Pool,
    compose,
    export_aut,
    generate_lts,
    hide,
    hiding_set,
    in_edges,
    labels_choreo,
    labels_collab,
    out_edges,
    parse_choreography,
    parse_collaboration,
)
from chorcheck.model import message_parts
from chorcheck.semantics import compile_net
from conftest import fixture_text
from generators import matched_process_tuple
from oracle_semantics import (
    ChoreoConfig,
    CollabConfig,
    choreo_steps,
    collab_steps,
    initial_config,
)
from test_net_semantics import FIXTURE_MODELS


def starts_of(model):
    return tuple(i for i, n in enumerate(model.nodes) if isinstance(n, StartEvent))


def test_initial_step_is_the_start(booking_choreography):
    steps = choreo_steps(booking_choreography, initial_config(booking_choreography))
    assert len(steps) == 1
    label, cfg = steps[0]
    assert label == TAU
    assert cfg.marking == (("e1", 1),)
    assert cfg.started == (0,)


def test_xor_split_offers_both_branches(booking_choreography):
    cfg = ChoreoConfig.make({"e4": 1}, starts_of(booking_choreography))
    steps = choreo_steps(booking_choreography, cfg)
    targets = {dict(c.marking).popitem() for _, c in steps}
    assert all(label == TAU for label, _ in steps)
    assert targets == {("e5", 1), ("e6", 1)}


def test_exhausted_configuration_has_no_steps(booking_choreography):
    cfg = ChoreoConfig.make({}, starts_of(booking_choreography))
    assert choreo_steps(booking_choreography, cfg) == []


def test_task_step_is_labelled(booking_choreography):
    cfg = ChoreoConfig.make({"e1": 1}, starts_of(booking_choreography))
    (label, nxt), = choreo_steps(booking_choreography, cfg)
    assert label == Comm("c", "bs", "login")
    assert nxt.marking == (("e2", 1),)


def test_send_is_silent_and_queues_a_message(booking_collaboration):
    started = starts_of(booking_collaboration)
    cfg = CollabConfig.make({"b1": 1}, {}, started)
    (label, nxt), = collab_steps(booking_collaboration, cfg)
    assert label == TAU
    assert nxt.messages == ((MessageEdge("c", "bs", "login"), 1),)
    assert dict(nxt.marking) == {"b2": 1}


def test_receive_blocks_until_message_present(booking_collaboration):
    started = starts_of(booking_collaboration)
    silent = CollabConfig.make({"d1": 1}, {}, started)
    assert collab_steps(booking_collaboration, silent) == []
    ready = CollabConfig.make({"d1": 1}, {MessageEdge("c", "bs", "login"): 1}, started)
    (label, nxt), = collab_steps(booking_collaboration, ready)
    assert label == Comm("c", "bs", "login")
    assert nxt.messages == ()


def test_event_based_races_only_available_messages(booking_collaboration):
    started = starts_of(booking_collaboration)
    cfg = CollabConfig.make(
        {"d4": 1}, {MessageEdge("c", "bs", "abort"): 1}, started
    )
    (label, nxt), = collab_steps(booking_collaboration, cfg)
    assert label == Comm("c", "bs", "abort")
    assert dict(nxt.marking) == {"d5": 1}

    both = CollabConfig.make(
        {"d4": 1},
        {MessageEdge("c", "bs", "abort"): 1, MessageEdge("c", "bs", "book"): 1},
        started,
    )
    labels = {label for label, _ in collab_steps(booking_collaboration, both)}
    assert labels == {Comm("c", "bs", "abort"), Comm("c", "bs", "book")}


def test_minimal_lts_shape():
    lts = generate_lts(parse_choreography("start(e1) | end(e1, e2)"))
    assert lts.n_states == 3
    assert [(s, str(l), t) for s, l, t in lts.transitions] == [
        (0, "tau", 1),
        (1, "tau", 2),
    ]


def maximal_visible_traces(lts):
    succ = {}
    for s, l, t in lts.transitions:
        succ.setdefault(s, []).append((l, t))
    traces = set()

    def dfs(state, acc, seen):
        if state not in succ:
            traces.add(tuple(acc))
            return
        for label, target in succ[state]:
            if (state, str(label), target) in seen:
                continue
            step = [] if label == TAU else [label]
            dfs(target, acc + step, seen | {(state, str(label), target)})

    dfs(lts.initial, [], frozenset())
    return traces


def test_booking_choreography_runs(booking_choreography):
    lts = generate_lts(booking_choreography)
    names = {tuple(l.message for l in tr) for tr in maximal_visible_traces(lts)}
    assert names == {
        ("login", "request", "reply", "abort"),
        ("login", "request", "reply", "book", "pay", "confirmation", "ticket"),
    }


def test_generation_is_deterministic(booking_collaboration):
    a = generate_lts(booking_collaboration)
    b = generate_lts(booking_collaboration)
    assert a == b
    assert export_aut(a) == export_aut(b)


def test_unbounded_token_growth_fails_loudly():
    looping = parse_choreography(fixture_text("looping_andsplit.txt"))
    with pytest.raises(BoundExceeded) as err:
        generate_lts(looping)
    assert err.value.kind == "tokens"
    assert err.value.detail == "edge 'w3' would hold 3 tokens"
    assert (err.value.states, err.value.frontier) == (10, 1)
    assert str(err.value).endswith("(10 states reached, 1 not yet expanded)")


def test_state_bound_fails_loudly(booking_collaboration):
    with pytest.raises(BoundExceeded) as err:
        generate_lts(booking_collaboration, ExplorationBounds(max_states=5))
    assert err.value.kind == "states"
    assert err.value.detail == "more than 5 reachable states"
    assert (err.value.states, err.value.frontier) == (5, 3)


def test_message_bound_fails_loudly():
    collab = parse_collaboration(
        """
        pool A {
          start(a1) | xorJoin({a1, a3}, a2) | taskSnd(a2, a3, A->B:m)
        }
        pool B { start(b1) | taskRcv(b1, b2, A->B:m) | end(b2, b3) }
        """
    )
    with pytest.raises(BoundExceeded) as err:
        generate_lts(collab)
    assert err.value.kind == "messages"
    assert err.value.detail == "message edge A->B:m would hold 5 messages"
    assert (err.value.states, err.value.frontier) == (32, 3)


def rule_deltas(net, rule):
    """Change in (sequence tokens, message tokens) whenever `rule` fires."""

    def count(places, kind):
        return sum(isinstance(net.places[p], kind) for p in places)

    sigma = count(rule.post, str) - count(rule.pre, str)
    messages = count(rule.post, MessageEdge) - count(rule.pre, MessageEdge)
    return sigma, messages


CHOREO_FIXTURES = [
    "booking_choreography.txt",
    "two_messages_choreography.txt",
    "race_choreography.txt",
    "request_response_choreography.txt",
    "drink_shopping_choreography.txt",
]
COLLAB_FIXTURES = [
    "booking_collaboration.txt",
    "two_messages_inorder.txt",
    "two_messages_parallel.txt",
    "race_collaboration.txt",
    "request_response_guarded.txt",
    "drink_shopping_collaboration.txt",
]


@pytest.mark.parametrize("name", CHOREO_FIXTURES)
def test_choreography_token_conservation(name):
    ch = parse_choreography(fixture_text(name))
    net = compile_net(ch)
    assert {rule.node for rule in net.rules} == set(range(len(ch.nodes)))
    for rule in net.rules:
        node = ch.nodes[rule.node]
        delta, messages = rule_deltas(net, rule)
        assert messages == 0
        if isinstance(node, StartEvent):
            assert delta == 1 and rule.label == TAU
            assert net.places[rule.pre[0]] == rule.node
            assert net.initial[rule.pre[0]] == 1
        elif isinstance(node, AndSplit):
            assert delta == len(node.outs) - 1
        elif isinstance(node, AndJoin):
            assert delta == 1 - len(node.ins)
        else:
            assert delta == 0


@pytest.mark.parametrize("name", COLLAB_FIXTURES)
def test_collaboration_token_conservation(name):
    collab = parse_collaboration(fixture_text(name))
    net = compile_net(collab)
    assert {rule.node for rule in net.rules} == set(range(len(collab.nodes)))
    for rule in net.rules:
        node = collab.nodes[rule.node]
        deltas = rule_deltas(net, rule)
        if isinstance(node, StartEvent):
            assert deltas == (1, 0) and rule.label == TAU
            assert net.initial[rule.pre[0]] == 1
        elif isinstance(node, AndSplit):
            assert deltas == (len(node.outs) - 1, 0)
        elif isinstance(node, AndJoin):
            assert deltas == (1 - len(node.ins), 0)
        elif isinstance(node, (TaskSnd, InterSnd)):
            assert deltas == (0, 1) and rule.label == TAU
        elif isinstance(node, (TaskRcv, InterRcv, EventBased)):
            assert deltas == (0, -1) and isinstance(rule.label, Comm)
        else:
            assert deltas == (0, 0)


def test_only_start_places_are_marked_initially(booking_collaboration):
    net = compile_net(booking_collaboration)
    marked = [name for name, n in zip(net.places, net.initial) if n]
    assert marked == list(starts_of(booking_collaboration))
    assert set(net.initial) == {0, 1}


def test_rules_follow_node_then_branch_order(booking_collaboration):
    nodes = booking_collaboration.nodes
    net = compile_net(booking_collaboration)
    order = [rule.node for rule in net.rules]
    assert order == sorted(order)
    (race,) = [i for i, n in enumerate(nodes) if isinstance(n, EventBased)]
    labels = [rule.label for rule in net.rules if rule.node == race]
    assert labels == [b.edge().label() for b in nodes[race].branches]


def test_hide_nothing_is_identity(booking_collaboration):
    lts = generate_lts(booking_collaboration)
    assert hide(lts, frozenset()) == lts


def test_hide_composes_as_union(booking_processes):
    collab = compose(
        (booking_processes["a"], booking_processes["c"], booking_processes["e"]),
        ("bk", "c", "bs"),
    )
    lts = generate_lts(collab)
    a = {Comm("c", "bs", "login")}
    b = {Comm("bs", "c", "ack")}
    assert hide(hide(lts, a), b) == hide(lts, a | b)


def test_hide_preserves_counts(booking_processes, booking_choreography):
    collab = compose(
        (booking_processes["a"], booking_processes["c"], booking_processes["e"]),
        ("bk", "c", "bs"),
    )
    lts = generate_lts(collab)
    hidden = hiding_set(booking_choreography, collab)
    masked = hide(lts, hidden)
    assert masked.n_states == lts.n_states
    assert len(masked.transitions) == len(lts.transitions)
    assert not (masked.labels() & hidden)


def test_hide_rejects_tau():
    lts = generate_lts(parse_choreography("start(e1) | end(e1, e2)"))
    with pytest.raises(ValueError):
        hide(lts, {TAU})


@pytest.mark.parametrize("reduce", [False, True])
def test_exploration_refuses_what_hide_refuses(reduce):
    """`generate_lts(model, hidden=h)` equals `hide(generate_lts(model), h)`,
    so a τ in the hidden set is refused by both, not explored unhidden."""
    collab = parse_collaboration(fixture_text("two_messages_inorder.txt"))
    hidden = {TAU, Comm("A", "B", "m1")}
    with pytest.raises(ValueError, match="only communication labels can be hidden"):
        hide(generate_lts(collab, reduce=reduce), hidden)
    with pytest.raises(ValueError, match="only communication labels can be hidden"):
        generate_lts(collab, reduce=reduce, hidden=hidden)


def test_hiding_set_of_ack_composition(booking_processes, booking_choreography):
    collab = compose(
        (booking_processes["a"], booking_processes["c"], booking_processes["e"]),
        ("bk", "c", "bs"),
    )
    assert hiding_set(booking_choreography, collab) == {Comm("bs", "c", "ack")}


def test_hiding_and_exploring_hash_each_label_and_edge_at_most_once(
    booking_processes, booking_choreography, monkeypatch
):
    """Labels and message edges are keyed by their (sender, receiver,
    message) tuples while hiding and lowering: the ack composition hides
    `bs->c:ack`, and hiding and both reduced explorations hash each label
    and message edge of the two models, both through Python code, at most
    once, not once per rule."""
    collab = compose(
        (booking_processes["a"], booking_processes["c"], booking_processes["e"]),
        ("bk", "c", "bs"),
    )
    distinct = labels_choreo(booking_choreography) | labels_collab(collab)
    distinct |= set(in_edges(collab)) | set(out_edges(collab))
    hashed = []
    for cls in (Comm, MessageEdge):
        monkeypatch.setattr(cls, "__hash__", lambda self, h=cls.__hash__: hashed.append(self) or h(self))
    hidden = hiding_set(booking_choreography, collab)
    generate_lts(booking_choreography, reduce=True)
    generate_lts(collab, reduce=True, hidden=hidden)
    monkeypatch.undo()
    assert hidden == {Comm("bs", "c", "ack")}
    assert len(hashed) <= len(distinct)


def test_hiding_set_empty_for_matching_labels(
    booking_choreography, booking_collaboration
):
    assert hiding_set(booking_choreography, booking_collaboration) == frozenset()


def test_hiding_set_of_guarded_request_response():
    ch = parse_choreography(fixture_text("request_response_choreography.txt"))
    collab = parse_collaboration(fixture_text("request_response_guarded.txt"))
    assert hiding_set(ch, collab) == {Comm("B", "A", "m")}


def test_hiding_set_is_the_received_labels_the_choreography_lacks():
    """On every fixture pair, models and their explored `Lts`s alike, the
    hidden labels are those the collaboration receives and the choreography
    does not name; a message sent but never received (`two_messages_dropped`)
    is not hidden."""
    choreographies = [m for _, m in FIXTURE_MODELS if isinstance(m, Choreography)]
    collaborations = [m for _, m in FIXTURE_MODELS if isinstance(m, Collaboration)]
    explored = {}
    for model in choreographies + collaborations:
        try:
            explored[id(model)] = generate_lts(model, reduce=True)
        except BoundExceeded:  # `looping_andsplit.txt`: only the model is compared
            pass
    for ch in choreographies:
        # Written out here, not through `message_keys`, which all three share.
        named = {Comm(p.sender, p.receiver, p.message) for n in ch.nodes for p in message_parts(n)}
        assert labels_choreo(ch) == named
        for col in collaborations:
            received = {edge.label() for edge in in_edges(col)}
            assert labels_collab(col) == received
            assert hiding_set(ch, col) == received - named
            lts_ch, lts_col = explored.get(id(ch)), explored.get(id(col))
            if lts_ch is not None and lts_col is not None:
                assert hiding_set(lts_ch, lts_col) == lts_col.labels() - lts_ch.labels()
    assert any(set(out_edges(col)) - set(in_edges(col)) for col in collaborations)


def test_random_collaborations_explore_cleanly():
    rng = random.Random(5)
    bounds = ExplorationBounds(max_tokens_per_edge=3, max_messages_per_edge=6)
    for _ in range(30):
        processes, names = matched_process_tuple(rng, max_pools=3)
        collab = compose(processes, names)
        lts = generate_lts(collab, bounds)
        assert lts.n_states >= 1
        visible = lts.labels()
        assert visible <= labels_collab(collab)


def test_choreo_labels_cover_lts_labels(booking_choreography):
    lts = generate_lts(booking_choreography)
    assert lts.labels() == labels_choreo(booking_choreography)


def test_processes_alone_are_not_executable(booking_processes):
    with pytest.raises(TypeError):
        generate_lts(booking_processes["a"])
    with pytest.raises(TypeError):
        compile_net(booking_processes["a"])
    with pytest.raises(TypeError):
        initial_config(booking_processes["a"])


def test_a_node_class_defined_elsewhere_fires_as_the_class_it_extends(booking_collaboration):
    """Node classes are dispatched by exact class; a subclass not in the
    library fires as its nearest base, as an `isinstance` test would take it.
    (Defined here, not at module level: `test_values.py` lists every `Value`
    class when it is collected.)"""

    class Relayed(TaskSnd):
        """A send task of a notation the library does not know."""

    class Awaited(InterRcv):
        """A catch event of a notation the library does not know."""

    swap = {TaskSnd: Relayed, TaskRcv: Awaited}
    pools = tuple([
        Pool(pool.name, tuple([
            swap[type(n)](n.inp, n.out, n.message, n.sender, n.receiver)
            if type(n) in swap else n for n in pool.nodes
        ]))
        for pool in booking_collaboration.pools
    ])
    relayed = Collaboration(pools)
    assert relayed != booking_collaboration
    assert compile_net(relayed) == compile_net(booking_collaboration)
    assert generate_lts(relayed, reduce=True) == generate_lts(booking_collaboration, reduce=True)
    stray = Collaboration((Pool("p", (StartEvent("a"), object())),))
    with pytest.raises(TypeError, match="is not a collaboration element"):
        generate_lts(stray)


def test_bounds_must_be_positive():
    with pytest.raises(ValueError):
        ExplorationBounds(max_tokens_per_edge=0)
    with pytest.raises(ValueError):
        ExplorationBounds(max_states=0)


def test_a_join_of_an_edge_with_itself_is_refused():
    looped = Choreography((StartEvent("a"), AndJoin(("a", "a"), "b"), EndEvent("b", "c")))
    with pytest.raises(ValueError):
        generate_lts(looped)
