"""Reference exploration: the tuple-marking loop `chorcheck.semantics` ran
before markings were packed into integers, over the lowering it used before
each model was lowered in one pass.

`compile_net` and `confluent_sinks_first` are those of that version: an
`isinstance` ladder per node, one `MessageEdge` and one `Comm` built per
rule, and an owner table per place for the confluent rules.  They share no
code with `semantics.compile_net` and `semantics.confluent_rules` beyond
the value types and `_sccs`.

Markings are tuples of token counts indexed like `Net.places`.  Each firing
copies the marking into a list, decrements its pre-places, increments its
post-places, checks those against their bounds and turns the list back into
a tuple, which is the key of the state index.  Confluent rules are settled
on such lists too.  Tests compare the library's whole outcome with this
one: the `Net`, the confluent rules, the `Lts`, its `states`, or the
`BoundExceeded` with its text, kind and counters.
"""

from __future__ import annotations

from typing import Iterable

from chorcheck.model import (
    TAU,
    AndJoin,
    AndSplit,
    ChoreoTask,
    Choreography,
    Collaboration,
    Comm,
    EndEvent,
    EventBased,
    Label,
    MessageEdge,
    Receive,
    Send,
    StartEvent,
    Task,
    Tau,
    XorJoin,
    XorSplit,
    label_key,
)
from chorcheck.semantics import (
    DEFAULT_BOUNDS,
    BoundExceeded,
    ExplorationBounds,
    Lts,
    Net,
    Rule,
    _overflow,
    _sccs,
)


def _node_rules(i: int, node, collab: bool) -> list[tuple[tuple, tuple, Label]]:
    """(pre, post, label) in place names, one per way `node` can fire."""
    if isinstance(node, StartEvent):
        return [((i,), (node.out,), TAU)]
    if isinstance(node, EndEvent):
        return [((node.inp,), (node.completed,), TAU)]
    if isinstance(node, AndSplit):
        return [((node.inp,), node.outs, TAU)]
    if isinstance(node, AndJoin):
        if len(set(node.ins)) < len(node.ins):
            raise ValueError(f"node {node!r} joins an edge with itself")
        return [(node.ins, (node.out,), TAU)]
    if isinstance(node, XorSplit):
        return [((node.inp,), (out,), TAU) for out in node.outs]
    if isinstance(node, XorJoin):
        return [((inp,), (node.out,), TAU) for inp in node.ins]
    if not collab:
        if isinstance(node, ChoreoTask):
            label = Comm(node.sender, node.receiver, node.message)
            return [((node.inp,), (node.out,), label)]
        if isinstance(node, EventBased):
            return [
                ((node.inp,), (b.out,), Comm(b.sender, b.receiver, b.message))
                for b in node.branches
            ]
        raise TypeError(f"node {node!r} is not a choreography element")
    if isinstance(node, Task):
        return [((node.inp,), (node.out,), TAU)]
    if isinstance(node, Send):
        return [((node.inp,), (node.out, node.edge()), TAU)]
    if isinstance(node, Receive):
        edge = node.edge()
        return [((node.inp, edge), (node.out,), edge.label())]
    if isinstance(node, EventBased):
        edges = [b.edge() for b in node.branches]
        return [((node.inp, e), (b.out,), e.label()) for b, e in zip(node.branches, edges)]
    raise TypeError(f"node {node!r} is not a collaboration element")


def compile_net(model, hidden: Iterable[Comm] = ()) -> Net:
    """Lower a choreography or collaboration into its net; the rules whose
    label is in `hidden` are labelled τ."""
    if not isinstance(model, (Choreography, Collaboration)):
        raise TypeError(f"cannot execute {type(model).__name__}")
    collab = isinstance(model, Collaboration)
    hidden = frozenset(hidden)
    if any(not isinstance(l, Comm) for l in hidden):
        raise ValueError("only communication labels can be hidden")
    number: dict = {}
    rules = []
    for i, node in enumerate(model.nodes):
        for pre, post, label in _node_rules(i, node, collab):
            ends = []
            for names in pre, post:
                ends.append(tuple([number.setdefault(name, len(number)) for name in names]))
            rules.append(Rule(i, *ends, TAU if hidden and label in hidden else label))
    names = tuple(number)
    initial = tuple([int(isinstance(name, int)) for name in names])
    return Net(names, initial, tuple(rules))


def confluent_sinks_first(net: Net) -> list[int]:
    """The confluent rules, each after the confluent rules that consume
    what it produces."""
    rules = net.rules
    owner = [-1] * len(net.places)  # a place's one consumer; -2 if it has more
    for i, rule in enumerate(rules):
        for p in rule.pre:
            owner[p] = i if owner[p] == -1 else -2
    silent = [
        i for i, (_, pre, _, label) in enumerate(rules)
        if isinstance(label, Tau) and all(owner[p] == i for p in pre)
    ]
    consumer = {p: j for j, i in enumerate(silent) for p in rules[i].pre}
    graph = [[consumer[p] for p in rules[i].post if p in consumer] for i in silent]
    comp, n_comp = _sccs(graph)
    size = [0] * n_comp
    for c in comp:
        size[c] += 1
    return [
        silent[j] for j in sorted(range(len(silent)), key=comp.__getitem__)
        if size[comp[j]] == 1 and j not in graph[j]
    ]


class _Overflow(Exception):
    """Place `place` would hold `count` tokens, more than its bound."""

    def __init__(self, place: int, count: int):
        self.place = place
        self.count = count


class _Confluence:
    """Takes markings to their representatives.

    `rules` holds `(pre, post)` for each confluent rule, sinks first.  A
    place has at most one confluent consumer, so `feeds(post)` names the
    rules a firing into `post` can enable, and `settle` re-tests only those.
    Every marking passed through is checked against `caps`.
    """

    def __init__(self, rules: list[tuple[tuple, tuple]], caps: list[int]):
        self.caps = caps
        self._consumer = {}
        for pre, post in rules:
            built = (pre, post, self.feeds(post))
            for p in pre:
                self._consumer[p] = built

    def feeds(self, post) -> tuple:
        return tuple([self._consumer[p] for p in post if p in self._consumer])

    def settle(self, m: list, fed: tuple) -> tuple:
        caps = self.caps
        todo = list(fed)
        while todo:
            pre, post, more = todo.pop()
            while True:  # fire the rule as long as it is enabled
                for p in pre:
                    if not m[p]:
                        break
                else:
                    for p in pre:
                        m[p] -= 1
                    for p in post:
                        m[p] += 1
                    for p in post:
                        if m[p] > caps[p]:
                            raise _Overflow(p, m[p])
                    todo += more
                    continue
                break
        return tuple(m)


def generate_lts(
    model,
    bounds: ExplorationBounds = DEFAULT_BOUNDS,
    *,
    reduce: bool = False,
    hidden: Iterable[Comm] = (),
) -> Lts:
    """`semantics.generate_lts` over tuple markings."""
    net = compile_net(model, hidden)
    caps = [
        bounds.max_messages_per_edge if isinstance(name, MessageEdge)
        else bounds.max_tokens_per_edge
        for name in net.places
    ]
    labels = sorted({rule.label for rule in net.rules}, key=label_key)
    rank = {label: r for r, label in enumerate(labels)}
    rules = [(rule.pre, rule.post, rank[rule.label], ()) for rule in net.rules]
    settle = None
    if reduce:
        order = confluent_sinks_first(net)
        confluence = _Confluence([rules[i][:2] for i in order], caps)
        chosen = set(order)
        settle = confluence.settle
        rules = [
            (pre, post, r, confluence.feeds(post))
            for i, (pre, post, r, _) in enumerate(rules) if i not in chosen
        ]
    max_states = bounds.max_states

    states = []
    index = {}
    transitions = []
    src = -1  # nothing expanded until the initial state exists
    try:
        initial = net.initial
        if settle:
            initial = settle(list(initial), confluence.feeds(range(len(caps))))
        states.append(initial)
        index[initial] = 0
        src = 0
        while src < len(states):
            marking = states[src]
            steps = []
            for pre, post, r, fed in rules:
                for p in pre:
                    if not marking[p]:
                        break
                else:
                    nxt = list(marking)
                    for p in pre:
                        nxt[p] -= 1
                    for p in post:
                        nxt[p] += 1
                    for p in post:
                        if nxt[p] > caps[p]:
                            raise _Overflow(p, nxt[p])
                    nxt = settle(nxt, fed) if settle else tuple(nxt)
                    tgt = index.get(nxt)
                    if tgt is None:
                        tgt = len(states)
                        if tgt >= max_states:
                            raise BoundExceeded(
                                "states", f"more than {max_states} reachable states",
                                len(states), len(states) - src - 1,
                            )
                        index[nxt] = tgt
                        states.append(nxt)
                    steps.append((r, tgt))
            for r, tgt in sorted(set(steps)):
                transitions.append((src, labels[r], tgt))
            src += 1
    except _Overflow as err:
        raise _overflow(net.places[err.place], err.count, len(states), src) from None
    return Lts(len(states), 0, tuple(transitions), tuple(states))
