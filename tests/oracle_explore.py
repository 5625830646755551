"""Reference exploration: the tuple-marking loop `chorcheck.semantics` ran
before markings were packed into integers.

Markings are tuples of token counts indexed like `Net.places`.  Each firing
copies the marking into a list, decrements its pre-places, increments its
post-places, checks those against their bounds and turns the list back into
a tuple, which is the key of the state index.  Confluent rules, chosen by
the same criterion as `semantics.confluent_rules` and computed here with a
`Counter`, are settled on such lists too.  Tests compare the library's
whole outcome with this one: the `Lts`, its `states`, or the
`BoundExceeded` with its text, kind and counters.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from chorcheck.model import TAU, Comm, MessageEdge, label_key
from chorcheck.semantics import (
    DEFAULT_BOUNDS,
    BoundExceeded,
    ExplorationBounds,
    Lts,
    Net,
    _overflow,
    _sccs,
    compile_net,
)


def confluent_sinks_first(net: Net) -> list[int]:
    """The confluent rules, each after the confluent rules that consume
    what it produces."""
    consumers = Counter(p for rule in net.rules for p in rule.pre)
    silent = [
        i for i, rule in enumerate(net.rules)
        if rule.label == TAU and all(consumers[p] == 1 for p in rule.pre)
    ]
    consumer = {p: j for j, i in enumerate(silent) for p in net.rules[i].pre}
    graph = [[consumer[p] for p in net.rules[i].post if p in consumer] for i in silent]
    comp, _ = _sccs(graph)
    size = Counter(comp)
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
