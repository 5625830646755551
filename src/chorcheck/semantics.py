"""Token-game execution of choreographies and collaborations, and LTS generation.

Both kinds of diagram share one step relation.  A model is compiled into a
net: numbered places (sequence edges, message edges, and one place per start
event holding a single token until that event fires) and one rule per way a
node can fire, with the places it consumes from and produces into.  Gateways
and events move tokens silently; a choreography task emits its communication
label in one atomic step, while in a collaboration only message *receptions*
are visible: a send silently deposits a message token in the receiver's
queue, and the matching receive (or event-based gateway branch) later
consumes it under the visible label.

`generate_lts` explores the reachable markings breadth-first into a finite
labelled transition system with deterministic state numbering, failing
loudly (BoundExceeded) instead of truncating when a model is unbounded.
With `reduce=True` it gives priority to confluent silent rules (see
`confluent_rules`) and returns a smaller, branching-bisimilar system.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Union

from .model import (
    TAU,
    AndJoin,
    AndSplit,
    ChoreoTask,
    Choreography,
    Collaboration,
    Comm,
    EndEvent,
    EventBased,
    InputError,
    Label,
    MessageEdge,
    Receive,
    Send,
    StartEvent,
    Task,
    XorJoin,
    XorSplit,
    label_key,
    labels_choreo,
    labels_collab,
)


@dataclass(frozen=True)
class ExplorationBounds:
    """Safety limits for state-space exploration; all values must be >= 1."""

    max_tokens_per_edge: int = 2
    max_messages_per_edge: int = 4
    max_states: int = 100_000

    def __post_init__(self):
        if min(self.max_tokens_per_edge, self.max_messages_per_edge, self.max_states) < 1:
            raise InputError("exploration bounds must be positive")


DEFAULT_BOUNDS = ExplorationBounds()


class BoundExceeded(Exception):
    """State-space exploration hit a bound; `kind` names which one.

    `states` counts the states reached when exploration stopped and
    `frontier` those of them still waiting to be expanded.  Under
    `generate_lts(..., reduce=True)` the bounds apply to the reduced
    exploration: the state bound counts reduced states, and a token or
    message bound is only met on markings the reduced exploration reaches.
    Those markings are all reachable, so full exploration then fails a
    bound too; the reverse need not hold.
    """

    def __init__(self, kind: str, detail: str, states: int, frontier: int):
        super().__init__(
            f"{kind} bound exceeded: {detail} "
            f"({states} states reached, {frontier} not yet expanded)"
        )
        self.kind = kind
        self.detail = detail
        self.states = states
        self.frontier = frontier


@dataclass(frozen=True)
class Lts:
    """A finite labelled transition system with canonical transition order.

    Transitions are sorted by (source, label, target) and duplicate-free;
    state 0 is always the initial state for generated systems.  `states`
    optionally carries the marking behind each state index (see `Net`) and
    is ignored by equality.
    """

    n_states: int
    initial: int
    transitions: tuple[tuple[int, Label, int], ...]
    states: Optional[tuple] = field(default=None, compare=False, repr=False)

    @staticmethod
    def make(n_states, initial, transitions, states=None) -> "Lts":
        labels = sorted({label for _, label, _ in transitions}, key=label_key)
        rank = {label: r for r, label in enumerate(labels)}
        ranked = [(src, rank[label], tgt) for src, label, tgt in transitions]
        return Lts.from_ranks(n_states, initial, labels, ranked, states)

    @staticmethod
    def from_ranks(n_states, initial, labels, transitions, states=None) -> "Lts":
        """`make` for transitions `(src, r, tgt)` whose label is `labels[r]`,
        with `labels` distinct and sorted by `label_key`."""
        uniq = sorted(set(transitions))
        for src, _, tgt in uniq:
            if not (0 <= src < n_states and 0 <= tgt < n_states):
                raise ValueError(f"transition endpoint out of range: {(src, tgt)}")
        if not 0 <= initial < n_states:
            raise ValueError("initial state out of range")
        return Lts(n_states, initial, tuple([(s, labels[r], t) for s, r, t in uniq]), states)

    def labels(self) -> frozenset[Comm]:
        return frozenset(l for _, l, _ in self.transitions if isinstance(l, Comm))


# ---------------------------------------------------------------------------
# Nets


class Rule(NamedTuple):
    """One way node `node` can fire: take a token from each place in `pre`,
    put one on each place in `post`, and emit `label`."""

    node: int
    pre: tuple[int, ...]
    post: tuple[int, ...]
    label: Label


@dataclass(frozen=True)
class Net:
    """A model lowered to numbered places and firing rules.

    A place is named by a sequence-edge id (`str`), a `MessageEdge`, or the
    index (`int`) of a start event; a start place holds a token until its
    event fires.  A marking is a tuple of token counts indexed like `places`.
    Rules follow node order, then branch order, which fixes the order in
    which exploration discovers states.
    """

    places: tuple[Union[str, MessageEdge, int], ...]
    initial: tuple[int, ...]
    rules: tuple[Rule, ...]


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
        return [((node.inp, node.edge()), (node.out,), node.edge().label())]
    if isinstance(node, EventBased):
        return [((node.inp, b.edge()), (b.out,), b.edge().label()) for b in node.branches]
    raise TypeError(f"node {node!r} is not a collaboration element")


def compile_net(model) -> Net:
    """Lower a choreography or collaboration into its net."""
    if not isinstance(model, (Choreography, Collaboration)):
        raise TypeError(f"cannot execute {type(model).__name__}")
    collab = isinstance(model, Collaboration)
    number: dict = {}

    # Per-call tuples here and elsewhere are built from lists: a generator
    # gives `tuple` no length hint, so the tuple is resized and later freed
    # onto the free list of another size, which only a full collection
    # empties (`test_repeated_checks_leave_no_memory_behind`).
    def numbered(names) -> tuple[int, ...]:
        return tuple([number.setdefault(name, len(number)) for name in names])

    rules = tuple([
        Rule(i, numbered(pre), numbered(post), label)
        for i, node in enumerate(model.nodes)
        for pre, post, label in _node_rules(i, node, collab)
    ])
    names = tuple(number)
    initial = tuple([int(isinstance(name, int)) for name in names])
    return Net(names, initial, rules)


def confluent_rules(net: Net) -> tuple[int, ...]:
    """Indices of the rules that are silent and sole consumers of their pre-places.

    Once such a rule is enabled no other rule can disable it, and firing it
    disables no other rule, so it commutes with every other step: it is
    τ-confluent.  XOR splits share their pre-place and event-based branches
    are visible, so neither is ever confluent.
    """
    consumers = Counter(p for rule in net.rules for p in rule.pre)
    return tuple([
        i for i, rule in enumerate(net.rules)
        if rule.label == TAU and all(consumers[p] == 1 for p in rule.pre)
    ])


def _fire(marking: tuple[int, ...], pre, post) -> tuple[int, ...]:
    """The marking after a rule fires (`generate_lts` inlines this in its
    main loop, which runs once per transition)."""
    nxt = list(marking)
    for p in pre:
        nxt[p] -= 1
    for p in post:
        nxt[p] += 1
    return tuple(nxt)


# ---------------------------------------------------------------------------
# LTS generation


def generate_lts(
    model, bounds: ExplorationBounds = DEFAULT_BOUNDS, *, reduce: bool = False
) -> Lts:
    """Explore the reachable markings of a model into an LTS.

    Exploration is breadth-first with canonical step ordering, so two runs on
    the same model and bounds produce identical state numbering and
    transition lists.  Only the places a rule produces into can grow, so the
    token and message bounds are checked on those alone.

    With `reduce`, a state whose first enabled confluent rule (in rule
    order) leads to a marking not yet discovered takes that step alone;
    every other state expands in full.  Confluent steps commute with all
    others, and a prioritised step always discovers a new state, so no
    cycle of prioritised steps can postpone another move for ever: the
    result is branching bisimilar to the full LTS and a sub-LTS of it
    (Groote & van de Pol 2000).  The bounds then apply to the reduced
    exploration (see `BoundExceeded`).
    """
    net = compile_net(model)
    caps = [
        bounds.max_messages_per_edge if isinstance(name, MessageEdge)
        else bounds.max_tokens_per_edge
        for name in net.places
    ]
    labels = sorted({rule.label for rule in net.rules}, key=label_key)
    rank = {label: r for r, label in enumerate(labels)}
    rules = [(rule.pre, rule.post, rank[rule.label]) for rule in net.rules]
    prio = [rules[i] for i in confluent_rules(net)] if reduce else []
    max_states = bounds.max_states

    states = [net.initial]
    index = {net.initial: 0}
    transitions = []
    src = 0
    while src < len(states):
        marking = states[src]
        todo = rules
        for pre, post, r in prio:
            if all(marking[p] for p in pre):
                if _fire(marking, pre, post) not in index:
                    todo = ((pre, post, r),)
                break
        steps = []
        for pre, post, r in todo:
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
                        raise _overflow(net.places[p], nxt[p], len(states), src)
                nxt = tuple(nxt)
                tgt = index.get(nxt)
                if tgt is None:
                    tgt = len(states)
                    if tgt >= max_states:
                        raise BoundExceeded(
                            "states", f"more than {max_states} reachable states",
                            tgt, tgt - src - 1,
                        )
                    index[nxt] = tgt
                    states.append(nxt)
                steps.append((r, tgt))
        for r, tgt in sorted(set(steps)):
            transitions.append((src, labels[r], tgt))
        src += 1
    return Lts(len(states), 0, tuple(transitions), tuple(states))


def _overflow(place, n: int, reached: int, src: int) -> BoundExceeded:
    frontier = reached - src - 1
    if isinstance(place, MessageEdge):
        return BoundExceeded(
            "messages", f"message edge {place} would hold {n} messages", reached, frontier
        )
    return BoundExceeded("tokens", f"edge {place!r} would hold {n} tokens", reached, frontier)


# ---------------------------------------------------------------------------
# Hiding


def hide(lts: Lts, hidden: Iterable[Comm]) -> Lts:
    """Relabel every transition whose label is in `hidden` to tau.

    Transitions keep their canonical order: only the run of a source that
    has a hidden label changes, its tau moves (old and new, merged) first.
    """
    hidden = frozenset(hidden)
    if any(not isinstance(l, Comm) for l in hidden):
        raise ValueError("only communication labels can be hidden")
    if not hidden:
        return lts
    out = []
    changed = False
    for src, run in groupby(lts.transitions, key=itemgetter(0)):
        run = list(run)
        if any(label in hidden for _, label, _ in run):
            changed = True
            taus = {tgt for _, label, tgt in run if label == TAU or label in hidden}
            out += [(src, TAU, tgt) for tgt in sorted(taus)]
            out += [t for t in run if t[1] != TAU and t[1] not in hidden]
        else:
            out += run
    if not changed:
        return lts
    return Lts(lts.n_states, lts.initial, tuple(out), lts.states)


def hiding_set(ch: Choreography, c: Collaboration) -> frozenset[Comm]:
    """Collaboration labels that the choreography does not talk about."""
    return labels_collab(c) - labels_choreo(ch)
