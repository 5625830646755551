"""Reference implementation of the token game: the explicit-configuration code.

This is the step relation `chorcheck.semantics` used before models were
compiled into integer nets: configurations are sorted tuples of
(edge, count) pairs plus the indices of start events that already fired,
and each step walks the model's nodes through an `isinstance` ladder,
copying dictionaries as it goes.  Choreographies and collaborations each
have their own step function.  Exploration and hiding are kept with it, so
tests can ask the library for exactly the same `Lts`, state numbering and
transition order included, and for the same kind of `BoundExceeded`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

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
    InterRcv,
    InterSnd,
    Label,
    MessageEdge,
    StartEvent,
    Task,
    TaskRcv,
    TaskSnd,
    XorJoin,
    XorSplit,
)
from chorcheck.semantics import DEFAULT_BOUNDS, ExplorationBounds, Lts


class UnderflowError(Exception):
    """A token decrement was applied to an edge holding no tokens."""


class BoundExceeded(Exception):
    """State-space exploration hit a bound; `kind` names which one."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind} bound exceeded: {detail}")
        self.kind = kind
        self.detail = detail


# ---------------------------------------------------------------------------
# Sparse token markings
#
# A marking maps keys (edge ids, or message edges) to positive token counts;
# absent keys read as zero, so two markings are equal exactly when their
# non-zero entries coincide.


def inc_tokens(state: Mapping, edges: Iterable) -> dict:
    """Return a copy of `state` with each listed edge incremented by one."""
    out = dict(state)
    for e in edges:
        out[e] = out.get(e, 0) + 1
    return out


def dec_tokens(state: Mapping, edges: Iterable) -> dict:
    """Return a copy of `state` with each listed edge decremented by one.

    Raises UnderflowError if any listed edge holds no token; callers are
    expected to check enabledness first.
    """
    out = dict(state)
    for e in edges:
        n = out.get(e, 0)
        if n < 1:
            raise UnderflowError(f"no token to remove from edge {e!r}")
        if n == 1:
            del out[e]
        else:
            out[e] = n - 1
    return out


# ---------------------------------------------------------------------------
# Configurations


def _marking_items(marking: Mapping) -> tuple:
    return tuple(sorted((k, n) for k, n in marking.items() if n))


@dataclass(frozen=True)
class ChoreoConfig:
    """Choreography execution state: sequence-edge marking plus start bookkeeping.

    `started` records indices of start events that already fired; a start
    event fires at most once per execution.
    """

    marking: tuple[tuple[str, int], ...]
    started: tuple[int, ...]

    @staticmethod
    def make(marking: Mapping[str, int], started: Iterable[int]) -> "ChoreoConfig":
        return ChoreoConfig(_marking_items(marking), tuple(sorted(started)))

    def marking_dict(self) -> dict[str, int]:
        return dict(self.marking)


@dataclass(frozen=True)
class CollabConfig:
    """Collaboration execution state: sequence marking, message marking, starts."""

    marking: tuple[tuple[str, int], ...]
    messages: tuple[tuple[MessageEdge, int], ...]
    started: tuple[int, ...]

    @staticmethod
    def make(
        marking: Mapping[str, int],
        messages: Mapping[MessageEdge, int],
        started: Iterable[int],
    ) -> "CollabConfig":
        return CollabConfig(
            _marking_items(marking), _marking_items(messages), tuple(sorted(started))
        )

    def marking_dict(self) -> dict[str, int]:
        return dict(self.marking)

    def messages_dict(self) -> dict[MessageEdge, int]:
        return dict(self.messages)


# ---------------------------------------------------------------------------
# Step relations
#
# The *_moves functions also report which node fired, which the step functions
# drop; tests use the node index to check token-conservation per rule.


def initial_config(model) -> Union[ChoreoConfig, CollabConfig]:
    if isinstance(model, Choreography):
        return ChoreoConfig.make({}, ())
    if isinstance(model, Collaboration):
        return CollabConfig.make({}, {}, ())
    raise TypeError(f"cannot execute {type(model).__name__}")


def choreo_moves(
    ch: Choreography, cfg: ChoreoConfig
) -> list[tuple[int, Label, ChoreoConfig]]:
    """Enabled steps of a choreography as (node index, label, successor)."""
    marking = cfg.marking_dict()
    started = set(cfg.started)
    moves = []

    def emit(idx, label, new_marking, new_started=None):
        moves.append(
            (
                idx,
                label,
                ChoreoConfig.make(
                    new_marking, started if new_started is None else new_started
                ),
            )
        )

    for i, node in enumerate(ch.nodes):
        if isinstance(node, StartEvent):
            if i not in started:
                emit(i, TAU, inc_tokens(marking, [node.out]), started | {i})
        elif isinstance(node, EndEvent):
            if marking.get(node.inp, 0) > 0:
                emit(i, TAU, inc_tokens(dec_tokens(marking, [node.inp]), [node.completed]))
        elif isinstance(node, AndSplit):
            if marking.get(node.inp, 0) > 0:
                emit(i, TAU, inc_tokens(dec_tokens(marking, [node.inp]), node.outs))
        elif isinstance(node, AndJoin):
            if all(marking.get(e, 0) > 0 for e in node.ins):
                emit(i, TAU, inc_tokens(dec_tokens(marking, node.ins), [node.out]))
        elif isinstance(node, XorSplit):
            if marking.get(node.inp, 0) > 0:
                for out in node.outs:
                    emit(i, TAU, inc_tokens(dec_tokens(marking, [node.inp]), [out]))
        elif isinstance(node, XorJoin):
            for inp in node.ins:
                if marking.get(inp, 0) > 0:
                    emit(i, TAU, inc_tokens(dec_tokens(marking, [inp]), [node.out]))
        elif isinstance(node, ChoreoTask):
            if marking.get(node.inp, 0) > 0:
                label = Comm(node.sender, node.receiver, node.message)
                emit(i, label, inc_tokens(dec_tokens(marking, [node.inp]), [node.out]))
        elif isinstance(node, EventBased):
            if marking.get(node.inp, 0) > 0:
                for b in node.branches:
                    label = Comm(b.sender, b.receiver, b.message)
                    emit(i, label, inc_tokens(dec_tokens(marking, [node.inp]), [b.out]))
        else:
            raise TypeError(f"node {node!r} is not a choreography element")
    return moves


def collab_moves(
    c: Collaboration, cfg: CollabConfig
) -> list[tuple[int, Label, CollabConfig]]:
    """Enabled steps of a collaboration as (node index, label, successor)."""
    marking = cfg.marking_dict()
    messages = cfg.messages_dict()
    started = set(cfg.started)
    moves = []

    def emit(idx, label, new_marking, new_messages=None, new_started=None):
        moves.append(
            (
                idx,
                label,
                CollabConfig.make(
                    new_marking,
                    messages if new_messages is None else new_messages,
                    started if new_started is None else new_started,
                ),
            )
        )

    def pass_token(node):
        return inc_tokens(dec_tokens(marking, [node.inp]), [node.out])

    for i, node in enumerate(c.nodes):
        if isinstance(node, StartEvent):
            if i not in started:
                emit(i, TAU, inc_tokens(marking, [node.out]), new_started=started | {i})
        elif isinstance(node, EndEvent):
            if marking.get(node.inp, 0) > 0:
                emit(i, TAU, inc_tokens(dec_tokens(marking, [node.inp]), [node.completed]))
        elif isinstance(node, AndSplit):
            if marking.get(node.inp, 0) > 0:
                emit(i, TAU, inc_tokens(dec_tokens(marking, [node.inp]), node.outs))
        elif isinstance(node, AndJoin):
            if all(marking.get(e, 0) > 0 for e in node.ins):
                emit(i, TAU, inc_tokens(dec_tokens(marking, node.ins), [node.out]))
        elif isinstance(node, XorSplit):
            if marking.get(node.inp, 0) > 0:
                for out in node.outs:
                    emit(i, TAU, inc_tokens(dec_tokens(marking, [node.inp]), [out]))
        elif isinstance(node, XorJoin):
            for inp in node.ins:
                if marking.get(inp, 0) > 0:
                    emit(i, TAU, inc_tokens(dec_tokens(marking, [inp]), [node.out]))
        elif isinstance(node, Task):
            if marking.get(node.inp, 0) > 0:
                emit(i, TAU, pass_token(node))
        elif isinstance(node, (TaskSnd, InterSnd)):
            if marking.get(node.inp, 0) > 0:
                emit(i, TAU, pass_token(node), inc_tokens(messages, [node.edge()]))
        elif isinstance(node, (TaskRcv, InterRcv)):
            edge = node.edge()
            if marking.get(node.inp, 0) > 0 and messages.get(edge, 0) > 0:
                emit(i, edge.label(), pass_token(node), dec_tokens(messages, [edge]))
        elif isinstance(node, EventBased):
            if marking.get(node.inp, 0) > 0:
                for b in node.branches:
                    edge = b.edge()
                    if messages.get(edge, 0) > 0:
                        emit(
                            i,
                            edge.label(),
                            inc_tokens(dec_tokens(marking, [node.inp]), [b.out]),
                            dec_tokens(messages, [edge]),
                        )
        else:
            raise TypeError(f"node {node!r} is not a collaboration element")
    return moves


def choreo_steps(ch: Choreography, cfg: ChoreoConfig) -> list[tuple[Label, ChoreoConfig]]:
    return [(label, nxt) for _, label, nxt in choreo_moves(ch, cfg)]


def collab_steps(c: Collaboration, cfg: CollabConfig) -> list[tuple[Label, CollabConfig]]:
    return [(label, nxt) for _, label, nxt in collab_moves(c, cfg)]


# ---------------------------------------------------------------------------
# LTS generation


def _check_bounds(cfg, bounds: ExplorationBounds):
    for edge, n in cfg.marking:
        if n > bounds.max_tokens_per_edge:
            raise BoundExceeded(
                "tokens", f"edge {edge!r} would hold {n} tokens in {cfg}"
            )
    if isinstance(cfg, CollabConfig):
        for edge, n in cfg.messages:
            if n > bounds.max_messages_per_edge:
                raise BoundExceeded(
                    "messages", f"message edge {edge} would hold {n} messages in {cfg}"
                )


def generate_lts(model, bounds: ExplorationBounds = DEFAULT_BOUNDS) -> Lts:
    """Explore all reachable configurations of a model into an LTS.

    Exploration is breadth-first with canonical step ordering, so two runs on
    the same model and bounds produce identical state numbering and
    transition lists.
    """
    if isinstance(model, Choreography):
        steps = choreo_steps
    elif isinstance(model, Collaboration):
        steps = collab_steps
    else:
        raise TypeError(f"cannot generate an LTS for {type(model).__name__}")

    init = initial_config(model)
    _check_bounds(init, bounds)
    states = [init]
    index = {init: 0}
    transitions = []
    queue = deque([0])
    while queue:
        src = queue.popleft()
        for label, nxt in steps(model, states[src]):
            _check_bounds(nxt, bounds)
            tgt = index.get(nxt)
            if tgt is None:
                if len(states) >= bounds.max_states:
                    raise BoundExceeded(
                        "states", f"more than {bounds.max_states} reachable states"
                    )
                tgt = len(states)
                index[nxt] = tgt
                states.append(nxt)
                queue.append(tgt)
            transitions.append((src, label, tgt))
    return Lts.make(len(states), 0, transitions, tuple(states))


# ---------------------------------------------------------------------------
# Hiding


def hide(lts: Lts, hidden: Iterable[Comm]) -> Lts:
    """Relabel every transition whose label is in `hidden` to tau."""
    hidden = frozenset(hidden)
    if any(not isinstance(l, Comm) for l in hidden):
        raise ValueError("only communication labels can be hidden")
    relabelled = [
        (src, TAU if label in hidden else label, tgt)
        for src, label, tgt in lts.transitions
    ]
    return Lts.make(lts.n_states, lts.initial, relabelled, lts.states)


