"""Immutable model structures for BPMN choreographies, processes and collaborations.

A model is a flat tuple of node records; each node names the sequence edges it
consumes and produces.  Execution state lives outside the model, as token
markings of the net a model compiles into (see `semantics.Net`).
All types are hashable values, safe to share and to use as dictionary keys.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union


class InputError(ValueError):
    """A model, name or setting given by the user cannot be used as it is.

    Raised only where user input reaches; any other ValueError is a bug.
    """


# ---------------------------------------------------------------------------
# Labels


@dataclass(frozen=True)
class Tau:
    """The silent action."""

    def __str__(self) -> str:
        return "tau"

    __repr__ = __str__


TAU = Tau()


@dataclass(frozen=True)
class Comm:
    """Visible communication label: message sent from `sender` to `receiver`."""

    sender: str
    receiver: str
    message: str

    def __str__(self) -> str:
        return f"{self.sender}->{self.receiver}:{self.message}"


Label = Union[Tau, Comm]


def label_key(label: Label) -> tuple:
    """Total order over labels: tau first, then lexicographic on the triple."""
    if isinstance(label, Tau):
        return (0, "", "", "")
    return (1, label.sender, label.receiver, label.message)


@dataclass(frozen=True, order=True)
class MessageEdge:
    """A message flow between two pools: (sending pool, receiving pool, message)."""

    sender: str
    receiver: str
    message: str

    def __str__(self) -> str:
        return f"{self.sender}->{self.receiver}:{self.message}"

    def label(self) -> Comm:
        return Comm(self.sender, self.receiver, self.message)


# ---------------------------------------------------------------------------
# Nodes
#
# Gateways and events are shared by all three model kinds.  Message-bearing
# process nodes carry a bare message name; in collaborations the composition
# (or the loader) fills in the sender/receiver pools, turning the name into a
# full message edge.


@dataclass(frozen=True)
class StartEvent:
    out: str


@dataclass(frozen=True)
class EndEvent:
    inp: str
    completed: str  # spurious edge collecting tokens of completed instances


@dataclass(frozen=True)
class AndSplit:
    inp: str
    outs: tuple[str, ...]


@dataclass(frozen=True)
class AndJoin:
    ins: tuple[str, ...]
    out: str


@dataclass(frozen=True)
class XorSplit:
    inp: str
    outs: tuple[str, ...]


@dataclass(frozen=True)
class XorJoin:
    ins: tuple[str, ...]
    out: str


@dataclass(frozen=True)
class ChoreoTask:
    """One-way choreography task: atomic exchange of `message` between two roles."""

    inp: str
    out: str
    sender: str
    receiver: str
    message: str


@dataclass(frozen=True)
class Task:
    """Non-communicating task; a pass-through for the token game."""

    inp: str
    out: str


@dataclass(frozen=True)
class Send:
    """Sending node: passes its token on and silently queues `message`."""

    inp: str
    out: str
    message: str
    sender: Optional[str] = None
    receiver: Optional[str] = None

    def edge(self) -> MessageEdge:
        return _require_edge(self)


@dataclass(frozen=True)
class Receive:
    """Receiving node: passes its token on by consuming a queued `message`."""

    inp: str
    out: str
    message: str
    sender: Optional[str] = None
    receiver: Optional[str] = None

    def edge(self) -> MessageEdge:
        return _require_edge(self)


# A task and an intermediate event that send (or receive) share one
# semantics; the subclass only records which notation the model used, so
# the two stay unequal and each reads back as written.


class TaskSnd(Send):
    """Send task."""


class InterSnd(Send):
    """Intermediate message throw event."""


class TaskRcv(Receive):
    """Receive task."""


class InterRcv(Receive):
    """Intermediate message catch event."""


@dataclass(frozen=True)
class Branch:
    """One alternative of an event-based gateway: consuming `message` marks `out`."""

    out: str
    message: str
    sender: Optional[str] = None
    receiver: Optional[str] = None

    def edge(self) -> MessageEdge:
        return _require_edge(self)


@dataclass(frozen=True)
class EventBased:
    """Event-based gateway: a race among at least two message receptions."""

    inp: str
    branches: tuple[Branch, ...]


def _require_edge(node) -> MessageEdge:
    if node.sender is None or node.receiver is None:
        raise ValueError(f"node {node!r} has no resolved message edge")
    return MessageEdge(node.sender, node.receiver, node.message)


ChoreoNode = Union[
    StartEvent, EndEvent, AndSplit, AndJoin, XorSplit, XorJoin, ChoreoTask, EventBased
]
ProcNode = Union[
    StartEvent, EndEvent, AndSplit, AndJoin, XorSplit, XorJoin,
    Task, Send, Receive, EventBased,
]


def branch_key(b: Branch) -> tuple:
    return (b.sender or "", b.receiver or "", b.message, b.out)


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True)
class Choreography:
    nodes: tuple[ChoreoNode, ...]


@dataclass(frozen=True)
class Process:
    nodes: tuple[ProcNode, ...]


@dataclass(frozen=True)
class Pool:
    """A named participant and the process it runs."""

    name: str
    nodes: tuple[ProcNode, ...]


@dataclass(frozen=True)
class Collaboration:
    pools: tuple[Pool, ...]
    nodes: tuple[ProcNode, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        flat = tuple([n for pool in self.pools for n in pool.nodes])
        object.__setattr__(self, "nodes", flat)

    def pool_names(self) -> tuple[str, ...]:
        return tuple([p.name for p in self.pools])


Model = Union[Choreography, Process, Collaboration]


def source_edges(node) -> tuple[str, ...]:
    """Edges produced (marked) by a node, including spurious completed edges."""
    if isinstance(node, StartEvent):
        return (node.out,)
    if isinstance(node, EndEvent):
        return (node.completed,)
    if isinstance(node, (AndSplit, XorSplit)):
        return node.outs
    if isinstance(node, (AndJoin, XorJoin)):
        return (node.out,)
    if isinstance(node, (ChoreoTask, Task, Send, Receive)):
        return (node.out,)
    if isinstance(node, EventBased):
        return tuple([b.out for b in node.branches])
    raise TypeError(f"unknown node {node!r}")


def target_edges(node) -> tuple[str, ...]:
    """Edges consumed by a node."""
    if isinstance(node, StartEvent):
        return ()
    if isinstance(node, EndEvent):
        return (node.inp,)
    if isinstance(node, (AndSplit, XorSplit, EventBased)):
        return (node.inp,)
    if isinstance(node, (AndJoin, XorJoin)):
        return node.ins
    if isinstance(node, (ChoreoTask, Task, Send, Receive)):
        return (node.inp,)
    raise TypeError(f"unknown node {node!r}")


def duplicate_edges(nodes: Iterable) -> tuple[list[str], list[str]]:
    """Edge ids used more than once as a source, resp. as a target."""
    sources: Counter = Counter()
    targets: Counter = Counter()
    for node in nodes:
        sources.update(source_edges(node))
        targets.update(target_edges(node))
    dup_src = sorted(e for e, n in sources.items() if n > 1)
    dup_tgt = sorted(e for e, n in targets.items() if n > 1)
    return dup_src, dup_tgt


# ---------------------------------------------------------------------------
# Communication label and message-edge views


def message_parts(node) -> tuple:
    """The parts of a node that carry a message.

    The node itself for a choreography task, a send or a receive; the
    branches of an event-based gateway; nothing for any other node.  In a
    process, every part that is not a `Send` receives.
    """
    if isinstance(node, (ChoreoTask, Send, Receive)):
        return (node,)
    if isinstance(node, EventBased):
        return node.branches
    return ()


def labels_choreo(ch: Choreography) -> frozenset[Comm]:
    """All communication labels a choreography can ever produce."""
    return frozenset(
        Comm(part.sender, part.receiver, part.message)
        for node in ch.nodes
        for part in message_parts(node)
    )


def labels_collab(c: Collaboration) -> frozenset[Comm]:
    """All communication labels a collaboration can ever produce.

    Only receive-side elements contribute: sends are internal moves, so a
    send-side label could never appear on any transition.
    """
    return frozenset(edge.label() for edge in in_edges(c))


def out_edges(c: Collaboration) -> Counter:
    """Multiset of message edges outgoing from sending elements."""
    return Counter(
        part.edge()
        for node in c.nodes
        for part in message_parts(node)
        if isinstance(part, Send)
    )


def in_edges(c: Collaboration) -> Counter:
    """Multiset of message edges incoming into receiving elements."""
    return Counter(
        part.edge()
        for node in c.nodes
        for part in message_parts(node)
        if not isinstance(part, Send)
    )
