"""Immutable model structures for BPMN choreographies, processes and collaborations.

A model is a flat tuple of node records; each node names the sequence edges it
consumes and produces.  Execution state lives outside the model, as token
markings of the net a model compiles into (see `semantics.Net`).
All types are hashable values, safe to share and to use as dictionary keys.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence, Union


class InputError(ValueError):
    """A model, name or setting given by the user cannot be used as it is.

    Raised only where user input reaches; any other ValueError is a bug.
    The text, `.aut` and BPMN readers' errors are subclasses.
    """


class UnsupportedElementError(InputError):
    """The document uses a BPMN element outside the supported subset."""

    def __init__(self, kind: str, element_id: str = ""):
        at = f" (id {element_id!r})" if element_id else ""
        super().__init__(f"unsupported BPMN element {kind!r}{at}")
        self.kind = kind


class MalformedModelError(InputError):
    """The document is structurally broken (dangling flows, missing parts)."""


# ---------------------------------------------------------------------------
# Values


class Value:
    """Base of the immutable value classes; each behaves as a frozen dataclass.

    Fields are the class annotations, in order, after the parent's; a class
    attribute of the same name is the default.  A class that declares fields,
    or derives from `Value` itself, gets one `exec` (a fifth of the cost of
    `dataclasses`) for an `__init__` calling any `__post_init__`, an `__eq__`
    true only within the exact same class (`TaskSnd` != `InterSnd`) and a
    `__hash__` over the fields; `order=True` adds `<`, `<=`, `>`, `>=`, and
    fields in `uncompared` are left out of these and of `repr`.  `__init__`
    sets fields through `object.__setattr__`, never the instance dict, which
    keeps CPython's inline attribute values.
    """

    _fields: tuple[str, ...] = ()  # every field, in `__init__` order
    _compared: tuple[str, ...] = ()  # those in equality, hash, order and repr

    def __init_subclass__(cls, uncompared=(), order=False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        if not own and Value not in cls.__bases__:
            return
        cls._fields = fields = cls._fields + tuple([f for f in own if f not in cls._fields])
        cls._compared = tuple([f for f in fields if f not in uncompared])
        params = "".join([f", {f}=_cls.{f}" if hasattr(cls, f) else f", {f}" for f in fields])
        body = "".join([f"\n    _set(self, {f!r}, {f})" for f in fields])
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        key = "({})".format("".join([f"{{0}}.{f}, " for f in cls._compared]))
        ops = {"eq": "=="} | (dict(lt="<", le="<=", gt=">", ge=">=") if order else {})
        source = [f"def __init__(self{params}):{body or ' pass'}",
                  f"def __hash__(self): return hash({key.format('self')})"]
        source += [f"def __{name}__(self, other): return {key.format('self')} {op} "
                   f"{key.format('other')} if other.__class__ is self.__class__ "
                   "else NotImplemented" for name, op in ops.items()]
        methods = {}
        exec("\n".join(source), {"_set": object.__setattr__, "_cls": cls}, methods)
        for name, method in methods.items():
            if name not in cls.__dict__:
                method.__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, method)

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._compared])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(value: Value, **changes) -> Value:
    """A copy of `value` with the named fields changed, like `dataclasses.replace`."""
    for f in value._fields:
        changes.setdefault(f, getattr(value, f))
    return value.__class__(**changes)


# ---------------------------------------------------------------------------
# Labels


class Tau(Value):
    """The silent action."""

    def __str__(self) -> str:
        return "tau"

    __repr__ = __str__


TAU = Tau()


class Comm(Value):
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


class MessageEdge(Value, order=True):
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


class StartEvent(Value):
    out: str


class EndEvent(Value):
    inp: str
    completed: str  # spurious edge collecting tokens of completed instances


class AndSplit(Value):
    inp: str
    outs: tuple[str, ...]


class AndJoin(Value):
    ins: tuple[str, ...]
    out: str


class XorSplit(Value):
    inp: str
    outs: tuple[str, ...]


class XorJoin(Value):
    ins: tuple[str, ...]
    out: str


class ChoreoTask(Value):
    """One-way choreography task: atomic exchange of `message` between two roles."""

    inp: str
    out: str
    sender: str
    receiver: str
    message: str


class Task(Value):
    """Non-communicating task; a pass-through for the token game."""

    inp: str
    out: str


class Send(Value):
    """Sending node: passes its token on and silently queues `message`."""

    inp: str
    out: str
    message: str
    sender: Optional[str] = None
    receiver: Optional[str] = None

    def edge(self) -> MessageEdge:
        return MessageEdge(*message_key(self))


class Receive(Value):
    """Receiving node: passes its token on by consuming a queued `message`."""

    inp: str
    out: str
    message: str
    sender: Optional[str] = None
    receiver: Optional[str] = None

    def edge(self) -> MessageEdge:
        return MessageEdge(*message_key(self))


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


class Branch(Value):
    """One alternative of an event-based gateway: consuming `message` marks `out`."""

    out: str
    message: str
    sender: Optional[str] = None
    receiver: Optional[str] = None

    def edge(self) -> MessageEdge:
        return MessageEdge(*message_key(self))


class EventBased(Value):
    """Event-based gateway: a race among at least two message receptions."""

    inp: str
    branches: tuple[Branch, ...]


def message_key(node) -> tuple:
    """The `(sender, receiver, message)` of a part's resolved message edge."""
    if node.sender is None or node.receiver is None:
        raise ValueError(f"node {node!r} has no resolved message edge")
    return (node.sender, node.receiver, node.message)


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


class Choreography(Value):
    nodes: tuple[ChoreoNode, ...]


class Process(Value):
    nodes: tuple[ProcNode, ...]


class Pool(Value):
    """A named participant and the process it runs."""

    name: str
    nodes: tuple[ProcNode, ...]


class Collaboration(Value):
    """Pools side by side; `nodes`, derived and not a field, is all their nodes."""

    pools: tuple[Pool, ...]

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


def duplicate_edges(nodes: Sequence) -> tuple[list[str], list[str]]:
    """Edge ids used more than once as a source, resp. as a target."""
    sources = [e for node in nodes for e in source_edges(node)]
    targets = [e for node in nodes for e in target_edges(node)]
    return _repeated(sources), _repeated(targets)


def _repeated(items: list[str]) -> list[str]:
    """The items that occur more than once, sorted; counted only if any do."""
    if len(set(items)) == len(items):
        return []
    return sorted(e for e, n in Counter(items).items() if n > 1)


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


def message_keys(model, received: bool) -> set[tuple]:
    """The `(sender, receiver, message)` of `model`'s message parts; with
    `received`, of its receptions only, whose edges must be resolved."""
    parts = [part for node in model.nodes for part in message_parts(node)]
    if not received:
        return {(part.sender, part.receiver, part.message) for part in parts}
    return {message_key(part) for part in parts if not isinstance(part, Send)}


def labels_choreo(ch: Choreography) -> frozenset[Comm]:
    """All communication labels a choreography can ever produce."""
    return frozenset([Comm(*key) for key in message_keys(ch, False)])


def labels_collab(c: Collaboration) -> frozenset[Comm]:
    """All communication labels a collaboration can ever produce.

    Only receive-side elements contribute: sends are internal moves, so a
    send-side label could never appear on any transition.
    """
    return frozenset([Comm(*key) for key in message_keys(c, True)])


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
