"""Composing named processes into a collaboration, and well-composedness checks.

Message matching is by name only: the pool that sends message `m` and the pool
that receives it are paired into a message edge (sender, receiver, m).  A
message name claimed twice for the same role (two senders, or two receivers,
even inside a single pool) is a clash, a name claimed for only one role is an
unmatched send/receive, and a name sent and received by the same pool is a
self-message.  All problems found are reported together rather than stopping
at the first.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .model import (
    Collaboration,
    EventBased,
    InputError,
    Pool,
    Process,
    Send,
    Value,
    branch_key,
    duplicate_edges,
    in_edges,
    message_parts,
    out_edges,
    replace,
)


class MessageNameClash(Value):
    """A message name bound to one role (send or receive) in several places."""

    message: str
    role: str  # "send" or "receive"
    locations: tuple[tuple[str, int], ...]  # (participant, node index) pairs

    def __str__(self) -> str:
        where = ", ".join(f"{p}[{i}]" for p, i in self.locations)
        return f"message {self.message!r} has clashing {self.role}s at {where}"


class SelfMessage(Value):
    """A message whose sender and receiver are the same pool."""

    message: str
    participant: str

    def __str__(self) -> str:
        return f"message {self.message!r} is sent by {self.participant!r} to itself"


class UnmatchedSend(Value):
    """A sent message with no matching reception."""

    message: str
    sender: str
    receiver: Optional[str] = None

    def __str__(self) -> str:
        return f"message {self.message!r} sent by {self.sender!r} is never received"


class UnmatchedReceive(Value):
    """A received message with no matching send."""

    message: str
    receiver: str
    sender: Optional[str] = None

    def __str__(self) -> str:
        return f"message {self.message!r} expected by {self.receiver!r} is never sent"


CompositionIssue = Union[MessageNameClash, SelfMessage, UnmatchedSend, UnmatchedReceive]


class CompositionError(Exception):
    """Raised when processes cannot be composed; carries every issue found."""

    def __init__(self, issues: Sequence[CompositionIssue]):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


def _issue_key(issue: CompositionIssue) -> tuple:
    order = {MessageNameClash: 0, SelfMessage: 1, UnmatchedSend: 2, UnmatchedReceive: 3}
    return (order[type(issue)], issue.message)


def _message_map(processes, names, role: str):
    """Message name -> participant for one role ("send" or "receive"), and a
    clash for each name claimed by more than one node."""
    occ: dict[str, list[tuple[str, int]]] = {}
    want_send = role == "send"
    for proc, name in zip(processes, names):
        for i, node in enumerate(proc.nodes):
            for part in message_parts(node):
                if isinstance(part, Send) == want_send:
                    occ.setdefault(part.message, []).append((name, i))
    clashes = [
        MessageNameClash(m, role, tuple(locs))
        for m, locs in sorted(occ.items())
        if len(locs) > 1
    ]
    return {m: locs[0][0] for m, locs in occ.items()}, clashes


def _role_map(processes, names, role: str) -> dict[str, str]:
    _check_shapes(processes, names)
    mapping, clashes = _message_map(processes, names, role)
    if clashes:
        raise CompositionError(clashes)
    return mapping


def snd_map(processes: Sequence[Process], names: Sequence[str]) -> dict[str, str]:
    """Message name -> sending participant, over all sending tasks and events."""
    return _role_map(processes, names, "send")


def rcv_map(processes: Sequence[Process], names: Sequence[str]) -> dict[str, str]:
    """Message name -> receiving participant, over receives and gateway branches."""
    return _role_map(processes, names, "receive")


def _check_shapes(processes, names):
    if len(processes) != len(names):
        raise InputError("processes and participant names must have equal length")
    if len(set(names)) != len(names):
        raise InputError("participant names must be pairwise distinct")


def _resolve(node, snd: dict, rcv: dict):
    """Rewrite one node, attaching sender/receiver pools to its message names."""
    def attach(part):
        return replace(part, sender=snd[part.message], receiver=rcv[part.message])

    if isinstance(node, EventBased):
        branches = sorted(map(attach, node.branches), key=branch_key)
        return replace(node, branches=tuple(branches))
    return attach(node) if message_parts(node) else node


def compose(processes: Sequence[Process], names: Sequence[str]) -> Collaboration:
    """Compose processes into a collaboration, one pool per participant name.

    Raises CompositionError when the message names do not pair up into
    point-to-point edges, and InputError on malformed input (length mismatch,
    duplicate participant names, edge ids shared across processes).
    """
    _check_shapes(processes, names)
    all_nodes = [n for p in processes for n in p.nodes]
    dup_src, dup_tgt = duplicate_edges(all_nodes)
    if dup_src or dup_tgt:
        dup = (dup_src + dup_tgt)[0]
        raise InputError(f"edge id {dup!r} is used by more than one process")

    snd, send_clashes = _message_map(processes, names, "send")
    rcv, receive_clashes = _message_map(processes, names, "receive")
    issues: list[CompositionIssue] = send_clashes + receive_clashes
    if not issues:
        for m in sorted(snd):
            if m not in rcv:
                issues.append(UnmatchedSend(m, snd[m]))
            elif snd[m] == rcv[m]:
                issues.append(SelfMessage(m, snd[m]))
        for m in sorted(rcv):
            if m not in snd:
                issues.append(UnmatchedReceive(m, rcv[m]))
    if issues:
        raise CompositionError(sorted(issues, key=_issue_key))

    pools = tuple([
        Pool(name, tuple([_resolve(n, snd, rcv) for n in proc.nodes]))
        for proc, name in zip(processes, names)
    ])
    return Collaboration(pools)


def well_composed(c: Collaboration) -> list[CompositionIssue]:
    """Check that sends and receives pair up; an empty list means well-composed.

    A collaboration is well-composed when its outgoing and incoming message
    edge multisets coincide and no edge connects a pool to itself.
    """
    issues: list[CompositionIssue] = []
    outs = out_edges(c)
    ins = in_edges(c)
    for edge in sorted(set(outs) | set(ins)):
        if edge.sender == edge.receiver:
            issues.append(SelfMessage(edge.message, edge.sender))
            continue
        excess = outs[edge] - ins[edge]
        if excess > 0:
            issues.extend(
                [UnmatchedSend(edge.message, edge.sender, edge.receiver)] * excess
            )
        elif excess < 0:
            issues.extend(
                [UnmatchedReceive(edge.message, edge.receiver, edge.sender)] * -excess
            )
    return sorted(issues, key=_issue_key)
