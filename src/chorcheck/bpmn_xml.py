"""Ingestion of BPMN 2.0 XML interchange files into model structures.

Only the executable subset backing the formal semantics is accepted: start
and end events, parallel/exclusive/event-based gateways, plain tasks,
send/receive tasks, message intermediate events, choreography tasks and
sequence/message flows.  Decorative material (diagram interchange, lanes,
documentation, data objects and associations) is skipped silently; any other
executable element is rejected with UnsupportedElementError so that no model
is ever given a semantics the original diagram does not have.

Peculiarities of the lowering:

* end events mint a fresh spurious edge named `<endId>__completed`;
* a two-way choreography task becomes two sequential one-way tasks joined by
  a fresh `<taskId>__link` edge, request first, then response;
* the message-catching elements following an event-based gateway are folded
  into the gateway's branches, so the flow from the gateway into each catch
  disappears with them.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Callable, Optional, Union

from .model import (
    AndJoin,
    AndSplit,
    Branch,
    ChoreoTask,
    Choreography,
    Collaboration,
    EndEvent,
    EventBased,
    InterRcv,
    InterSnd,
    MalformedModelError,
    Pool,
    Process,
    Send,
    StartEvent,
    Task,
    TaskRcv,
    TaskSnd,
    UnsupportedElementError,
    XorJoin,
    XorSplit,
    branch_key,
    message_parts,
    replace,
)

MODEL_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


class BpmnDocument:
    """A parsed BPMN file plus an id index over every element."""

    def __init__(self, root: ET.Element, by_id: dict[str, ET.Element]):
        self.root = root
        self.by_id = by_id

    @classmethod
    def from_text(cls, text: Union[str, bytes]) -> "BpmnDocument":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as err:
            raise MalformedModelError(f"not well-formed XML: {err}") from err
        by_id = {}
        for el in root.iter():
            eid = el.get("id")
            if eid is not None:
                if eid in by_id:
                    raise MalformedModelError(f"duplicate element id {eid!r}")
                by_id[eid] = el
        return cls(root, by_id)

    @classmethod
    def from_path(cls, path) -> "BpmnDocument":
        with open(path, "rb") as fh:
            return cls.from_text(fh.read())

    def message_name(self, message_ref: Optional[str]) -> Optional[str]:
        if message_ref is None:
            return None
        el = self.by_id.get(message_ref)
        if el is None or _local(el.tag) != "message":
            raise MalformedModelError(f"messageRef {message_ref!r} does not name a message")
        return el.get("name") or message_ref

    def find_all(self, tag: str) -> list[ET.Element]:
        return [el for el in self.root.iter() if _local(el.tag) == tag]


# Harmless, purely informational content.
_SKIP = frozenset(
    {
        "documentation", "extensionElements", "laneSet", "lane",
        "dataObject", "dataObjectReference", "dataStoreReference", "dataStore",
        "association", "textAnnotation", "group", "category",
        "ioSpecification", "dataInputAssociation", "dataOutputAssociation",
        "property", "auditing", "monitoring", "resourceRole", "performer",
        "incoming", "outgoing", "sequenceFlow",
    }
)

_LOOP_MARKERS = ("standardLoopCharacteristics", "multiInstanceLoopCharacteristics")


def _has_loop_marker(el: ET.Element) -> bool:
    return any(_local(child.tag) in _LOOP_MARKERS for child in el)


def _event_definitions(el: ET.Element) -> list[str]:
    return [
        _local(child.tag) for child in el if _local(child.tag).endswith("EventDefinition")
    ]


class _FlowGraph:
    """Sequence-flow adjacency inside one process or choreography container."""

    def __init__(self, container: ET.Element):
        self.incoming: dict[str, list[str]] = {}
        self.outgoing: dict[str, list[str]] = {}
        self.target: dict[str, str] = {}
        element_ids = {
            el.get("id")
            for el in container
            if el.get("id") is not None and _local(el.tag) != "sequenceFlow"
        }
        for el in container:
            if _local(el.tag) != "sequenceFlow":
                continue
            fid, src, tgt = el.get("id"), el.get("sourceRef"), el.get("targetRef")
            if fid is None or src is None or tgt is None:
                raise MalformedModelError("sequenceFlow without id/sourceRef/targetRef")
            if src not in element_ids or tgt not in element_ids:
                raise MalformedModelError(f"sequence flow {fid!r} has a dangling endpoint")
            self.outgoing.setdefault(src, []).append(fid)
            self.incoming.setdefault(tgt, []).append(fid)
            self.target[fid] = tgt

    def one_in(self, eid: str, what: str) -> str:
        ins = self.incoming.get(eid, [])
        if len(ins) != 1:
            raise MalformedModelError(f"{what} {eid!r} needs exactly one incoming flow")
        return ins[0]

    def one_out(self, eid: str, what: str) -> str:
        outs = self.outgoing.get(eid, [])
        if len(outs) != 1:
            raise MalformedModelError(f"{what} {eid!r} needs exactly one outgoing flow")
        return outs[0]


def _classify_gateway(flows: _FlowGraph, eid: str, split_cls, join_cls):
    ins = sorted(flows.incoming.get(eid, []))
    outs = sorted(flows.outgoing.get(eid, []))
    if len(ins) == 1 and len(outs) > 1:
        return split_cls(ins[0], tuple(outs))
    if len(ins) > 1 and len(outs) == 1:
        return join_cls(tuple(ins), outs[0])
    raise MalformedModelError(
        f"gateway {eid!r} must either split (1 in, >1 out) or join (>1 in, 1 out)"
    )


def _lower_control(flows: _FlowGraph, el: ET.Element):
    """Start/end events and parallel/exclusive gateways, which lower alike in
    both diagram kinds; None for any other element."""
    tag = _local(el.tag)
    eid = el.get("id", "")
    if tag in ("startEvent", "endEvent") and _event_definitions(el):
        raise UnsupportedElementError(f"{tag} with {_event_definitions(el)[0]}", eid)
    if tag == "startEvent":
        return StartEvent(flows.one_out(eid, "start event"))
    if tag == "endEvent":
        return EndEvent(flows.one_in(eid, "end event"), f"{eid}__completed")
    if tag == "parallelGateway":
        return _classify_gateway(flows, eid, AndSplit, AndJoin)
    if tag == "exclusiveGateway":
        return _classify_gateway(flows, eid, XorSplit, XorJoin)
    return None


def _absorbed(container: ET.Element, flows: _FlowGraph) -> set[str]:
    """Ids of the elements event-based gateways fold into their branches."""
    return {
        flows.target[fid]
        for el in container
        if _local(el.tag) == "eventBasedGateway"
        for fid in flows.outgoing.get(el.get("id"), [])
    }


def _event_branches(
    doc: BpmnDocument,
    flows: _FlowGraph,
    eid: str,
    catches: Callable[[ET.Element], bool],
) -> tuple[str, list[ET.Element]]:
    """Incoming flow and branch targets of an event-based gateway.

    Every target must be an element `catches` accepts; they are returned in
    the order of their flow ids.
    """
    inp = flows.one_in(eid, "event-based gateway")
    out_flows = sorted(flows.outgoing.get(eid, []))
    if len(out_flows) < 2:
        raise MalformedModelError(
            f"event-based gateway {eid!r} needs at least two outgoing flows"
        )
    targets = []
    for fid in out_flows:
        target = doc.by_id.get(flows.target[fid])
        if target is None or not catches(target):
            kind = _local(target.tag) if target is not None else "nothing"
            raise UnsupportedElementError(
                f"event-based gateway branch into {kind}", flows.target[fid]
            )
        targets.append(target)
    return inp, targets


# ---------------------------------------------------------------------------
# Processes and collaborations


# Process elements that send or receive a message, by tag.
_MESSAGE_ELEMENTS = {
    "sendTask": TaskSnd,
    "receiveTask": TaskRcv,
    "intermediateThrowEvent": InterSnd,
    "intermediateCatchEvent": InterRcv,
}


def _is_message_event(el: ET.Element) -> bool:
    return _event_definitions(el) == ["messageEventDefinition"]


def _is_catch(el: ET.Element) -> bool:
    """A receive task or a message catch event: what event-based gateways race."""
    tag = _local(el.tag)
    return tag == "receiveTask" or (tag == "intermediateCatchEvent" and _is_message_event(el))


def _message(doc: BpmnDocument, el: ET.Element) -> Optional[str]:
    """Message name of a send/receive task or message event, None if unstated."""
    if _local(el.tag) in ("sendTask", "receiveTask"):
        return doc.message_name(el.get("messageRef"))
    for child in el:
        if _local(child.tag) == "messageEventDefinition":
            return doc.message_name(child.get("messageRef"))
    return None


def _lower_process(doc: BpmnDocument, container: ET.Element):
    """Lower one process body; returns (nodes, locations of communicating parts).

    Locations map element ids to ("node", index) or ("branch", index, pos) so
    collaboration loading can attach message flows; event-based branch lists
    stay in document order until the caller finalizes them.
    """
    flows = _FlowGraph(container)
    absorbed = _absorbed(container, flows)
    nodes: list = []
    locations: dict[str, tuple] = {}

    def add(node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    for el in container:
        tag = _local(el.tag)
        eid = el.get("id", "")
        if tag in _SKIP or eid in absorbed:
            continue
        node = _lower_control(flows, el)
        if node is not None:
            add(node)
        elif tag == "task":
            if _has_loop_marker(el):
                raise UnsupportedElementError("task with loop marker", eid)
            add(Task(flows.one_in(eid, "task"), flows.one_out(eid, "task")))
        elif tag in _MESSAGE_ELEMENTS:
            if tag.endswith("Task") and _has_loop_marker(el):
                raise UnsupportedElementError(f"{tag} with loop marker", eid)
            if tag.endswith("Event") and not _is_message_event(el):
                defs = _event_definitions(el)
                raise UnsupportedElementError(
                    f"{tag} with {defs[0] if defs else 'no'} definition", eid
                )
            message = _message(doc, el)
            cls = _MESSAGE_ELEMENTS[tag]
            idx = add(cls(flows.one_in(eid, tag), flows.one_out(eid, tag), message))
            locations[eid] = ("node", idx)
        elif tag == "eventBasedGateway":
            inp, targets = _event_branches(doc, flows, eid, _is_catch)
            branches = tuple([
                Branch(flows.one_out(t.get("id"), _local(t.tag)), _message(doc, t))
                for t in targets
            ])
            idx = add(EventBased(inp, branches))
            for pos, target in enumerate(targets):
                locations[target.get("id")] = ("branch", idx, pos)
        else:
            raise UnsupportedElementError(tag, eid)
    return nodes, locations


def _finalize(nodes: list) -> tuple:
    """Freeze lowered nodes, sorting event-based branches canonically."""
    out = []
    for node in nodes:
        if isinstance(node, EventBased):
            node = EventBased(node.inp, tuple(sorted(node.branches, key=branch_key)))
        out.append(node)
    return tuple(out)


def _require_messages(nodes, pool: str):
    if any(part.message is None for node in nodes for part in message_parts(node)):
        raise MalformedModelError(f"communicating element in pool {pool!r} has no message")


def load_process(doc: BpmnDocument, pool_id: str) -> Process:
    """Lower the process of one pool; `pool_id` names a participant or a process."""
    el = doc.by_id.get(pool_id)
    if el is None:
        for part in doc.find_all("participant"):
            if part.get("name") == pool_id:
                el = part
                break
    if el is None:
        raise MalformedModelError(f"no pool or process named {pool_id!r}")
    if _local(el.tag) == "participant":
        ref = el.get("processRef")
        el = doc.by_id.get(ref) if ref else None
    if el is None or _local(el.tag) != "process":
        raise MalformedModelError(f"pool {pool_id!r} has no process")
    nodes, _ = _lower_process(doc, el)
    proc = Process(_finalize(nodes))
    _require_messages(proc.nodes, pool_id)
    return proc


def load_collaboration(doc: BpmnDocument) -> Collaboration:
    """Lower a collaboration: every pool's process plus resolved message flows."""
    collab_el = None
    for el in doc.root:
        if _local(el.tag) == "collaboration":
            collab_el = el
            break
    if collab_el is None:
        raise MalformedModelError("document contains no collaboration")

    pool_nodes: list[list] = []
    pool_names: list[str] = []
    where: dict[str, tuple[int, tuple]] = {}  # element id -> (pool idx, location)
    for part in collab_el:
        if _local(part.tag) != "participant":
            continue
        ref = part.get("processRef")
        proc_el = doc.by_id.get(ref) if ref else None
        if proc_el is None or _local(proc_el.tag) != "process":
            raise MalformedModelError(f"participant {part.get('id')!r} has no process")
        name = part.get("name") or part.get("id")
        nodes, locations = _lower_process(doc, proc_el)
        idx = len(pool_nodes)
        pool_nodes.append(nodes)
        pool_names.append(name)
        for eid, loc in locations.items():
            where[eid] = (idx, loc)
    if not pool_names:
        raise MalformedModelError("collaboration has no participants")

    for mf in collab_el:
        if _local(mf.tag) != "messageFlow":
            continue
        src, tgt = mf.get("sourceRef"), mf.get("targetRef")
        if src not in where or tgt not in where:
            raise MalformedModelError(
                f"message flow {mf.get('id')!r} does not connect communicating elements"
            )
        sender_pool, src_loc = where[src]
        receiver_pool, tgt_loc = where[tgt]
        message = doc.message_name(mf.get("messageRef")) or mf.get("name")

        def patch(pool_idx, loc, expect_send):
            nodes = pool_nodes[pool_idx]
            node = nodes[loc[1]]
            part = node if loc[0] == "node" else node.branches[loc[2]]
            if isinstance(part, Send) != expect_send:
                raise MalformedModelError(
                    f"message flow {mf.get('id')!r} attached to the wrong side"
                )
            part = replace(
                part,
                message=message or part.message,
                sender=pool_names[sender_pool],
                receiver=pool_names[receiver_pool],
            )
            if part.message is None:
                raise MalformedModelError(
                    f"message flow {mf.get('id')!r} carries no message name"
                )
            if loc[0] == "node":
                nodes[loc[1]] = part
            else:
                branches = list(node.branches)
                branches[loc[2]] = part
                nodes[loc[1]] = replace(node, branches=tuple(branches))

        patch(sender_pool, src_loc, expect_send=True)
        patch(receiver_pool, tgt_loc, expect_send=False)

    pools = []
    for name, nodes in zip(pool_names, pool_nodes):
        final = _finalize(nodes)
        if any(part.sender is None for node in final for part in message_parts(node)):
            raise MalformedModelError(
                f"element in pool {name!r} is not connected by any message flow"
            )
        pools.append(Pool(name, final))
    return Collaboration(tuple(pools))


# ---------------------------------------------------------------------------
# Choreographies


def load_choreography(doc: BpmnDocument) -> Choreography:
    """Lower a choreography, splitting two-way tasks into request/response pairs."""
    choreo_el = None
    for el in doc.root:
        if _local(el.tag) == "choreography":
            choreo_el = el
            break
    if choreo_el is None:
        raise MalformedModelError("document contains no choreography")

    participants = {}
    message_flows = {}
    for el in choreo_el:
        tag = _local(el.tag)
        if tag == "participant":
            participants[el.get("id")] = el.get("name") or el.get("id")
        elif tag == "messageFlow":
            message_flows[el.get("id")] = el

    def flow_comm(flow_id: str) -> tuple[str, str, str]:
        mf = message_flows.get(flow_id)
        if mf is None:
            raise MalformedModelError(f"messageFlowRef {flow_id!r} is dangling")
        src, tgt = mf.get("sourceRef"), mf.get("targetRef")
        if src not in participants or tgt not in participants:
            raise MalformedModelError(
                f"message flow {flow_id!r} must connect two participants"
            )
        message = doc.message_name(mf.get("messageRef")) or mf.get("name")
        if message is None:
            raise MalformedModelError(f"message flow {flow_id!r} carries no message")
        return participants[src], participants[tgt], message

    flows = _FlowGraph(choreo_el)

    def split_task(el: ET.Element) -> tuple[str, tuple[str, str, str], Optional[ChoreoTask]]:
        """Lower a choreography task to (out edge, first exchange, response).

        A one-way task has no response.  A two-way task's request leads to
        a `<id>__link` edge, and its response task from there to `out`.
        """
        eid = el.get("id", "")
        out = flows.one_out(eid, "choreography task")
        if _has_loop_marker(el):
            raise UnsupportedElementError("choreography task with loop marker", eid)
        refs = [child.text.strip() for child in el if _local(child.tag) == "messageFlowRef"]
        if not 1 <= len(refs) <= 2:
            raise MalformedModelError(f"choreography task {eid!r} needs 1 or 2 message flows")
        comms = [flow_comm(r) for r in refs]
        if len(comms) == 1:
            return out, comms[0], None
        initiator = participants.get(el.get("initiatingParticipantRef"))
        first = [c for c in comms if c[0] == initiator]
        second = [c for c in comms if c[0] != initiator]
        if len(first) != 1 or len(second) != 1:
            raise MalformedModelError(
                f"two-way task {eid!r} needs one initiating and one return message"
            )
        link = f"{eid}__link"
        return link, first[0], ChoreoTask(link, out, *second[0])

    absorbed = _absorbed(choreo_el, flows)
    nodes: list = []
    for el in choreo_el:
        tag = _local(el.tag)
        eid = el.get("id", "")
        if tag in _SKIP or tag in ("participant", "messageFlow") or eid in absorbed:
            continue
        node = _lower_control(flows, el)
        if node is not None:
            nodes.append(node)
        elif tag == "choreographyTask":
            inp = flows.one_in(eid, "choreography task")
            out, comm, response = split_task(el)
            nodes.append(ChoreoTask(inp, out, *comm))
            if response is not None:
                nodes.append(response)
        elif tag == "eventBasedGateway":
            inp, targets = _event_branches(
                doc, flows, eid, lambda t: _local(t.tag) == "choreographyTask"
            )
            branches = []
            for target in targets:
                out, (s, r, m), response = split_task(target)
                branches.append(Branch(out, m, s, r))
                if response is not None:
                    nodes.append(response)
            nodes.append(EventBased(inp, tuple(sorted(branches, key=branch_key))))
        else:
            raise UnsupportedElementError(tag, eid)
    return Choreography(tuple(nodes))
