"""Seeded random generators for property-style tests.

Everything takes an explicit random.Random so test runs are reproducible.
"""

from __future__ import annotations

import random

from chorcheck import (
    TAU,
    AndJoin,
    AndSplit,
    Branch,
    ChoreoTask,
    Choreography,
    Collaboration,
    Comm,
    EndEvent,
    EventBased,
    InterRcv,
    InterSnd,
    Lts,
    Pool,
    Process,
    StartEvent,
    Task,
    TaskRcv,
    TaskSnd,
    XorJoin,
    XorSplit,
)
from chorcheck.model import branch_key


def matched_process_tuple(rng: random.Random, max_pools: int = 4):
    """Processes whose message names pair into point-to-point edges.

    Every message gets exactly one sending and one receiving pool, so the
    tuple always composes; the shape of each process (task/event senders,
    plain tasks, event-based receive groups) is randomized.
    """
    actions = _matched_actions(rng, max_pools)
    return _processes(rng, actions), [f"p{i}" for i in range(len(actions))]


def matched_tuple_pair(rng: random.Random, max_pools: int = 4):
    """Two matched process tuples over the same pools and messages.

    Each pool of the second tuple keeps the first one's order of sends and
    receives with probability 0.7, and every pool's shape is drawn afresh,
    so the two compositions conform in some draws and not in others.
    """
    actions = _matched_actions(rng, max_pools)
    first = _processes(rng, actions)
    for acts in actions:
        if rng.random() < 0.3:
            rng.shuffle(acts)
    second = [Process(tuple(_chain(rng, f"q{i}", acts))) for i, acts in enumerate(actions)]
    return first, second, [f"p{i}" for i in range(len(actions))]


def xor_tuple_pair(rng: random.Random, max_pools: int = 4):
    """`matched_tuple_pair` with XOR choices and silent loops.

    Each pool of the second tuple is the first one's with probability 0.5
    and is drawn afresh otherwise.
    A run of one or two actions in a pool may become a choice: an XOR split
    whose two branches take the run's two halves (an empty half is a silent
    task) and join again.  A message on the branch not taken is never sent
    or received, so choices can leave partners waiting for ever.  A pool may
    also pass through a silent loop with an exit (XOR join, task, XOR split
    back to the join), or end in a silent loop with no exit, which cycles
    through confluent rules for ever while the other pools move.  No loop
    sends, so every run stays within the default bounds.
    """
    actions = _matched_actions(rng, max_pools)
    first = []
    for i, acts in enumerate(actions):
        rng.shuffle(acts)
        first.append(Process(tuple(_xor_chain(rng, f"q{i}", acts))))
    second = []
    for i, acts in enumerate(actions):
        if rng.random() < 0.5:
            second.append(first[i])
            continue
        if rng.random() < 0.3:
            rng.shuffle(acts)
        second.append(Process(tuple(_xor_chain(rng, f"q{i}", acts))))
    return first, second, [f"p{i}" for i in range(len(actions))]


def _matched_actions(rng: random.Random, max_pools: int) -> list[list]:
    k = rng.randint(2, max_pools)
    n_msgs = rng.randint(1, 6)
    actions = [[] for _ in range(k)]
    for m in range(n_msgs):
        snd = rng.randrange(k)
        rcv = rng.randrange(k - 1)
        if rcv >= snd:
            rcv += 1
        actions[snd].append(("snd", f"m{m}"))
        actions[rcv].append(("rcv", f"m{m}"))
    return actions


def _processes(rng: random.Random, actions: list[list]) -> list[Process]:
    """One process per pool, each with its actions shuffled in place."""
    processes = []
    for i, acts in enumerate(actions):
        rng.shuffle(acts)
        processes.append(Process(tuple(_chain(rng, f"q{i}", acts))))
    return processes


def _chain(rng: random.Random, prefix: str, acts: list):
    counter = [0]

    def edge():
        counter[0] += 1
        return f"{prefix}_{counter[0]}"

    cur = edge()
    nodes = [StartEvent(cur)]
    idx = 0
    while idx < len(acts):
        kind, msg = acts[idx]
        nxt = edge()
        rest_rcv = (
            kind == "rcv"
            and idx + 1 < len(acts)
            and acts[idx + 1][0] == "rcv"
            and rng.random() < 0.3
        )
        if rest_rcv:
            # fold two receives into an event-based race, then rejoin
            o1, o2 = edge(), edge()
            branches = tuple(
                sorted(
                    [Branch(o1, msg), Branch(o2, acts[idx + 1][1])], key=branch_key
                )
            )
            nodes.append(EventBased(cur, branches))
            nodes.append(XorJoin(tuple(sorted((o1, o2))), nxt))
            idx += 2
        else:
            nodes.append(_message_node(rng, kind, cur, nxt, msg))
            idx += 1
        cur = nxt
        if rng.random() < 0.15:
            nxt = edge()
            nodes.append(Task(cur, nxt))
            cur = nxt
    nodes.append(EndEvent(cur, edge()))
    return nodes


def _message_node(rng: random.Random, kind: str, inp: str, out: str, msg: str):
    if kind == "snd":
        return (TaskSnd if rng.random() < 0.7 else InterSnd)(inp, out, msg)
    return (TaskRcv if rng.random() < 0.7 else InterRcv)(inp, out, msg)


def _xor_chain(rng: random.Random, prefix: str, acts: list):
    counter = [0]

    def edge():
        counter[0] += 1
        return f"{prefix}_{counter[0]}"

    def straight(cur, run):
        """Append `run` in sequence from edge `cur` (a silent task if it is
        empty) and return the last edge."""
        if not run:
            nxt = edge()
            nodes.append(Task(cur, nxt))
            return nxt
        for kind, msg in run:
            nxt = edge()
            nodes.append(_message_node(rng, kind, cur, nxt, msg))
            cur = nxt
        return cur

    cur = edge()
    nodes = [StartEvent(cur)]
    idx = 0
    while idx < len(acts):
        if rng.random() < 0.4:
            run = acts[idx:idx + rng.randint(1, 2)]
            cut = rng.randint(0, len(run))
            left, right = edge(), edge()
            nodes.append(XorSplit(cur, tuple(sorted((left, right)))))
            ends = (straight(left, run[:cut]), straight(right, run[cut:]))
            cur = edge()
            nodes.append(XorJoin(tuple(sorted(ends)), cur))
            idx += len(run)
        else:
            cur = straight(cur, acts[idx:idx + 1])
            idx += 1
        if rng.random() < 0.15:
            back, body, after, out = edge(), edge(), edge(), edge()
            nodes.append(XorJoin(tuple(sorted((cur, back))), body))
            nodes.append(Task(body, after))
            nodes.append(XorSplit(after, tuple(sorted((back, out)))))
            cur = out
    if rng.random() < 0.2:
        back, body = edge(), edge()
        nodes.append(XorJoin(tuple(sorted((cur, back))), body))
        nodes.append(Task(body, back))
    else:
        nodes.append(EndEvent(cur, edge()))
    return nodes


def fanin(k: int) -> tuple[Choreography, Collaboration]:
    """The fan-in family: k pools each send one message to a hub.

    The hub and-splits into k parallel receives and joins them again; the
    choreography is the same and-split over the k exchanges.  The
    collaboration conforms to the choreography for every k, while its state
    space grows with every interleaving of the senders.
    """
    outs = tuple(f"c{i}" for i in range(k))
    ins = tuple(f"d{i}" for i in range(k))
    choreography = Choreography(
        (StartEvent("s0"), AndSplit("s0", outs))
        + tuple(ChoreoTask(outs[i], ins[i], f"p{i}", "hub", f"m{i}") for i in range(k))
        + (AndJoin(ins, "s1"), EndEvent("s1", "s2"))
    )
    senders = tuple(
        Pool(f"p{i}", (
            StartEvent(f"a{i}"),
            TaskSnd(f"a{i}", f"b{i}", f"m{i}", f"p{i}", "hub"),
            EndEvent(f"b{i}", f"z{i}"),
        ))
        for i in range(k)
    )
    hub = Pool("hub", (StartEvent("x0"), AndSplit("x0", outs))
               + tuple(TaskRcv(outs[i], ins[i], f"m{i}", f"p{i}", "hub") for i in range(k))
               + (AndJoin(ins, "x1"), EndEvent("x1", "x2")))
    return choreography, Collaboration(senders + (hub,))


# ---------------------------------------------------------------------------
# Random transition systems


def random_lts(
    rng: random.Random,
    max_states: int = 6,
    alphabet=("m1", "m2"),
    tau_weight: float = 0.34,
    max_out: int = 3,
) -> Lts:
    n = rng.randint(1, max_states)
    labels = [Comm("A", "B", a) for a in alphabet]
    transitions = []
    for s in range(n):
        for _ in range(rng.randint(0, max_out)):
            label = TAU if rng.random() < tau_weight else rng.choice(labels)
            transitions.append((s, label, rng.randrange(n)))
    return Lts.make(n, 0, transitions)


def tau_padded(rng: random.Random, lts: Lts) -> Lts:
    """A system weakly bisimilar to `lts`: trailing tau hops and tau self-loops.

    Appending a fresh tau-only state after a transition's target, or adding a
    silent self-loop, never changes weak behaviour.
    """
    n = lts.n_states
    transitions = []
    for src, label, tgt in lts.transitions:
        if rng.random() < 0.3:
            fresh = n
            n += 1
            transitions.append((src, label, fresh))
            transitions.append((fresh, TAU, tgt))
        else:
            transitions.append((src, label, tgt))
    for s in range(lts.n_states):
        if rng.random() < 0.2:
            transitions.append((s, TAU, s))
    return Lts.make(n, lts.initial, transitions)
