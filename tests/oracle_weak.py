"""Reference implementation of the weak layer and both deciders.

This is the eager, set-based code that `chorcheck.conformance` used before
the weak layer was condensed into bitsets: every silent closure and every
weak successor set is built up front, refinement signatures are frozensets,
and trace conformance walks frozenset product states.  It is quadratic in
the number of states, so tests compare it with the library only on small
systems.  The library must return exactly the same results, counterexample
states and paths included.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from chorcheck.conformance import (
    CHOREOGRAPHY,
    COLLABORATION,
    ConformanceResult,
    DistinguishingTrace,
    NonSimulablePair,
)
from chorcheck.model import TAU, Comm, label_key
from chorcheck.semantics import Lts, hide


# ---------------------------------------------------------------------------
# Weak transition structure


class WeakLts:
    """An LTS enriched with its silent closure and weak visible steps.

    `closure(s)` is the set of states reachable from s by zero or more silent
    transitions.  `weak_succ(s, l)` is the set of states reachable by silent
    moves, one l-transition, then silent moves again.
    """

    def __init__(self, lts: Lts):
        self.lts = lts
        n = lts.n_states
        tau_adj = [[] for _ in range(n)]
        strong = {}
        for src, label, tgt in lts.transitions:
            if label == TAU:
                tau_adj[src].append(tgt)
            else:
                strong.setdefault(label, [[] for _ in range(n)])[src].append(tgt)
        self._closure = [self._reach(s, tau_adj) for s in range(n)]
        self.alphabet = frozenset(strong)
        self._weak = {}
        for label, adj in strong.items():
            succ = []
            for s in range(n):
                acc = set()
                for x in self._closure[s]:
                    for y in adj[x]:
                        acc |= self._closure[y]
                succ.append(frozenset(acc))
            self._weak[label] = succ
        self._enabled = [
            frozenset(l for l in self.alphabet if self._weak[l][s]) for s in range(n)
        ]

    @staticmethod
    def _reach(s: int, adj) -> frozenset[int]:
        seen = {s}
        todo = [s]
        while todo:
            x = todo.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return frozenset(seen)

    @property
    def n_states(self) -> int:
        return self.lts.n_states

    @property
    def initial(self) -> int:
        return self.lts.initial

    def closure(self, s: int) -> frozenset[int]:
        return self._closure[s]

    def weak_succ(self, s: int, label: Comm) -> frozenset[int]:
        succ = self._weak.get(label)
        return succ[s] if succ is not None else frozenset()

    def enabled(self, s: int) -> frozenset[Comm]:
        """Visible labels weakly enabled at s."""
        return self._enabled[s]

    # -- weak trace helpers -------------------------------------------------

    def trace_states(self, trace: Sequence[Comm]) -> frozenset[int]:
        """States reachable from the initial state by weakly executing `trace`."""
        current = self.closure(self.initial)
        for label in trace:
            nxt = set()
            for s in current:
                nxt |= self.weak_succ(s, label)
            current = frozenset(nxt)
            if not current:
                break
        return current

    def admits_trace(self, trace: Sequence[Comm]) -> bool:
        return bool(self.trace_states(trace))


def saturate(lts: Lts) -> WeakLts:
    return WeakLts(lts)


# ---------------------------------------------------------------------------
# Bisimulation conformance


def _refine(wa: WeakLts, wb: WeakLts):
    """Partition refinement over the disjoint union of two weak systems.

    Returns the history of block assignments, one tuple per round, coarsest
    first; the last entry is the stable partition (weak bisimilarity).
    """
    na = wa.n_states
    n = na + wb.n_states
    alphabet = sorted(wa.alphabet | wb.alphabet, key=label_key)

    def weak_succ(u: int, label) -> Iterable[int]:
        if u < na:
            return wa.weak_succ(u, label)
        return (na + v for v in wb.weak_succ(u - na, label))

    def closure(u: int) -> Iterable[int]:
        if u < na:
            return wa.closure(u)
        return (na + v for v in wb.closure(u - na))

    block = [0] * n
    history = [tuple(block)]
    while True:
        new_ids: dict[tuple, int] = {}
        new = []
        for u in range(n):
            sig = frozenset(
                [(None, block[t]) for t in closure(u)]
                + [(l, block[t]) for l in alphabet for t in weak_succ(u, l)]
            )
            key = (block[u], sig)
            if key not in new_ids:
                new_ids[key] = len(new_ids)
            new.append(new_ids[key])
        if new == block:
            return history
        block = new
        history.append(tuple(block))


def _bbc_witness(wa: WeakLts, wb: WeakLts, history) -> NonSimulablePair:
    """Replay the refinement to a locally distinguishable state pair.

    From a non-bisimilar pair, the side separated at round r can always move
    (weakly) into a block the other side cannot reach in one weak step at
    round r-1; following such moves strictly decreases r, and pairs separated
    at round 1 differ on their weakly enabled visible labels.
    """
    na = wa.n_states

    def rank(u: int, v: int) -> int:
        for r, blocks in enumerate(history):
            if blocks[u] != blocks[v]:
                return r
        return -1  # bisimilar

    def moves(u: int, action):
        if action is None:
            return wa.closure(u) if u < na else frozenset(
                na + v for v in wb.closure(u - na)
            )
        if u < na:
            return wa.weak_succ(u, action)
        return frozenset(na + v for v in wb.weak_succ(u - na, action))

    alphabet = sorted(wa.alphabet | wb.alphabet, key=label_key)
    sA, sB = wa.initial, na + wb.initial
    path: list[Comm] = []
    while True:
        r = rank(sA, sB)
        assert r >= 1, "witness requested for a bisimilar pair"
        if r == 1:
            ea = wa.enabled(sA)
            eb = wb.enabled(sB - na)
            offending = min(ea ^ eb, key=label_key)
            side = CHOREOGRAPHY if offending in ea else COLLABORATION
            return NonSimulablePair(
                tuple(path), offending, side, sA, sB - na
            )
        prev = history[r - 1]
        attack = None
        for action in [None] + alphabet:
            blocks_a = {prev[t] for t in moves(sA, action)}
            blocks_b = {prev[t] for t in moves(sB, action)}
            only_a = sorted(blocks_a - blocks_b)
            only_b = sorted(blocks_b - blocks_a)
            if only_a:
                attack = (action, sA, sB, only_a[0])
                break
            if only_b:
                attack = (action, sB, sA, only_b[0])
                break
        assert attack is not None, "separated pair without a distinguishing move"
        action, attacker, defender, target_block = attack
        s_new = min(t for t in moves(attacker, action) if prev[t] == target_block)
        replies = sorted(moves(defender, action))
        t_new = min(replies, key=lambda t: (rank(s_new, t), t))
        if action is not None:
            path.append(action)
        pair = (s_new, t_new) if attacker == sA else (t_new, s_new)
        sA, sB = pair


def check_bbc(
    choreo: Lts, collab: Lts, hidden: Iterable[Comm] = frozenset()
) -> ConformanceResult:
    """Weak bisimulation conformance of `collab` (after hiding) against `choreo`."""
    wa = saturate(choreo)
    wb = saturate(hide(collab, hidden))
    history = _refine(wa, wb)
    final = history[-1]
    if final[wa.initial] == final[wa.n_states + wb.initial]:
        return ConformanceResult("bbc", True)
    return ConformanceResult("bbc", False, _bbc_witness(wa, wb, history))


# ---------------------------------------------------------------------------
# Trace conformance


def _dsucc(w: WeakLts, states: frozenset[int], label: Comm) -> frozenset[int]:
    acc = set()
    for s in states:
        acc |= w.weak_succ(s, label)
    return frozenset(acc)


def _denabled(w: WeakLts, states: frozenset[int]) -> frozenset[Comm]:
    acc = frozenset()
    for s in states:
        acc |= w.enabled(s)
    return acc


def check_tbc(
    choreo: Lts, collab: Lts, hidden: Iterable[Comm] = frozenset()
) -> ConformanceResult:
    """Weak trace conformance of `collab` (after hiding) against `choreo`."""
    wa = saturate(choreo)
    wb = saturate(hide(collab, hidden))
    start = (wa.closure(wa.initial), wb.closure(wb.initial))
    parent: dict[tuple, Optional[tuple]] = {start: None}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        sa, sb = key
        ea = _denabled(wa, sa)
        eb = _denabled(wb, sb)
        if ea != eb:
            offending = min(ea ^ eb, key=label_key)
            side = CHOREOGRAPHY if offending in ea else COLLABORATION
            labels = [offending]
            back = parent[key]
            while back is not None:
                prev_key, label = back
                labels.append(label)
                back = parent[prev_key]
            labels.reverse()
            return ConformanceResult(
                "tbc", False, DistinguishingTrace(tuple(labels), side)
            )
        for label in sorted(ea, key=label_key):
            nxt = (_dsucc(wa, sa, label), _dsucc(wb, sb, label))
            if nxt not in parent:
                parent[nxt] = (key, label)
                queue.append(nxt)
    return ConformanceResult("tbc", True)

