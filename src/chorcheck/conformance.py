"""Conformance of a collaboration against a choreography over their LTSs.

Two relations are decided, both insensitive to silent moves:

* bisimulation conformance ("bbc"): the two systems must simulate each other
  step by step, where a visible step may be padded with any number of silent
  moves.  Decided as strong bisimilarity of the weak (saturated) systems via
  partition refinement; a failure yields a witness path to a state pair where
  one side weakly enables a visible label the other cannot match.
* trace conformance ("tbc"): the two systems must admit exactly the same weak
  sequences of visible labels.  Both systems are determinized over weak steps
  and walked in lockstep; since trace sets here are prefix-closed, the first
  product state with differing enabled-label sets yields a shortest
  distinguishing trace.

Both decide on one weak system over the disjoint union of the two LTSs
(`WeakPair`, built by `saturate_pair` and shareable between the checkers):
the silent graph condensed into strongly connected components, closures as
int bitsets, and the strong visible transitions.  No weak step is stored: one
is formed when it is taken, as the union of the closures of its strong
targets, and both checkers form unions of these bitsets as they go.  When
the union has no silent transition, as for most representatives `check`
explores, no silent graph is built: weak steps are the strong steps, and
refinement keys each state by the sparse set of (label, block) pairs of its
strong steps instead of a bitmask.

Weak bisimilarity implies weak trace equivalence, so a caller deciding both
can decide BBC first and, when it holds, skip the TBC search.

Extra collaboration labels are expected to be hidden (relabelled to tau) by
the caller before or via the `hidden` argument, so the checkers also work on
transition systems read back from `.aut` files.
"""

from __future__ import annotations

import functools
import re

from collections import deque
from typing import Iterable, Iterator, Optional, Sequence, Union

from .model import TAU, Comm, InputError, Label, Tau, Value, label_key
from .semantics import Lts, _sccs, hide


# ---------------------------------------------------------------------------
# Weak transition structure


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bitset(members: Iterable[int], n: int) -> int:
    """The bitset of `members`, each below `n`, built in linear time: a sum
    of `1 << x` copies an ever longer int at every step."""
    bits = bytearray((n + 7) // 8)
    for x in members:
        bits[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(bits, "little")


class WeakLts:
    """An LTS enriched with its silent closure and weak visible steps.

    `closure(s)` is the set of states reachable from s by zero or more silent
    transitions.  `weak_succ(s, l)` is the set of states reachable by silent
    moves, one l-transition, then silent moves again.

    Sets of states are stored as int bitsets and decoded on demand.
    `_comp[s]` is the silent strongly connected component of s, and
    `_below[c]` the other components c has a silent transition into.
    `_cl[s]` is the closure of s.  `_strong[l]` maps each state x with an
    outgoing l-transition to its l-targets, and `_src[l]`, the bitset of
    those states, is built on first use, as a holding bisimulation check
    does not need it.  Weak steps are not stored but formed when taken
    (`_post`), from `_strong` and `_cl`.

    A system without silent transitions, as are most that `check` explores,
    builds no silent graph: `_comp` is None, the closure of s is `1 << s`,
    made on demand, and weak steps are strong steps, which refinement reads
    from `_moves`.
    """

    def __init__(self, lts: Lts):
        self.lts = lts
        n = lts.n_states
        silent: list[tuple[int, int]] = []
        strong: dict[Comm, dict[int, list[int]]] = {}
        for src, label, tgt in lts.transitions:
            if isinstance(label, Tau):
                silent.append((src, tgt))
            else:
                strong.setdefault(label, {}).setdefault(src, []).append(tgt)
        self.alphabet = frozenset(strong)
        self._strong = strong
        if not silent:
            self._comp = None
            self._cl = _Singletons()
            return
        tau_adj: list[list[int]] = [[] for _ in range(n)]
        for src, tgt in silent:
            tau_adj[src].append(tgt)
        self._comp, n_comp = _sccs(tau_adj)
        below: list[set[int]] = [set() for _ in range(n_comp)]
        for s, targets in enumerate(tau_adj):
            below[self._comp[s]].update(self._comp[t] for t in targets)
        self._below = [b - {c} for c, b in enumerate(below)]
        self._cl = self._over_closure([1 << s for s in range(n)])

    @functools.cached_property
    def _src(self) -> dict[Comm, int]:
        """The bitset of the states with an l-transition; built on first use."""
        return {l: _bitset(adj, self.n_states) for l, adj in self._strong.items()}

    @functools.cached_property
    def _moves(self) -> list[tuple[list[int], list[int]]]:
        """Each state's strong steps as the list of their label numbers, one
        per label in `_strong` order, and the list of their targets; built
        on first use."""
        n = self.n_states
        labels: list[list[int]] = [[] for _ in range(n)]
        targets: list[list[int]] = [[] for _ in range(n)]
        for number, adj in enumerate(self._strong.values()):
            for x, ys in adj.items():
                labels[x] += [number] * len(ys)
                targets[x] += ys
        return list(zip(labels, targets))

    def _over_closure(self, seed: list[int]) -> list[int]:
        """For every state, the OR of `seed` over its silent closure.

        One pass over the components suffices, since those below a
        component come before it.
        """
        acc = [0] * len(self._below)
        for s, c in enumerate(self._comp):
            acc[c] |= seed[s]
        for c, below in enumerate(self._below):
            for d in below:
                acc[c] |= acc[d]
        return [acc[c] for c in self._comp]

    @property
    def n_states(self) -> int:
        return self.lts.n_states

    @property
    def initial(self) -> int:
        return self.lts.initial

    def closure(self, s: int) -> frozenset[int]:
        return frozenset(_bits(self._cl[s]))

    def weak_succ(self, s: int, label: Comm) -> frozenset[int]:
        return frozenset(_bits(self._post(self._cl[s], label)))

    def enabled(self, s: int) -> frozenset[Comm]:
        """Visible labels weakly enabled at s."""
        cl = self._cl[s]
        return frozenset(l for l, src in self._src.items() if cl & src)

    def _post(self, states: int, label: Comm) -> int:
        """Weak `label` successors of a silently closed bitset of states: the
        closures of the members' strong `label` targets, ORed as they come."""
        acc = 0
        cl = self._cl
        adj = self._strong.get(label)
        for x in _bits(states & self._src.get(label, 0)):
            for y in adj[x]:
                acc |= cl[y]
        return acc

    def _signatures(self, block: Sequence[int], alphabet: Sequence[Comm]) -> Iterable:
        """Every state's signature for one round of partition refinement.

        `block` numbers this system's states and `alphabet` holds its
        labels.  With silent steps, a signature is one int: bit b is set
        when the silent closure meets block b, and bit `(i + 1)·nb + b` when
        a weak step by the i-th label reaches block b.  Without, the closure
        is the state alone, and the signature is the frozenset of (label
        number, block) pairs of its strong steps, yielded one at a time, so
        a caller that keeps only distinct keys never holds them all.  Either
        way two states of one block get equal signatures exactly when they
        weakly reach the same blocks by the same labels.
        """
        if self._comp is None:
            at = block.__getitem__
            return (frozenset(zip(labels, map(at, ys))) for labels, ys in self._moves)
        nb = max(block) + 1
        shift = {l: (i + 1) * nb for i, l in enumerate(alphabet)}
        reach = self._over_closure([1 << b for b in block])
        visible = [0] * len(block)
        for label, adj in self._strong.items():
            for x, targets in adj.items():
                for y in targets:
                    visible[x] |= reach[y] << shift[label]
        # Rebinding frees the unclosed list and `reach` is ORed in place, so
        # fewer union-wide lists of masks are alive at once.
        visible = self._over_closure(visible)
        for s, r in enumerate(reach):
            visible[s] |= r
        return visible


class _Singletons:
    """The closures of a system without silent steps: s reaches only s."""

    __slots__ = ()

    def __getitem__(self, s: int) -> int:
        return 1 << s


def saturate(lts: Lts) -> WeakLts:
    return WeakLts(lts)


class WeakPair(WeakLts):
    """The weak system over the disjoint union of a choreography and a
    collaboration: the choreography's states first, then the collaboration's
    shifted by `split`.  `initials` holds both initial states.  No silent or
    visible step crosses from one side to the other.
    """

    def __init__(self, choreo: Lts, collab: Lts):
        self.split = n = choreo.n_states
        shifted = tuple([(s + n, l, t + n) for s, l, t in collab.transitions])
        super().__init__(Lts(n + collab.n_states, choreo.initial, choreo.transitions + shifted))
        self.initials = (choreo.initial, n + collab.initial)


def saturate_pair(choreo: Lts, collab: Lts, hidden: Iterable[Comm] = frozenset()) -> WeakPair:
    """The weak pair of `choreo` and `collab`, `hidden` made silent in `collab`."""
    return WeakPair(choreo, hide(collab, hidden))


# ---------------------------------------------------------------------------
# Results and counterexamples

CHOREOGRAPHY = "choreography"
COLLABORATION = "collaboration"


class DistinguishingTrace(Value):
    """A visible trace admitted by `side` only; the last label is the mismatch."""

    labels: tuple[Comm, ...]
    side: str


class NonSimulablePair(Value):
    """A matched play leading to a pair of states one side cannot simulate.

    Weakly executing `path` can bring the choreography to `choreo_state` and
    the collaboration to `collab_state`; there, `offending` is weakly enabled
    on `side` and not on the other.
    """

    path: tuple[Comm, ...]
    offending: Comm
    side: str
    choreo_state: int
    collab_state: int


Counterexample = Union[DistinguishingTrace, NonSimulablePair]


class ConformanceResult(Value):
    relation: str  # "bbc" or "tbc"
    verdict: bool
    counterexample: Optional[Counterexample] = None


# ---------------------------------------------------------------------------
# Bisimulation conformance


class InternalError(RuntimeError):
    """A checker broke one of its own invariants: a bug, not bad input."""


def _refine(w: WeakLts):
    """Partition refinement of a weak system, such as a `WeakPair`.

    Returns the history of block assignments, one tuple per round, coarsest
    first; the last entry is the stable partition (weak bisimilarity).  A
    state's key is its block and its signature, the set of (silent or
    visible label, block) pairs it weakly reaches (see
    `WeakLts._signatures`), and new blocks are numbered by first occurrence.
    """
    alphabet = sorted(w.alphabet, key=label_key)
    block = [0] * w.n_states
    history = [tuple(block)]
    while True:
        new_ids: dict[tuple, int] = {}
        keys = zip(block, w._signatures(block, alphabet))
        new = [new_ids.setdefault(key, len(new_ids)) for key in keys]
        if new == block:
            return history
        block = new
        history.append(tuple(block))


def _bbc_witness(w: WeakPair, history) -> NonSimulablePair:
    """Replay the refinement to a locally distinguishable state pair.

    From a non-bisimilar pair, the side separated at round r can always move
    (weakly) into a block the other side cannot reach in one weak step at
    round r-1; following such moves strictly decreases r, and pairs separated
    at round 1 differ on their weakly enabled visible labels.
    """

    def rank(u: int, v: int) -> int:
        for r, blocks in enumerate(history):
            if blocks[u] != blocks[v]:
                return r
        return -1  # bisimilar

    def moves(u: int, action):
        return w.closure(u) if action is None else w.weak_succ(u, action)

    alphabet = sorted(w.alphabet, key=label_key)
    sA, sB = w.initials
    path: list[Comm] = []
    while True:
        r = rank(sA, sB)
        if r < 1:
            raise InternalError("witness requested for a bisimilar pair")
        if r == 1:
            ea, eb = w.enabled(sA), w.enabled(sB)
            offending = min(ea ^ eb, key=label_key)
            side = CHOREOGRAPHY if offending in ea else COLLABORATION
            return NonSimulablePair(tuple(path), offending, side, sA, sB - w.split)
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
        if attack is None:
            raise InternalError("separated pair without a distinguishing move")
        action, attacker, defender, target_block = attack
        s_new = min(t for t in moves(attacker, action) if prev[t] == target_block)
        replies = sorted(moves(defender, action))
        t_new = min(replies, key=lambda t: (rank(s_new, t), t))
        if action is not None:
            path.append(action)
        sA, sB = (s_new, t_new) if attacker == sA else (t_new, s_new)


def check_bbc(
    choreo: Union[Lts, WeakPair],
    collab: Optional[Lts] = None,
    hidden: Iterable[Comm] = frozenset(),
) -> ConformanceResult:
    """Weak bisimulation conformance of `collab` (after hiding) against `choreo`,
    or of the two sides of a `WeakPair` given alone."""
    w = choreo if collab is None else saturate_pair(choreo, collab, hidden)
    history = _refine(w)
    final = history[-1]
    sA, sB = w.initials
    if final[sA] == final[sB]:
        return ConformanceResult("bbc", True)
    return ConformanceResult("bbc", False, _bbc_witness(w, history))


# ---------------------------------------------------------------------------
# Trace conformance


def check_tbc(
    choreo: Union[Lts, WeakPair],
    collab: Optional[Lts] = None,
    hidden: Iterable[Comm] = frozenset(),
) -> ConformanceResult:
    """Weak trace conformance of `collab` (after hiding) against `choreo`,
    or of the two sides of a `WeakPair` given alone.

    Product states are pairs of silently closed bitsets, so the labels a set
    weakly enables are those whose strong sources it contains.
    """
    w = choreo if collab is None else saturate_pair(choreo, collab, hidden)
    sources = [(l, w._src[l]) for l in sorted(w.alphabet, key=label_key)]
    start = tuple([w._cl[s] for s in w.initials])
    parent: dict[tuple, Optional[tuple]] = {start: None}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        sa, sb = key
        ea = [l for l, src in sources if sa & src]
        eb = [l for l, src in sources if sb & src]
        if ea != eb:
            offending = min(set(ea) ^ set(eb), key=label_key)
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
        for label in ea:
            nxt = (w._post(sa, label), w._post(sb, label))
            if nxt not in parent:
                parent[nxt] = (key, label)
                queue.append(nxt)
    return ConformanceResult("tbc", True)


# ---------------------------------------------------------------------------
# Aldebaran (.aut) interchange


class AutSyntaxError(InputError):
    """Malformed .aut content; `line` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


_FORBIDDEN = set('"(),')
_HEADER_RE = re.compile(r"^des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
_EDGE_RE = re.compile(r'^\(\s*(\d+)\s*,\s*(?:"([^"]*)"|([^",()]+?))\s*,\s*(\d+)\s*\)$')
_LABEL_RE = re.compile(r"^(.+?)->(.+?):(.+)$")


def _render_label(label: Label) -> str:
    if label == TAU:
        return "tau"
    for part in (label.sender, label.receiver, label.message):
        if not part or not (part.isascii() and part.isprintable()) or set(part) & _FORBIDDEN:
            raise InputError(f"label part {part!r} contains characters unusable in .aut")
    # `sender->receiver:message` reads back by the first `->` and the first
    # `:` after it, so those may not occur earlier.
    if "->" in label.sender or ":" in label.receiver:
        raise InputError(f"label {label} would not read back from .aut unchanged")
    return f"{label.sender}->{label.receiver}:{label.message}"


def export_aut(lts: Lts) -> bytes:
    """Serialize an LTS in the Aldebaran format, byte-reproducibly.

    Header `des (initial, transitions, states)` followed by one
    `(from, "label", to)` line per transition in canonical order; visible
    labels are rendered `sender->receiver:message` and silent ones `tau`.
    """
    # Each label object is rendered once, in order of first use, and looked
    # up by identity: hashing a label calls Python code.
    labels = {id(label): label for _, label, _ in lts.transitions}
    middle = {i: f', "{_render_label(label)}", ' for i, label in labels.items()}
    lines = [f"des ({lts.initial}, {len(lts.transitions)}, {lts.n_states})"]
    nums = [str(s) for s in range(lts.n_states)]
    lines += [f"({nums[src]}{middle[id(label)]}{nums[tgt]})" for src, label, tgt in lts.transitions]
    return ("\n".join(lines) + "\n").encode("ascii")


def _parse_label(text: str, lineno: int) -> Label:
    if text in ("tau", "i"):
        return TAU
    m = _LABEL_RE.match(text)
    if m is None:
        raise AutSyntaxError(f"cannot read label {text!r}", lineno)
    return Comm(m.group(1), m.group(2), m.group(3))


def parse_aut(data: Union[bytes, str]) -> Lts:
    """Read an Aldebaran file back into an LTS.

    Inverse of export_aut on its output; also accepts unquoted labels as
    produced by other tools.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    lines = text.splitlines()
    if not lines:
        raise AutSyntaxError("empty input", 1)
    header = _HEADER_RE.match(lines[0].strip())
    if header is None:
        raise AutSyntaxError("missing des(initial, transitions, states) header", 1)
    try:
        initial, n_trans, n_states = (int(g) for g in header.groups())
    except ValueError:  # more digits than `int` converts
        raise AutSyntaxError("number too large in header", 1) from None
    body = [(i + 2, line.strip()) for i, line in enumerate(lines[1:]) if line.strip()]
    if len(body) != n_trans:
        raise AutSyntaxError(
            f"header announces {n_trans} transitions, found {len(body)}",
            body[-1][0] if body else 1,
        )
    # Each distinct label text is read once; transitions name it by number.
    number: dict[str, int] = {}
    parsed: list[Label] = []
    transitions = []
    for lineno, line in body:
        m = _EDGE_RE.match(line)
        if m is None:
            raise AutSyntaxError(f"cannot read transition {line!r}", lineno)
        src, quoted, bare, tgt = m.groups()
        try:
            src, tgt = int(src), int(tgt)
        except ValueError:  # more digits than `int` converts, so out of range
            src = tgt = n_states
        if src >= n_states or tgt >= n_states:
            raise AutSyntaxError("transition endpoint outside declared states", lineno)
        label_text = quoted if quoted is not None else bare
        i = number.get(label_text)
        if i is None:
            i = number[label_text] = len(parsed)
            parsed.append(_parse_label(label_text, lineno))
        transitions.append((src, i, tgt))
    if initial >= n_states:
        raise AutSyntaxError("initial state outside declared states", 1)
    labels = sorted(set(parsed), key=label_key)
    rank = {label: r for r, label in enumerate(labels)}
    ranks = [rank[label] for label in parsed]
    ranked = [(src, ranks[i], tgt) for src, i, tgt in transitions]
    return Lts.from_ranks(n_states, initial, labels, ranked)
