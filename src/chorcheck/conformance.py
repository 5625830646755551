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
int bitsets, and the strong steps, read as each state's slice of the
union's label-rank and target columns, so that no label is hashed per
transition.  No weak step is stored.  The weak steps of a silently closed
set of states are formed in one sweep over its members' slices, the
closures of the targets ORed per label rank; the TBC search, the BBC
witness and `enabled` all read that sweep.  When the union has no silent
transition, as for most representatives `check` explores, no silent graph
is built: weak steps are the strong steps, and refinement keys each state
by the sparse set of (label rank, block) pairs of its strong steps instead
of a bitmask.

Weak bisimilarity implies weak trace equivalence, so a caller deciding both
can decide BBC first and, when it holds, skip the TBC search.

Extra collaboration labels are expected to be hidden (relabelled to tau) by
the caller before or via the `hidden` argument, so the checkers also work on
transition systems read back from `.aut` files.
"""

from __future__ import annotations

import re

from collections import deque
from typing import Iterable, Iterator, Optional, Sequence, Union

from .model import TAU, Comm, InputError, Label, Tau, Value, label_key
from .semantics import BoundExceeded, ExplorationBounds, Lts, _Columns, _sccs, hide


# ---------------------------------------------------------------------------
# Weak transition structure


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class WeakLts:
    """An LTS enriched with its silent closure and weak visible steps.

    `closure(s)` is the set of states reachable from s by zero or more silent
    transitions.  `weak_succ(s, l)` is the set of states reachable by silent
    moves, one l-transition, then silent moves again.

    It reads the LTS's columns (see `semantics._Columns`): a label is its
    rank in `labels`, no label is hashed per transition, and the steps of a
    state are its slice of the rank and target columns, τ-steps (rank 0)
    first.  `_visible` holds the ranks of the visible labels, and
    `_sources`, with silent steps only, the source of each step.  Sets of
    states are int bitsets, decoded on demand.  `_comp[s]` is the silent
    strongly connected component of s, and `_below[c]` the other components
    c has a silent transition into.  `_cl[s]` is the closure of s.  Weak
    steps are not stored: `_steps` forms those of a closed set of states in
    one sweep over its members' slices, from the targets' `_cl`.

    A system without silent transitions, as are most that `check` explores,
    builds no silent graph: `_comp` is None, the closure of s is `1 << s`,
    made on demand, and weak steps are strong steps, which refinement reads
    from the slices.
    """

    def __init__(self, lts: Lts):
        self.lts = lts
        columns = lts.transitions
        self.labels = labels = columns.labels
        self._offsets, self._ranks, self._targets = columns.offsets, columns.ranks, columns.targets
        silent = bool(labels) and isinstance(labels[0], Tau)
        self._visible = range(silent, len(labels))
        if not silent:
            self._comp = None
            self._cl = _Singletons()
            return
        self._sources = list(columns.sources())
        tau_adj: list[list[int]] = [[] for _ in range(lts.n_states)]
        for s, r, t in zip(self._sources, columns.ranks, columns.targets):
            if not r:
                tau_adj[s].append(t)
        self._comp, n_comp = _sccs(tau_adj)
        below: list[set[int]] = [set() for _ in range(n_comp)]
        for s, targets in enumerate(tau_adj):
            below[self._comp[s]].update(self._comp[t] for t in targets)
        self._below = [b - {c} for c, b in enumerate(below)]
        self._cl = self._over_closure([1 << s for s in range(lts.n_states)])

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

    @property
    def alphabet(self) -> frozenset[Comm]:
        """The visible labels of the system's transitions."""
        return frozenset(self.labels[self._visible.start:])

    def closure(self, s: int) -> frozenset[int]:
        return frozenset(_bits(self._cl[s]))

    def weak_succ(self, s: int, label: Comm) -> frozenset[int]:
        if label not in self.alphabet:
            return frozenset()
        return frozenset(_bits(self._steps(self._cl[s]).get(self.labels.index(label), 0)))

    def enabled(self, s: int) -> frozenset[Comm]:
        """Visible labels weakly enabled at s."""
        return frozenset(map(self.labels.__getitem__, self._steps(self._cl[s])))

    def _steps(self, states: int) -> dict[int, int]:
        """The weak steps of a silently closed bitset of states, by the rank
        of their visible label: each member's slice swept once, the closures
        of its strong targets ORed into their rank's successors."""
        acc: dict[int, int] = {}
        cl, offsets, ranks, targets = self._cl, self._offsets, self._ranks, self._targets
        lo = self._visible.start  # τ-steps stay inside a closed set
        for x in _bits(states):
            for i in range(offsets[x], offsets[x + 1]):
                r = ranks[i]
                if r >= lo:
                    acc[r] = acc.get(r, 0) | cl[targets[i]]
        return acc

    def _signatures(self, block: Sequence[int]) -> Iterable:
        """Every state's signature for one round of partition refinement.

        `block` numbers this system's states.  With silent steps, a
        signature is one int: bit b is set when the silent closure meets
        block b, and bit `r·nb + b` when a weak step by the label of rank r
        reaches block b.  Without, the closure is the state alone, and the
        signature is the frozenset of (rank, block) pairs of its strong
        steps, yielded one at a time, so a caller that keeps only distinct
        keys never holds them all.  Either way two states of one block get
        equal signatures exactly when they weakly reach the same blocks by
        the same labels.
        """
        offsets, ranks, targets = self._offsets, self._ranks, self._targets
        if self._comp is None:
            at = block.__getitem__
            slices = zip(offsets, offsets[1:])
            return (frozenset(zip(ranks[a:b], map(at, targets[a:b]))) for a, b in slices)
        nb = max(block) + 1
        reach = self._over_closure([1 << b for b in block])
        visible = [0] * len(block)
        for s, r, y in zip(self._sources, ranks, targets):
            # A τ-step (rank 0) ORs its target's reach into the low bits,
            # which the state's own reach holds already.
            visible[s] |= reach[y] << r * nb
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
    visible step crosses from one side to the other.  The union's columns
    are the two sides', ranks renumbered into the merged label table.
    """

    def __init__(self, choreo: Lts, collab: Lts):
        self.split = n = choreo.n_states
        a, b = choreo.transitions, collab.transitions
        labels = a.labels
        if labels == b.labels:
            ranks = a.ranks + b.ranks
        else:  # merged by key: hashing a label calls Python code
            keys = [label_key(l) for l in a.labels], [label_key(l) for l in b.labels]
            table = dict(zip(keys[0] + keys[1], a.labels + b.labels))
            number = {k: r for r, k in enumerate(sorted(table))}
            labels = tuple([table[k] for k in number])
            ranks = list(map([number[k] for k in keys[0]].__getitem__, a.ranks))
            ranks += map([number[k] for k in keys[1]].__getitem__, b.ranks)
        offsets = a.offsets + [o + len(a.ranks) for o in b.offsets[1:]]
        targets = a.targets + [t + n for t in b.targets]
        union = _Columns(labels, offsets, ranks, targets)
        super().__init__(Lts(n + collab.n_states, choreo.initial, union))
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
    block = [0] * w.n_states
    history = [tuple(block)]
    while True:
        new_ids: dict[tuple, int] = {}
        keys = zip(block, w._signatures(block))
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
    at round 1 differ on their weakly enabled visible labels.  A move is
    silent (`None`) or the rank of a visible label.
    """

    def rank(u: int, v: int) -> int:
        for r, blocks in enumerate(history):
            if blocks[u] != blocks[v]:
                return r
        return -1  # bisimilar

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
        # Each side's moves, swept once: its closure, then its weak steps.
        moves = [{None: cl, **w._steps(cl)} for cl in (w._cl[sA], w._cl[sB])]
        for action in [None, *w._visible]:
            blocks_a = {prev[t] for t in _bits(moves[0].get(action, 0))}
            blocks_b = {prev[t] for t in _bits(moves[1].get(action, 0))}
            only = blocks_a - blocks_b, blocks_b - blocks_a
            if only[0] or only[1]:
                break
        else:
            raise InternalError("separated pair without a distinguishing move")
        i = 0 if only[0] else 1  # the attacking side, A when both can
        target_block = min(only[i])
        s_new = min(t for t in _bits(moves[i][action]) if prev[t] == target_block)
        replies = _bits(moves[1 - i].get(action, 0))
        t_new = min(replies, key=lambda t: (rank(s_new, t), t))
        if action is not None:
            path.append(w.labels[action])
        sA, sB = (s_new, t_new) if i == 0 else (t_new, s_new)


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

    Product states are pairs of silently closed bitsets.  Each side's weak
    steps are formed in one sweep of its set (`WeakLts._steps`), keyed by
    label rank, so both sides enable the same labels exactly when their keys
    agree.  Labels are their ranks, in `label_key` order, until the trace is
    built, and successors are queued in that order.
    """
    w = choreo if collab is None else saturate_pair(choreo, collab, hidden)
    start = tuple([w._cl[s] for s in w.initials])
    parent: dict[tuple, Optional[tuple]] = {start: None}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        pa, pb = map(w._steps, key)
        if pa.keys() != pb.keys():
            offending = min(pa.keys() ^ pb.keys())
            side = CHOREOGRAPHY if offending in pa else COLLABORATION
            ranks = [offending]
            back = parent[key]
            while back is not None:
                prev_key, r = back
                ranks.append(r)
                back = parent[prev_key]
            labels = tuple([w.labels[r] for r in reversed(ranks)])
            return ConformanceResult("tbc", False, DistinguishingTrace(labels, side))
        for r in sorted(pa):
            nxt = (pa[r], pb[r])
            if nxt not in parent:
                parent[nxt] = (key, r)
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
    Each label and each state number is rendered once, and the lines are
    formatted from the columns.
    """
    columns = lts.transitions
    try:
        middle = [f', "{_render_label(label)}", ' for label in columns.labels]
    except InputError:
        for r in columns.ranks:  # name the first one in transition order
            _render_label(columns.labels[r])
        raise
    nums = [str(s) for s in range(lts.n_states)]
    lines = [f"des ({lts.initial}, {len(columns)}, {lts.n_states})"]
    steps = zip(columns.sources(), columns.ranks, columns.targets)
    lines += [f"({nums[src]}{middle[r]}{nums[tgt]})" for src, r, tgt in steps]
    return ("\n".join(lines) + "\n").encode("ascii")


def _parse_label(text: str, lineno: int) -> Label:
    if text in ("tau", "i"):
        return TAU
    m = _LABEL_RE.match(text)
    if m is None:
        raise AutSyntaxError(f"cannot read label {text!r}", lineno)
    return Comm(m.group(1), m.group(2), m.group(3))


def parse_aut(data: Union[bytes, str], bounds: Optional[ExplorationBounds] = None) -> Lts:
    """Read an Aldebaran file back into an LTS.

    Inverse of export_aut on its output; also accepts unquoted labels as
    produced by other tools.  The columns keep one offset per declared
    state; given `bounds`, a file declaring more than `bounds.max_states`
    states is refused (`BoundExceeded`) before they are made.
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
    sources, numbers, targets = [], [], []
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
        sources.append(src)
        numbers.append(i)
        targets.append(tgt)
    if initial >= n_states:
        raise AutSyntaxError("initial state outside declared states", 1)
    if bounds is not None and n_states > bounds.max_states:
        detail = f"declares {n_states} states, more than {bounds.max_states}"
        raise BoundExceeded("states", detail, 0, 0)
    labels = sorted(set(parsed), key=label_key)
    rank = {label: r for r, label in enumerate(labels)}
    ranks = [rank[label] for label in parsed]
    steps = zip(sources, map(ranks.__getitem__, numbers), targets)
    return Lts(n_states, initial, _Columns.from_steps(n_states, labels, steps))
