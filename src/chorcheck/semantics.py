"""Token-game execution of choreographies and collaborations, and LTS generation.

Both kinds of diagram share one step relation.  A model is lowered, in one
pass dispatching on each node's class, into a net: numbered places (sequence
edges, message edges, and one place per start event holding a single token
until that event fires) and one rule per way a node can fire, with the
places it consumes from and produces into; labels and message places are
keyed by their (sender, receiver, message) tuples.  Gateways and events move
tokens silently; a choreography task emits its communication label in one
atomic step, while in a collaboration only message *receptions* are visible:
a send silently deposits a message token in the receiver's queue, and the
matching receive (or event-based gateway branch) later consumes it under the
visible label.

`generate_lts` derives all it explores from that lowering in one sweep over
the rules, then explores the reachable markings breadth-first into a finite
labelled transition system with deterministic state numbering, failing
loudly (BoundExceeded) instead of truncating when a model is unbounded.
Labels it is given as `hidden` are explored as τ.  With `reduce=True` it
visits one representative per class of markings joined by confluent silent
steps (see `confluent_rules`) and returns a smaller, branching-bisimilar
system whose states are reachable markings.

An `Lts` keeps its transitions as its sorted label table and int columns
in compressed sparse rows by source, each step a label rank and a target
(see `_Columns`); they read as the tuple of `(source, label, target)`,
decoded on its first read, which no command makes.
"""

from __future__ import annotations

import functools

from collections import Counter, defaultdict
from itertools import accumulate, chain, compress, count, repeat
from operator import sub
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

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
    InterRcv,
    InterSnd,
    Label,
    MessageEdge,
    Receive,
    Send,
    StartEvent,
    Task,
    TaskRcv,
    TaskSnd,
    Tau,
    Value,
    XorJoin,
    XorSplit,
    label_key,
    message_key,
    message_keys,
)


class ExplorationBounds(Value):
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
    exploration: the state bound counts representatives, and the token and
    message bounds are checked on every marking it passes through, those
    between a representative's step and the representative of its target
    included (when the initial marking's own representative cannot be
    reached, no state has been reached yet).
    All those markings are reachable, so full exploration then fails a bound
    too, though possibly the state bound first; the reverse need not hold.
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


class Lts(Value, uncompared=("states",)):
    """A finite labelled transition system with canonical transition order.

    Transitions read as `(source, label, target)` tuples sorted by (source,
    label, target), duplicate-free; state 0 is always the initial state for
    generated systems.  They are kept as `_Columns`, which producers write
    directly; transitions given in any other form, such as tuples in any
    order and possibly repeated, are put into columns on construction.  So
    equality and hash compare columns, and a system is one value however it
    was made.  `states` optionally carries the marking behind each state
    index (see `Net`; a generated system's is a `_Markings`, decoded on its
    first read) and is left out of equality, hash and repr.
    """

    n_states: int
    initial: int
    transitions: _Columns
    states: Optional[Sequence] = None

    def __post_init__(self):
        given = self.transitions
        if not isinstance(given, _Columns):
            if not 0 <= self.initial < self.n_states:
                raise ValueError("initial state out of range")
            labels = sorted({label for _, label, _ in given}, key=label_key)
            rank = {label: r for r, label in enumerate(labels)}
            steps = [(src, rank[label], tgt) for src, label, tgt in given]
            object.__setattr__(self, "transitions", _Columns.from_steps(self.n_states, labels, steps))

    @staticmethod
    def make(n_states, initial, transitions, states=None) -> "Lts":
        """`Lts(...)`, which takes transitions in any order, possibly repeated."""
        return Lts(n_states, initial, transitions, states)

    def labels(self) -> frozenset[Comm]:
        return frozenset(l for l in self.transitions.labels if isinstance(l, Comm))


class _Decoded:
    """A sequence read as the tuple `_decode()` builds on its first read:
    indexing, iteration, `index`, `==` with a tuple either way round and
    `repr` read that tuple, and `len` decodes nothing."""

    @functools.cached_property
    def decoded(self) -> tuple:
        return self._decode()

    def __getitem__(self, i):
        return self.decoded[i]

    def __iter__(self):
        return iter(self.decoded)

    def index(self, *args):
        return self.decoded.index(*args)

    def __eq__(self, other):
        return self.decoded == other

    def __repr__(self):
        return repr(self.decoded)


class _Columns(_Decoded):
    """The transitions of an `Lts` in compressed sparse rows by source.

    `labels` holds the labels that occur, sorted by `label_key`, so τ has
    rank 0 when it occurs.  State s has the steps `offsets[s]` up to
    `offsets[s + 1]` of the `ranks` (label numbers in `labels`) and
    `targets`, sorted by (rank, target) and duplicate-free.  It reads as the
    tuple of `(source, label, target)` (see `_Decoded`); being canonical, it
    compares with and hashes as other columns without decoding.
    """

    def __init__(self, labels: tuple, offsets: list[int], ranks: list[int], targets: list[int]):
        self.labels, self.offsets, self.ranks, self.targets = labels, offsets, ranks, targets

    def __eq__(self, other):
        if isinstance(other, _Columns):
            return (self.labels, self.offsets, self.ranks, self.targets) == (
                other.labels, other.offsets, other.ranks, other.targets)
        return self.decoded == other

    def __hash__(self):
        return hash((self.labels, tuple(self.offsets), tuple(self.ranks), tuple(self.targets)))

    @staticmethod
    def from_codes(labels: Sequence, offsets: list[int], codes: list[int], bits: int) -> "_Columns":
        """The columns of steps coded `rank << bits | target`, each state's
        sorted and duplicate-free; labels that no step has are dropped."""
        ranks = [c >> bits for c in codes]
        used = set(ranks)
        if len(used) < len(labels):
            used = sorted(used)
            renumber = dict(zip(used, range(len(used))))
            labels = [labels[r] for r in used]
            ranks = list(map(renumber.__getitem__, ranks))
        # Targets name the int objects of `range`: one per state, not per step.
        numbers, mask = list(range(len(offsets) - 1)), (1 << bits) - 1
        return _Columns(tuple(labels), offsets, ranks, [numbers[c & mask] for c in codes])

    @staticmethod
    def from_steps(n_states: int, labels: Sequence, steps: Iterable[tuple[int, int, int]]) -> "_Columns":
        """The columns of steps `(src, rank, tgt)` in any order, possibly repeated."""
        bits = n_states.bit_length()
        rows: list[list[int]] = [[] for _ in range(n_states)]
        for src, r, tgt in steps:
            if not (0 <= src < n_states and 0 <= tgt < n_states):
                raise ValueError(f"transition endpoint out of range: {(src, tgt)}")
            rows[src].append(r << bits | tgt)
        codes, offsets = [], [0]
        for row in rows:
            codes += sorted(set(row))
            offsets.append(len(codes))
        return _Columns.from_codes(labels, offsets, codes, bits)

    def sources(self) -> Iterator[int]:
        """The source of each step, in column order."""
        offsets = self.offsets
        degrees = map(sub, offsets[1:], offsets)
        return chain.from_iterable(map(repeat, range(len(offsets) - 1), degrees))

    def __len__(self):
        return len(self.targets)

    def _decode(self) -> tuple[tuple[int, Label, int], ...]:
        labels = map(self.labels.__getitem__, self.ranks)
        return tuple(list(zip(self.sources(), labels, self.targets)))


# ---------------------------------------------------------------------------
# Nets


class Rule(NamedTuple):
    """One way node `node` can fire: take a token from each place in `pre`,
    put one on each place in `post`, and emit `label`."""

    node: int
    pre: tuple[int, ...]
    post: tuple[int, ...]
    label: Label


class Net(Value):
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


def _join(node: AndJoin) -> list:
    if len(set(node.ins)) < len(node.ins):
        raise ValueError(f"node {node!r} joins an edge with itself")
    return [(node.ins, (node.out,), None)]


# By node class, (pre, post, label) in place names for each way a node fires; a
# label is a `Comm`'s (sender, receiver, message) key or None for τ (see `_lower`).
_COMMON = {
    StartEvent: lambda i, n: [((i,), (n.out,), None)],
    EndEvent: lambda i, n: [((n.inp,), (n.completed,), None)],
    AndSplit: lambda i, n: [((n.inp,), n.outs, None)],
    AndJoin: lambda i, n: _join(n),
    XorSplit: lambda i, n: [((n.inp,), (out,), None) for out in n.outs],
    XorJoin: lambda i, n: [((inp,), (n.out,), None) for inp in n.ins],
}
_CHOREOGRAPHY = _COMMON | {
    ChoreoTask: lambda i, n: [((n.inp,), (n.out,), (n.sender, n.receiver, n.message))],
    EventBased: lambda i, n: [
        ((n.inp,), (b.out,), (b.sender, b.receiver, b.message)) for b in n.branches
    ],
}
_COLLABORATION = _COMMON | {
    Task: lambda i, n: [((n.inp,), (n.out,), None)],
    Send: lambda i, n: [((n.inp,), (n.out, message_key(n)), None)],
    Receive: lambda i, n: [((n.inp, k), (n.out,), k) for k in [message_key(n)]],
    EventBased: lambda i, n: [
        ((n.inp, k), (b.out,), k) for b in n.branches for k in [message_key(b)]
    ],
}
# The task and event notations of a send or receive fire as it does.
_COLLABORATION |= {TaskSnd: _COLLABORATION[Send], InterSnd: _COLLABORATION[Send],
                   TaskRcv: _COLLABORATION[Receive], InterRcv: _COLLABORATION[Receive]}


def _lower(model, hidden: Iterable[Comm]) -> tuple[list, list[tuple]]:
    """The place names of a model's net in number order, and its rules as
    `(node, pre, post, label)` over place numbers: one `Comm` per label key,
    τ for those of `hidden`, so no label or edge is hashed by Python code."""
    if not isinstance(model, (Choreography, Collaboration)):
        raise TypeError(f"cannot execute {type(model).__name__}")
    kind = "collaboration" if isinstance(model, Collaboration) else "choreography"
    table = _COLLABORATION if kind == "collaboration" else _CHOREOGRAPHY
    labels = {None: TAU}
    labels.update([((c.sender, c.receiver, c.message), TAU) for c in _hideable(hidden)])
    number = defaultdict(count().__next__)  # a new name gets the next number
    place = number.__getitem__
    rules = []
    # Per-call tuples here and elsewhere are built from lists: a generator
    # gives `tuple` no length hint, so the tuple is resized and later freed
    # onto the free list of another size, which only a full collection
    # empties (`test_repeated_checks_leave_no_memory_behind`).  `(*it,)`
    # builds the list, then a tuple of its exact size.
    for i, node in enumerate(model.nodes):
        fire = table.get(node.__class__)
        if fire is None:  # any other subclass fires as its nearest base in `table`
            fire = next((table[c] for c in type(node).__mro__ if c in table), None)
        if fire is None:
            raise TypeError(f"node {node!r} is not a {kind} element")
        for pre, post, key in fire(i, node):
            label = labels.get(key)
            if label is None:
                label = labels[key] = Comm(*key)
            rules.append((i, (*map(place, pre),), (*map(place, post),), label))
    return list(number), rules


def compile_net(model, hidden: Iterable[Comm] = ()) -> Net:
    """Lower a choreography or collaboration into its net; the rules whose
    label is in `hidden`, a set of `Comm` as for `hide`, are labelled τ.
    `generate_lts` explores the same lowering, `_lower`."""
    places, rules = _lower(model, hidden)
    names = tuple([MessageEdge(*n) if isinstance(n, tuple) else n for n in places])
    initial = tuple([int(isinstance(name, int)) for name in names])
    return Net(names, initial, tuple([Rule(*rule) for rule in rules]))


def confluent_rules(net: Net) -> tuple[int, ...]:
    """Indices of the confluent rules: silent, sole consumers of their
    pre-places, and on no cycle of such rules.

    Once such a rule is enabled no other rule can disable it, and firing it
    disables no other rule, so it commutes with every other step: it is
    τ-confluent.  XOR splits share their pre-place, so they are never
    confluent; a receive is confluent only when its label is hidden (see
    `compile_net`).  Rules on a cycle (a pool looping through `xorJoin` and
    `task`) could fire for ever, so they are left to exploration as ordinary
    silent steps, and the confluent rules always stop firing.
    """
    return tuple(sorted(_Setup(net.places, net.rules, DEFAULT_BOUNDS, True).confluent))


def _sccs(adj: list[list[int]]) -> tuple[list[int], int]:
    """Strongly connected components by Tarjan's algorithm, without recursion.

    Returns the component number of every node and the number of components.
    Components are numbered sinks first: every edge leaving a component
    points to one with a smaller number.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # -1 while unassigned: a visited node is then on `stack`
    stack: list[int] = []
    counter = n_comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter = counter + 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if index[w] < 0:
                    index[w] = low[w] = counter = counter + 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] < 0:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while comp[v] < 0:
                        comp[stack.pop()] = n_comp
                    n_comp += 1
    return comp, n_comp


# ---------------------------------------------------------------------------
# LTS generation

# A larger cap is taken as this one: no run fires often enough to reach it.
_MAX_CAP = 1 << 62


class _Overflow(Exception):
    """Place `place` would hold `count` tokens, more than its bound."""

    def __init__(self, place: int, count: int):
        self.place = place
        self.count = count


class _Packing:
    """Markings of a net packed into one `int` each (see `generate_lts`).

    Place p is the field of `width` bits at offset `width * p`; `width` is
    the least of 8, 16, 32 and 64 whose field holds the largest cap + 2
    below its top (guard) bit; a message place (its `MessageEdge` or key)
    has the message bound as its cap.  `ones` holds 1 in every field and
    `guards` every guard bit; `bias` holds `half - 1 - cap` in each field,
    `half` being the guard bit's value, so a field of `m + bias` has its
    guard bit set exactly when `m` holds more than the cap of its place.
    """

    def __init__(self, places, bounds: ExplorationBounds):
        tokens = min(bounds.max_tokens_per_edge, _MAX_CAP)
        messages = min(bounds.max_messages_per_edge, _MAX_CAP)
        self.caps = caps = [
            messages if isinstance(name, (MessageEdge, tuple)) else tokens for name in places
        ]
        top = max(caps, default=0) + 2
        size = 1
        while top >= 1 << 8 * size - 1:
            size *= 2
        self.size = size
        self.width = width = 8 * size
        self.ones = ones = self.pack([1] * len(caps))
        self.guards = ones << width - 1
        self.bias = ((1 << width - 1) - 1) * ones - self.pack(caps)

    def pack(self, counts: Sequence[int]) -> int:
        """The packed marking holding `counts[p]` tokens in each place p."""
        if self.size == 1:
            return int.from_bytes(bytes(counts), "little")
        width = self.width
        return sum([n << width * p for p, n in enumerate(counts)])

    def unpack(self, markings: list[int]) -> tuple[tuple[int, ...], ...]:
        """The token counts of each packed marking, indexed like the places."""
        n = len(self.caps)
        if self.size == 1:
            return tuple([tuple(m.to_bytes(n, "little")) for m in markings])
        width = self.width
        mask = (1 << width) - 1
        shifts = range(0, width * n, width)
        return tuple([tuple([m >> s & mask for s in shifts]) for m in markings])

    def overflow(self, m: int, post) -> _Overflow:
        """The first place of `post` holding more than its cap in `m`."""
        width = self.width
        mask = (1 << width) - 1
        counts = [(p, m >> width * p & mask) for p in post]
        return next(_Overflow(p, n) for p, n in counts if n > self.caps[p])

    def settle(self, m: int, fed: tuple) -> int:
        """The representative of packed marking `m`, in which only the
        confluent rules in `fed` may be enabled (see `_Setup`)."""
        guards, ones, bias = self.guards, self.ones, self.bias
        todo = list(fed)
        while todo:
            gpre, delta, gpost, post, more = todo.pop()
            while ((m | guards) - ones) & gpre == gpre:  # fire while enabled
                m += delta
                if (m + bias) & gpost:
                    raise self.overflow(m, post)
                todo += more
        return m


class _Markings(_Decoded):
    """The markings of a generated `Lts`, packed as `generate_lts` explored
    them and decoded by `packing` into token-count tuples (see `_Decoded`)."""

    def __init__(self, packed: list[int], packing: _Packing):
        self._packed = packed
        self._packing = packing

    def __len__(self):
        return len(self._packed)

    def _decode(self) -> tuple[tuple[int, ...], ...]:
        return self._packing.unpack(self._packed)


class _Setup:
    """What exploring a net needs, from one sweep over its rules.

    Each rule gets its masks: `gpre` and `gpost`, the guard bits of its pre-
    and post-places, and `delta`, the change a firing makes.  With `reduce`,
    `confluent` lists the confluent rules sinks first, so the settle record
    of each, `(gpre, delta, gpost, post, fed)`, is built after those in
    `fed`: the records of the confluent consumers of `post`, all a firing into
    `post` can enable.  `fed` holds those the initial marking may enable, and
    `rules` `(gpre, (delta, gpost, post, code, fed))` each other rule's (a
    disabled one unpacks `gpre` alone), `code` being `rank << bits` of its
    label in `labels`."""

    def __init__(self, places, rules, bounds: ExplorationBounds, reduce: bool):
        self.packing = packing = _Packing(places, bounds)
        width, top = packing.width, packing.width - 1
        masks, silent, visible = [], [], {}
        seen = shared = 0  # the guard bits of places some rule consumes; two or more
        for i, (_, pre, post, label) in enumerate(rules):
            gpre = gpost = 0
            for p in pre:
                gpre += 1 << width * p + top
            for p in post:
                gpost += 1 << width * p + top
            shared |= seen & gpre
            seen |= gpre
            masks.append((gpre, (gpost - gpre) >> top, gpost))
            if isinstance(label, Tau):
                silent.append(i)
            else:
                visible[id(label)] = label
        # The confluent rules, sinks first: silent sole consumers (off `shared`) on
        # no cycle.  In reverse order, one feeding no candidate still pending is on
        # none; only those held back (5 of 233 in the corpus) go through `_sccs`.
        held, order = [], []
        if reduce:
            left = [i for i in silent if not masks[i][0] & shared]
            pending = sum([masks[i][0] for i in left])  # their pre-places' guard bits
            for i in reversed(left):
                gpre, _, gpost = masks[i]
                if gpost & pending:
                    held.append(i)
                else:
                    order.append(i)
                    pending -= gpre
        if held:
            consumer = {p: j for j, i in enumerate(held) for p in rules[i][1]}
            graph = [[consumer[p] for p in rules[i][2] if p in consumer] for i in held]
            comp, _ = _sccs(graph)
            size = Counter(comp)
            order += [
                held[j] for j in sorted(range(len(held)), key=comp.__getitem__)
                if size[comp[j]] == 1 and j not in graph[j]
            ]
        self.confluent = order
        consumer = {}  # place -> the settle record of its confluent consumer
        for i in order:
            _, pre, post, _ = rules[i]
            built = (*masks[i], post, (*filter(None, map(consumer.get, post)),))
            for p in pre:
                consumer[p] = built
        self.initial = packing.pack([isinstance(name, int) for name in places])
        self.fed = (*filter(None, map(consumer.get, range(len(places)))),)
        self.labels = labels = sorted(visible.values(), key=label_key)
        if len(order) < len(silent):
            labels.insert(0, TAU)  # rank 0, the code of every explored silent rule
        bits = bounds.max_states.bit_length()
        code = {id(label): r << bits for r, label in enumerate(labels)}
        chosen = set(order)
        self.rules = explored = []
        for i, (_, _, post, label) in enumerate(rules):
            if i not in chosen:
                gpre, delta, gpost = masks[i]
                fed = (*filter(None, map(consumer.get, post)),)
                explored.append((gpre, (delta, gpost, post, code.get(id(label), 0), fed)))


def generate_lts(
    model,
    bounds: ExplorationBounds = DEFAULT_BOUNDS,
    *,
    reduce: bool = False,
    hidden: Iterable[Comm] = (),
) -> Lts:
    """Explore the reachable markings of a model into an LTS.

    Exploration is breadth-first with canonical step ordering, so two runs on
    the same model and bounds produce identical state numbering and
    transition lists.  The labels in `hidden` are explored as τ (see
    `compile_net`), so the result equals
    `hide(generate_lts(model, bounds, reduce=reduce), hidden)`.  The model is
    lowered once (`_lower`, as for `compile_net`), and one sweep over its
    rules (`_Setup`) derives all that the breadth-first loop reads.

    While exploring, a marking is one `int` (SWAR, Lamport 1975; a
    fixed-width state vector as in LTSmin): place p is a field of 8, 16, 32
    or 64 bits at offset `width * p`, the least width whose field holds the
    largest cap + 2 below its top (guard) bit; a cap above 2**62 counts as
    2**62, which no run reaches.  With `G` the guard bits and `ONES` a 1 in
    every field, `nz = ((m | G) - ONES) & G` has the guard bit of exactly
    the nonempty places, so a rule is enabled when `nz & gpre == gpre`,
    `gpre` being the guard bits of its pre-places; the breadth-first loop
    computes the guard bits of the empty places, `nz ^ G`, once per state
    and tests each rule with one `&`.  Firing a rule is `m + delta`.  Only
    the places a rule produces into can grow, so the token and message
    bounds are checked on those alone: `(nxt + BIAS) & gpost`, with `BIAS`
    holding `half - 1 - cap` in each field (`half` the guard bit's value),
    is nonzero exactly when one of them passed its cap, and only then is
    the marking decoded to name the place.  `Lts.states` keeps the markings
    packed and decodes them all into tuples of token counts (see `Net`) on
    its first read (see `_Markings`).  A step is one `int` too, `rank <<
    bits | target`, so a state's sorted steps are in (label, target) order;
    all are kept in one list, then in the columns of `Lts.transitions`.

    With `reduce`, exploration visits representatives only (Groote & van de
    Pol 2000; on the fly as in Blom & van de Pol 2002).  Confluent rules (see
    `confluent_rules`; a rule with a hidden label may be one) commute with
    every other step, no step disables them and they always stop firing, so
    the markings joined by confluent steps fall into classes, each
    represented by its one marking in which no confluent rule is enabled.
    From each representative, each enabled non-confluent rule fires once
    and leads to the representative of its target.  Confluent steps are
    left out, so τ-transitions remain only for the other silent rules, such
    as XOR splits and the steps of silent loops.  The result is branching
    bisimilar to the full LTS with the same labels hidden, and every state
    is a reachable marking.  The bounds then apply to the reduced
    exploration (see `BoundExceeded`).
    """
    places, lowered = _lower(model, hidden)
    setup = _Setup(places, lowered, bounds, reduce)
    packing, labels, rules = setup.packing, setup.labels, setup.rules
    max_states = bounds.max_states
    bits = max_states.bit_length()
    # Two steps of a state repeat only when two rules with one label reach
    # one marking: by one change, or, when reducing, through `settle`.
    # Otherwise a plain sort is enough, and on the benchmark's full fan-in
    # k=3 exploration a set per state would cost a fifth more.
    repeats = reduce or len({(rest[3], rest[0]) for _, rest in rules}) < len(rules)
    settle = packing.settle
    guards, ones, bias = packing.guards, packing.ones, packing.bias

    states = []
    index = {}
    codes, offsets = [], [0]
    src = -1  # nothing expanded until the initial state exists
    try:
        initial = settle(setup.initial, setup.fed)
        states.append(initial)
        index[initial] = 0
        for src, marking in enumerate(states):  # `states` grows as it goes
            empty = ((marking | guards) - ones) & guards ^ guards
            steps = []
            for gpre, rule in rules:
                if not empty & gpre:
                    delta, gpost, post, code, fed = rule
                    nxt = marking + delta
                    if (nxt + bias) & gpost:
                        raise packing.overflow(nxt, post)
                    if fed:
                        nxt = settle(nxt, fed)
                    tgt = index.get(nxt)
                    if tgt is None:
                        tgt = len(states)
                        if tgt >= max_states:
                            raise BoundExceeded(
                                "states", f"more than {max_states} reachable states",
                                len(states), len(states) - src - 1,
                            )
                        index[nxt] = tgt
                        states.append(nxt)
                    steps.append(code | tgt)
            if repeats and len(steps) > 1:
                steps = sorted(set(steps))
            else:
                steps.sort()
            codes += steps
            offsets.append(len(codes))
    except _Overflow as err:
        raise _overflow(places[err.place], err.count, len(states), src) from None
    columns = _Columns.from_codes(labels, offsets, codes, bits)
    return Lts(len(states), 0, columns, _Markings(states, packing))


def _overflow(place, n: int, reached: int, src: int) -> BoundExceeded:
    frontier = reached - src - 1
    place = MessageEdge(*place) if isinstance(place, tuple) else place
    if isinstance(place, MessageEdge):
        return BoundExceeded(
            "messages", f"message edge {place} would hold {n} messages", reached, frontier
        )
    return BoundExceeded("tokens", f"edge {place!r} would hold {n} tokens", reached, frontier)


# ---------------------------------------------------------------------------
# Hiding


def _hideable(hidden: Iterable[Comm]) -> frozenset:
    hidden = frozenset(hidden)
    if any(not isinstance(l, Comm) for l in hidden):
        raise ValueError("only communication labels can be hidden")
    return hidden


def hide(lts: Lts, hidden: Iterable[Comm]) -> Lts:
    """Relabel every transition whose label is in `hidden` to tau.

    The hidden labels leave the label table and τ joins it at rank 0.  Only
    a source with a hidden step has its steps sorted again, its τ-steps
    (old and new, merged) first.
    """
    hidden = _hideable(hidden)
    old = lts.transitions
    gone = [label in hidden for label in old.labels] if hidden else ()
    if not any(gone):
        return lts
    kept = [not g and isinstance(l, Comm) for l, g in zip(old.labels, gone)]
    labels = [TAU, *compress(old.labels, kept)]
    renumber = [n if k else 0 for k, n in zip(kept, accumulate(kept))]  # τ at 0
    bits = lts.n_states.bit_length()
    ranks, targets = old.ranks, old.targets
    codes, offsets = [], [0]
    for a, b in zip(old.offsets, old.offsets[1:]):
        steps = [renumber[r] << bits | t for r, t in zip(ranks[a:b], targets[a:b])]
        codes += sorted(set(steps)) if any(map(gone.__getitem__, ranks[a:b])) else steps
        offsets.append(len(codes))
    columns = _Columns.from_codes(labels, offsets, codes, bits)
    return Lts(lts.n_states, lts.initial, columns, lts.states)


def hiding_set(choreo, collab) -> frozenset[Comm]:
    """Collaboration labels that the choreography does not talk about.

    A model, on either side, names every label of its nodes, reachable or
    not; an `Lts`, such as one read from `.aut`, only those on its transitions.
    Labels are compared by their `message_keys`, as `_lower` keys them; only
    the hidden are built.
    """
    spoken, heard = [
        {(c.sender, c.receiver, c.message) for c in side.labels()}
        if isinstance(side, Lts) else message_keys(side, received)
        for side, received in [(choreo, False), (collab, True)]
    ]
    return frozenset([Comm(*key) for key in heard - spoken])
