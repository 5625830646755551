"""Textual notation for choreography, process and collaboration models.

The grammar (documented in full in docs/text-syntax.md) writes a model as a
`|`-separated list of elements, e.g.::

    start(e1) | task(e1, e2, customer->shop:order) | end(e2, e3)

Collaborations group elements into named pools::

    pool shop { start(s1) | taskRcv(s1, s2, customer->shop:order) | end(s2, s3) }

Whitespace is insignificant and `//` starts a line comment.  Parsing either
returns a model or raises a ParseError subclass; it never raises anything
else, whatever the input.
"""

from __future__ import annotations

import re

from .model import (
    AndJoin,
    AndSplit,
    Branch,
    ChoreoTask,
    Choreography,
    Collaboration,
    EndEvent,
    EventBased,
    InputError,
    InterRcv,
    InterSnd,
    Pool,
    Process,
    Receive,
    Send,
    StartEvent,
    Task,
    TaskRcv,
    TaskSnd,
    XorJoin,
    XorSplit,
    branch_key,
    duplicate_edges,
)


class ParseError(InputError):
    """Malformed model text; `position` is a character offset into the input."""

    def __init__(self, message: str, position: int, expected: tuple = ()):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
        self.expected = tuple(expected)


class ArityError(ParseError):
    """A gateway or branch list violates its cardinality constraint."""


class DuplicateEdgeError(ParseError):
    """An edge id occurs twice as a source or twice as a target."""


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*'*"
# A token (group 1) with the whitespace before it, else whitespace or a
# comment.  Taking the whitespace along saves a match per token.
_TOKEN_RE = re.compile(r"\s*(" + _IDENT + r"|->|[(){},|:])|\s+|//[^\n]*")
# The tokens that are not identifiers; "" is the end of input.
_PUNCT = frozenset({"(", ")", "{", "}", ",", "|", ":", "->", ""})

_KEYWORDS = frozenset(
    {
        "start", "end", "andSplit", "andJoin", "xorSplit", "xorJoin",
        "task", "taskRcv", "taskSnd", "interRcv", "interSnd", "eventBased",
        "pool",
    }
)

# Keywords that name their class outright, read by the parser and written
# by the printer.
_CLASS_OF = {
    "andSplit": AndSplit,
    "xorSplit": XorSplit,
    "andJoin": AndJoin,
    "xorJoin": XorJoin,
    "taskRcv": TaskRcv,
    "taskSnd": TaskSnd,
    "interRcv": InterRcv,
    "interSnd": InterSnd,
}
_KEYWORD_OF = {cls: word for word, cls in _CLASS_OF.items()}

_EDGE, _PARTICIPANT, _MESSAGE = "edge id", "participant", "message"
_COMM = (_PARTICIPANT, "->", _PARTICIPANT, ":", _MESSAGE)  # sender->receiver:message


def _tokenize(text: str) -> list[str]:
    """The tokens of `text`, then "" for the end of input.

    `split` puts the text between two matches at the even indices: all of it
    is empty unless a character starts no token, whitespace or comment.
    """
    parts = _TOKEN_RE.split(text)
    if any(parts[::2]):
        pos = 0
        for m in _TOKEN_RE.finditer(text):
            if m.start() != pos:
                break
            pos = m.end()
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens = list(filter(None, parts[1::2]))
    tokens.append("")
    return tokens


class _Parser:
    """Recursive descent over the token strings.  Positions are token
    indices; a character offset is worked out only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def fail(self, message: str, index: int, expected: tuple = (), error=ParseError):
        """Raise `error` at token `index`, at `len(text)` for the end of input."""
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text) if m.lastindex]
        starts.append(len(self.text))
        raise error(message, starts[index], expected)

    def take(self, *shape: str) -> list[str]:
        """Read one token per entry of `shape`; return the identifiers read.

        A punctuation entry must be that token; any other entry names the
        identifier expected there (`_EDGE`, `_PARTICIPANT`, ...).
        """
        tokens, i = self.tokens, self.i
        names = []
        for want in shape:
            tok = tokens[i]
            if want in _PUNCT:
                if tok != want:
                    found = tok or "end of input"
                    self.fail(f"expected {want!r}, found {found!r}", i, (want,))
            elif tok in _PUNCT:
                found = tok or "end of input"
                self.fail(f"expected {want}, found {found!r}", i, (want,))
            else:
                names.append(tok)
            i += 1
        self.i = i
        return names

    # -- shared pieces ---------------------------------------------------

    def edge_set(self) -> tuple[tuple[str, ...], int]:
        start = self.i
        edges = self.take("{", _EDGE)
        while self.tokens[self.i] == ",":
            edges += self.take(",", _EDGE)
        self.take("}")
        return tuple(sorted(edges)), start

    def message_ref(self, require_triple: bool):
        """Either `sender->receiver:message` or, for processes, a bare message."""
        start = self.i
        first, = self.take(_PARTICIPANT if require_triple else _MESSAGE)
        if self.tokens[self.i] == "->":
            receiver, message = self.take("->", _PARTICIPANT, ":", _MESSAGE)
            return message, first, receiver
        if require_triple:
            self.fail(
                "collaboration elements need a full sender->receiver:message edge",
                start,
                expected=("->",),
            )
        return first, None, None

    # -- elements ----------------------------------------------------------

    def gateway_arity(self, edges: tuple[str, ...], start: int):
        if len(edges) < 2:
            self.fail("gateways need more than one branching edge", start, error=ArityError)

    def element(self, kind: str):
        """One element; `kind` is 'choreography', 'process' or 'collaboration'."""
        start = self.i
        word = self.tokens[start]
        if word not in _KEYWORDS:
            self.fail(
                f"expected an element keyword, found {word or 'end of input'!r}",
                start,
                expected=tuple(sorted(_KEYWORDS - {"pool"})),
            )
        self.i += 1
        cls = _CLASS_OF.get(word)
        if word == "start":
            return StartEvent(*self.take("(", _EDGE, ")"))
        if word == "end":
            return EndEvent(*self.take("(", _EDGE, ",", _EDGE, ")"))
        if cls in (AndSplit, XorSplit):
            inp, = self.take("(", _EDGE, ",")
            outs, set_start = self.edge_set()
            self.take(")")
            self.gateway_arity(outs, set_start)
            return cls(inp, outs)
        if cls in (AndJoin, XorJoin):
            self.take("(")
            ins, set_start = self.edge_set()
            out, = self.take(",", _EDGE, ")")
            self.gateway_arity(ins, set_start)
            return cls(ins, out)
        if word == "task":
            if kind != "choreography":
                return Task(*self.take("(", _EDGE, ",", _EDGE, ")"))
            inp, out, sender, receiver, message = self.take(
                "(", _EDGE, ",", _EDGE, ",", *_COMM, ")"
            )
            if sender == receiver:
                self.fail("choreography task sender and receiver must differ", start)
            return ChoreoTask(inp, out, sender, receiver, message)
        if cls is not None and issubclass(cls, (Send, Receive)):
            if kind == "choreography":
                self.fail(f"{word} is not a choreography element", start)
            inp, out = self.take("(", _EDGE, ",", _EDGE, ",")
            message, sender, receiver = self.message_ref(
                require_triple=(kind == "collaboration")
            )
            self.take(")")
            return cls(inp, out, message, sender, receiver)
        if word == "eventBased":
            inp, = self.take("(", _EDGE, ",", "{")
            branches = [self.branch(kind)]
            while self.tokens[self.i] == ",":
                self.i += 1
                branches.append(self.branch(kind))
            self.take("}", ")")
            if len(branches) < 2:
                self.fail("eventBased needs at least two branches", start, error=ArityError)
            return EventBased(inp, tuple(sorted(branches, key=branch_key)))
        self.fail(f"{word} cannot appear here", start)

    def branch(self, kind: str) -> Branch:
        start = self.i
        self.take("(")
        if kind == "choreography":
            sender, receiver, message = self.take(*_COMM)
            if sender == receiver:
                self.fail("branch sender and receiver must differ", start)
        else:
            message, sender, receiver = self.message_ref(
                require_triple=(kind == "collaboration")
            )
        out, = self.take(")", _EDGE)
        return Branch(out, message, sender, receiver)

    def element_list(self, kind: str, stop: tuple[str, ...]) -> tuple:
        """Elements separated by `|`, up to a token in `stop`."""
        nodes = [self.element(kind)]
        while self.tokens[self.i] not in stop:
            self.take("|")
            nodes.append(self.element(kind))
        return tuple(nodes)

    # -- entry points ------------------------------------------------------

    def choreography(self) -> Choreography:
        nodes = self.element_list("choreography", ("",))
        self.check_duplicates(nodes)
        return Choreography(nodes)

    def process(self) -> Process:
        nodes = self.element_list("process", ("",))
        self.check_duplicates(nodes)
        return Process(nodes)

    def collaboration(self) -> Collaboration:
        pools = []
        seen = set()
        tokens = self.tokens
        while tokens[self.i]:
            start = self.i
            word = tokens[start]
            self.i += 1
            if word == "|":
                continue
            if word != "pool":
                self.fail(f"expected 'pool', found {word!r}", start, expected=("pool",))
            name, = self.take("pool name")
            if name in seen:
                self.fail(f"pool {name!r} defined twice", start)
            seen.add(name)
            self.take("{")
            nodes = self.element_list("collaboration", ("", "}"))
            self.take("}")
            pools.append(Pool(name, nodes))
        if not pools:
            raise ParseError("a collaboration needs at least one pool", 0)
        collab = Collaboration(tuple(pools))
        self.check_duplicates(collab.nodes)
        return collab

    def check_duplicates(self, nodes):
        dup_src, dup_tgt = duplicate_edges(nodes)
        if dup_src:
            raise DuplicateEdgeError(
                f"edge {dup_src[0]!r} occurs twice as a source", 0
            )
        if dup_tgt:
            raise DuplicateEdgeError(
                f"edge {dup_tgt[0]!r} occurs twice as a target", 0
            )


def parse_choreography(text: str) -> Choreography:
    return _Parser(text).choreography()


def parse_process(text: str) -> Process:
    return _Parser(text).process()


def parse_collaboration(text: str) -> Collaboration:
    return _Parser(text).collaboration()


# ---------------------------------------------------------------------------
# Printing


_IDENT_RE = re.compile(_IDENT)
_NAME_KIND = {"message": "message", "sender": "participant", "receiver": "participant"}


def _check_name(what: str, name) -> None:
    if name is not None and not _IDENT_RE.fullmatch(name):
        raise InputError(f"{what} {name!r} is not an identifier of the text syntax")


def _check_names(node) -> None:
    """Refuse a node whose names would not read back as the same identifiers."""
    for name in node._fields:
        value = getattr(node, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, Branch):
                _check_names(item)
            else:
                _check_name(_NAME_KIND.get(name, "edge"), item)


def _msg_ref(node) -> str:
    if node.sender is not None and node.receiver is not None:
        return f"{node.sender}->{node.receiver}:{node.message}"
    return node.message


def _node_text(node) -> str:
    _check_names(node)
    if isinstance(node, StartEvent):
        return f"start({node.out})"
    if isinstance(node, EndEvent):
        return f"end({node.inp}, {node.completed})"
    word = _KEYWORD_OF.get(type(node))
    if isinstance(node, (AndSplit, XorSplit)) and word:
        return f"{word}({node.inp}, {{{', '.join(node.outs)}}})"
    if isinstance(node, (AndJoin, XorJoin)) and word:
        return f"{word}({{{', '.join(node.ins)}}}, {node.out})"
    if isinstance(node, ChoreoTask):
        return f"task({node.inp}, {node.out}, {node.sender}->{node.receiver}:{node.message})"
    if isinstance(node, Task):
        return f"task({node.inp}, {node.out})"
    if isinstance(node, (Send, Receive)) and word:
        return f"{word}({node.inp}, {node.out}, {_msg_ref(node)})"
    if isinstance(node, EventBased):
        branches = ", ".join(f"({_msg_ref(b)}) {b.out}" for b in node.branches)
        return f"eventBased({node.inp}, {{{branches}}})"
    raise TypeError(f"unknown node {node!r}")


def print_model(model) -> str:
    """Canonical text for a model; parsing it back yields an equal structure.

    Raises InputError naming the first pool, participant, message or edge
    name that is not an identifier of the text syntax (a BPMN name such as
    `Customer A`), rather than printing text that would not parse back.
    """
    if isinstance(model, (Choreography, Process)):
        return " | ".join(_node_text(n) for n in model.nodes)
    if isinstance(model, Collaboration):
        blocks = []
        for pool in model.pools:
            _check_name("pool", pool.name)
            body = " |\n  ".join(_node_text(n) for n in pool.nodes)
            blocks.append(f"pool {pool.name} {{\n  {body}\n}}")
        return "\n".join(blocks) + "\n"
    raise TypeError(f"cannot print {model!r}")
