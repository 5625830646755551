"""Reference implementation of the text front end: the token-tuple parser.

This is the parser `chorcheck.text_syntax` used before text was tokenized
by one regex pass: `_tokenize` matches one token at a time into
`(kind, text, offset)` tuples, the parser walks them with `peek`, `next`,
`expect` and `ident`, and every token carries its character offset.  With it
is the `duplicate_edges` of that time, which counted edges with one
`Counter.update` per node.  The error classes are the library's own, so
tests can ask the library for exactly the same model, or the same error
class, message, `position` and `expected`, on any input.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable

from chorcheck.model import (
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
    source_edges,
    target_edges,
)
from chorcheck.text_syntax import ArityError, DuplicateEdgeError, ParseError


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


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*'*"
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<ident>""" + _IDENT + r""")
  | (?P<arrow>->)
  | (?P<punct>[(){},|:])
    """,
    re.VERBOSE,
)

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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    # -- token plumbing ------------------------------------------------

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.peek()
        if text != value or kind == "eof":
            raise ParseError(
                f"expected {value!r}, found {text or 'end of input'!r}",
                pos,
                expected=(value,),
            )
        return self.next()

    def ident(self, what: str = "identifier") -> str:
        kind, text, pos = self.peek()
        if kind != "ident":
            raise ParseError(
                f"expected {what}, found {text or 'end of input'!r}",
                pos,
                expected=(what,),
            )
        self.next()
        return text

    def at(self, value: str) -> bool:
        kind, text, _ = self.peek()
        return kind != "eof" and text == value

    # -- shared pieces ---------------------------------------------------

    def edge_set(self) -> tuple[tuple[str, ...], int]:
        pos = self.peek()[2]
        self.expect("{")
        edges = [self.ident("edge id")]
        while self.at(","):
            self.next()
            edges.append(self.ident("edge id"))
        self.expect("}")
        return tuple(sorted(edges)), pos

    def comm_triple(self) -> tuple[str, str, str]:
        sender = self.ident("participant")
        self.expect("->")
        receiver = self.ident("participant")
        self.expect(":")
        message = self.ident("message")
        return sender, receiver, message

    def message_ref(self, require_triple: bool):
        """Either `sender->receiver:message` or, for processes, a bare message."""
        pos = self.peek()[2]
        first = self.ident("message" if not require_triple else "participant")
        if self.at("->"):
            self.next()
            receiver = self.ident("participant")
            self.expect(":")
            message = self.ident("message")
            return message, first, receiver
        if require_triple:
            raise ParseError(
                "collaboration elements need a full sender->receiver:message edge",
                pos,
                expected=("->",),
            )
        return first, None, None

    # -- elements ----------------------------------------------------------

    def gateway_arity(self, edges: tuple[str, ...], pos: int):
        if len(edges) < 2:
            raise ArityError("gateways need more than one branching edge", pos)

    def element(self, kind: str):
        """One element; `kind` is 'choreography', 'process' or 'collaboration'."""
        tok_kind, word, pos = self.peek()
        if tok_kind != "ident" or word not in _KEYWORDS:
            raise ParseError(
                f"expected an element keyword, found {word or 'end of input'!r}",
                pos,
                expected=tuple(sorted(_KEYWORDS - {"pool"})),
            )
        self.next()
        cls = _CLASS_OF.get(word)
        if word == "start":
            self.expect("(")
            out = self.ident("edge id")
            self.expect(")")
            return StartEvent(out)
        if word == "end":
            self.expect("(")
            inp = self.ident("edge id")
            self.expect(",")
            completed = self.ident("edge id")
            self.expect(")")
            return EndEvent(inp, completed)
        if cls in (AndSplit, XorSplit):
            self.expect("(")
            inp = self.ident("edge id")
            self.expect(",")
            outs, set_pos = self.edge_set()
            self.expect(")")
            self.gateway_arity(outs, set_pos)
            return cls(inp, outs)
        if cls in (AndJoin, XorJoin):
            self.expect("(")
            ins, set_pos = self.edge_set()
            self.expect(",")
            out = self.ident("edge id")
            self.expect(")")
            self.gateway_arity(ins, set_pos)
            return cls(ins, out)
        if word == "task":
            self.expect("(")
            inp = self.ident("edge id")
            self.expect(",")
            out = self.ident("edge id")
            if kind == "choreography":
                self.expect(",")
                sender, receiver, message = self.comm_triple()
                self.expect(")")
                if sender == receiver:
                    raise ParseError(
                        "choreography task sender and receiver must differ", pos
                    )
                return ChoreoTask(inp, out, sender, receiver, message)
            self.expect(")")
            return Task(inp, out)
        if cls is not None and issubclass(cls, (Send, Receive)):
            if kind == "choreography":
                raise ParseError(f"{word} is not a choreography element", pos)
            self.expect("(")
            inp = self.ident("edge id")
            self.expect(",")
            out = self.ident("edge id")
            self.expect(",")
            message, sender, receiver = self.message_ref(
                require_triple=(kind == "collaboration")
            )
            self.expect(")")
            return cls(inp, out, message, sender, receiver)
        if word == "eventBased":
            self.expect("(")
            inp = self.ident("edge id")
            self.expect(",")
            self.expect("{")
            branches = [self.branch(kind)]
            while self.at(","):
                self.next()
                branches.append(self.branch(kind))
            self.expect("}")
            self.expect(")")
            if len(branches) < 2:
                raise ArityError("eventBased needs at least two branches", pos)
            return EventBased(inp, tuple(sorted(branches, key=branch_key)))
        raise ParseError(f"{word} cannot appear here", pos)

    def branch(self, kind: str) -> Branch:
        pos = self.peek()[2]
        self.expect("(")
        if kind == "choreography":
            sender, receiver, message = self.comm_triple()
            if sender == receiver:
                raise ParseError("branch sender and receiver must differ", pos)
        else:
            message, sender, receiver = self.message_ref(
                require_triple=(kind == "collaboration")
            )
        self.expect(")")
        out = self.ident("edge id")
        return Branch(out, message, sender, receiver)

    def element_list(self, kind: str, stop: tuple[str, ...]) -> list:
        nodes = [self.element(kind)]
        while True:
            tok_kind, text, _ = self.peek()
            if tok_kind == "eof" or text in stop:
                break
            self.expect("|")
            nodes.append(self.element(kind))
        return nodes

    # -- entry points ------------------------------------------------------

    def choreography(self) -> Choreography:
        nodes = self.element_list("choreography", stop=())
        self.expect_eof()
        self.check_duplicates(nodes)
        return Choreography(tuple(nodes))

    def process(self) -> Process:
        nodes = self.element_list("process", stop=())
        self.expect_eof()
        self.check_duplicates(nodes)
        return Process(tuple(nodes))

    def collaboration(self) -> Collaboration:
        pools = []
        seen = set()
        while True:
            kind, text, pos = self.peek()
            if kind == "eof":
                break
            if text == "|":
                self.next()
                continue
            if text != "pool":
                raise ParseError(
                    f"expected 'pool', found {text!r}", pos, expected=("pool",)
                )
            self.next()
            name = self.ident("pool name")
            if name in seen:
                raise ParseError(f"pool {name!r} defined twice", pos)
            seen.add(name)
            self.expect("{")
            nodes = self.element_list("collaboration", stop=("}",))
            self.expect("}")
            pools.append(Pool(name, tuple(nodes)))
        if not pools:
            raise ParseError("a collaboration needs at least one pool", 0)
        collab = Collaboration(tuple(pools))
        self.check_duplicates(collab.nodes)
        return collab

    def expect_eof(self):
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input starting at {text!r}", pos)

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
