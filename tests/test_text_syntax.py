import random
import re
import string

import pytest

import chorcheck.text_syntax as text_syntax
import oracle_text_syntax
from chorcheck import (
    ArityError,
    BpmnDocument,
    ChoreoTask,
    Choreography,
    Collaboration,
    EndEvent,
    EventBased,
    Branch,
    Pool,
    StartEvent,
    TaskRcv,
    TaskSnd,
    DuplicateEdgeError,
    ParseError,
    parse_choreography,
    parse_collaboration,
    load_collaboration,
    parse_process,
    print_model,
)
from chorcheck.model import branch_key
from conftest import FIXTURES, fixture_path, fixture_text

BOOKING_GLOBAL = """
start(e1) | task(e1, e2, c->bs:login) | task(e2, e3, c->bs:request) |
task(e3, e4, bs->c:reply) | xorSplit(e4, {e5, e6}) |
task(e5, e7, c->bs:abort) | end(e7, e8) |
task(e6, e9, c->bs:book) | task(e9, e10, c->bk:pay) |
task(e10, e11, bk->bs:confirmation) | task(e11, e12, bs->c:ticket) | end(e12, e13)
"""

# Customer written with primed edge names and an unwired stretch before the
# last reception; such detached edges are legal syntax (the run just stalls).
CUSTOMER_PRIMED = """
start(e1') | taskSnd(e1', e2', login) | taskSnd(e2', e3', request) |
taskRcv(e3', e4', reply) | xorSplit(e4', {e5', e6'}) |
taskSnd(e5', e7', abort) | end(e7', e8') |
taskSnd(e6', e9', book) | taskSnd(e9', e10', pay) |
taskRcv(e11', e12', ticket) | end(e12', e13')
"""


def test_parse_booking_choreography_shape():
    ch = parse_choreography(BOOKING_GLOBAL)
    assert len(ch.nodes) == 12
    assert sum(isinstance(n, ChoreoTask) for n in ch.nodes) == 8


def test_parse_minimal_choreography():
    ch = parse_choreography("start(e1) | end(e1,e2)")
    assert len(ch.nodes) == 2


def test_gateway_arity_is_checked():
    with pytest.raises(ArityError):
        parse_choreography("xorSplit(e1, {e2})")
    with pytest.raises(ArityError):
        parse_process("andJoin({e1}, e2)")


def test_event_based_needs_two_branches():
    with pytest.raises(ArityError):
        parse_process("eventBased(e1, {(m) e2})")


def test_parse_primed_customer_process():
    proc = parse_process(CUSTOMER_PRIMED)
    assert len(proc.nodes) == 11


def test_parse_trivial_process():
    assert len(parse_process("start(a) | end(a, b)").nodes) == 2


def test_parse_booking_collaboration_pools(booking_collaboration):
    assert booking_collaboration.pool_names() == ("bk", "c", "bs")
    assert len(booking_collaboration.pools[0].nodes) == 4
    assert len(booking_collaboration.nodes) == 4 + 11 + 9


def test_single_pool_collaboration():
    collab = parse_collaboration(
        "pool bk { start(a1) | taskRcv(a1, a2, c->bk:pay) | end(a2, a3) }"
    )
    assert collab.pool_names() == ("bk",)


def test_empty_input_is_an_error():
    with pytest.raises(ParseError):
        parse_collaboration("")
    with pytest.raises(ParseError):
        parse_choreography("   // nothing here\n")


def test_duplicate_source_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        parse_process("start(a) | start(a)")


def test_duplicate_target_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        parse_process("start(a) | task(b, c) | end(b, d)")


def test_collaboration_tasks_need_full_triples():
    with pytest.raises(ParseError):
        parse_collaboration("pool A { start(a1) | taskSnd(a1, a2, m) | end(a2, a3) }")


def test_process_tasks_accept_bare_and_triple_messages():
    bare = parse_process("start(a1) | taskRcv(a1, a2, m) | end(a2, a3)")
    full = parse_process("start(a1) | taskRcv(a1, a2, B->A:m) | end(a2, a3)")
    assert bare.nodes[1].sender is None
    assert full.nodes[1].sender == "B"


def test_choreography_rejects_self_communication():
    with pytest.raises(ParseError):
        parse_choreography("start(e1) | task(e1, e2, a->a:m) | end(e2, e3)")


def test_print_minimal_canonical_form():
    ch = parse_choreography("start(e1)|end(e1 ,  e2)")
    assert print_model(ch) == "start(e1) | end(e1, e2)"


def parse_any(text: str):
    """First parser that accepts the text, together with its result."""
    last = None
    for parse in (parse_collaboration, parse_choreography, parse_process):
        try:
            return parse, parse(text)
        except ParseError as err:
            last = err
    raise last


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in FIXTURES.glob("*.txt")),
)
def test_round_trip_all_fixtures(name):
    parse, model = parse_any(fixture_text(name))
    assert parse(print_model(model)) == model


def test_round_trip_booking_collaboration(booking_collaboration):
    assert parse_collaboration(print_model(booking_collaboration)) == booking_collaboration


def test_print_refuses_a_bpmn_name_the_text_syntax_cannot_read():
    xml = fixture_path("booking_collaboration.bpmn").read_text()
    xml = xml.replace('name="c"', 'name="Customer A"')
    collab = load_collaboration(BpmnDocument.from_text(xml))
    with pytest.raises(ValueError, match="participant 'Customer A' is not an identifier"):
        print_model(collab)


# The documented identifier grammar (docs/text-syntax.md).
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*")


def random_name(rng: random.Random) -> str:
    """Mostly identifiers; sometimes a space, punctuation, a non-ASCII letter,
    a leading digit, a misplaced prime or nothing at all."""
    head = rng.choice(string.ascii_letters + "_")
    tail = "".join(rng.choice(string.ascii_letters + string.digits + "_")
                   for _ in range(rng.randint(0, 5)))
    name = head + tail + "'" * rng.choice([0, 0, 0, 1, 2])
    if rng.random() < 0.15:
        pos = rng.randint(0, len(name))
        name = name[:pos] + rng.choice([" ", "-", ">", ":", "(", ",", "é", "'", "1", "."]) + name[pos:]
    if rng.random() < 0.02:
        name = ""
    return name


def test_print_round_trips_or_names_the_first_bad_name():
    rng = random.Random(41)
    refused = 0
    for _ in range(3000):
        names = []
        while len(names) < 12:
            name = random_name(rng)
            if name not in names:
                names.append(name)
        p, q, m, n, *e = names
        if rng.random() < 0.5:
            model = Collaboration((
                Pool(p, (StartEvent(e[0]), TaskSnd(e[0], e[1], m, p, q), EndEvent(e[1], e[2]))),
                Pool(q, (StartEvent(e[3]), EventBased(e[3], tuple(sorted(
                    [Branch(e[4], m, p, q), Branch(e[5], n, p, q)], key=branch_key))),
                         TaskRcv(e[4], e[6], n, p, q), EndEvent(e[6], e[7]))),
            ))
            # Pools, then each node's names in field order; branches in
            # their sorted order.
            first, second = sorted([(e[4], m), (e[5], n)], key=lambda b: branch_key(
                Branch(b[0], b[1], p, q)))
            parse, order = parse_collaboration, [
                p, e[0], e[0], e[1], m, p, q, e[1], e[2],
                q, e[3], e[3], *first, p, q, *second, p, q, e[4], e[6], n, p, q, e[6], e[7],
            ]
        else:
            model = Choreography((StartEvent(e[0]), ChoreoTask(e[0], e[1], p, q, m),
                                  EndEvent(e[1], e[2])))
            parse, order = parse_choreography, [e[0], e[0], e[1], p, q, m, e[1], e[2]]
        bad = [name for name in order if not IDENT.fullmatch(name)]
        if bad:
            refused += 1
            with pytest.raises(ValueError) as err:
                print_model(model)
            assert f"{bad[0]!r} is not an identifier" in str(err.value)
        else:
            assert parse(print_model(model)) == model
    assert 500 < refused < 2500


def test_parsers_total_over_noise():
    rng = random.Random(1234)
    charset = string.ascii_letters + string.digits + "(){}|,->: \n'\"\t//"
    for parse in (parse_choreography, parse_process, parse_collaboration):
        for _ in range(400):
            text = "".join(rng.choice(charset) for _ in range(rng.randint(0, 60)))
            try:
                parse(text)
            except ParseError:
                pass  # structured rejection is the only acceptable failure


# ---------------------------------------------------------------------------
# Differential test against the token-tuple parser (tests/oracle_text_syntax.py)

ENTRY_POINTS = ("parse_choreography", "parse_process", "parse_collaboration")

# What a mutation may insert or substitute: punctuation, identifier pieces,
# keywords, whitespace (Unicode included), a comment start and a few
# characters that start no token.
EDITS = list("(){},|:'_aZ \n\t\u00a0§0-/") + [
    "->", "//", "pool", "pool x {", "task", "start", "end", "andSplit",
    "xorJoin", "taskRcv", "interSnd", "eventBased", " | ", "}", "{a, b}",
]
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
LIST_ITEM = re.compile(r",\s*(?:\([^()]*\)\s*)?[A-Za-z_][A-Za-z0-9_]*'*")


def outcome(parse, text):
    """The model's repr, or the error's class, message, position and expected."""
    try:
        return repr(parse(text))
    except ParseError as err:
        return type(err), str(err), err.position, err.expected


def mutate(rng: random.Random, text: str) -> str:
    """One to three random edits.  Each replaces, inserts or deletes a
    character, deletes a short stretch or a `, item` of a list (gateway
    arity), or puts one word of the text in the place of another (repeated
    edges and pools, self-communication)."""
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        op = rng.randrange(5)
        if op == 0:
            text = text[:pos] + rng.choice(EDITS) + text[pos + 1:]
        elif op == 1:
            text = text[:pos] + rng.choice(EDITS) + text[pos:]
        elif op == 2:
            text = text[:pos] + text[pos + rng.choice((1, 1, 2, 8, 20)):]
        elif op == 3:
            words = list(WORD.finditer(text))
            if words:
                a, b = rng.choice(words), rng.choice(words)
                text = text[:a.start()] + b.group() + text[a.end():]
        else:
            items = list(LIST_ITEM.finditer(text))
            if items:
                item = rng.choice(items)
                text = text[:item.start()] + text[item.end():]
    return text


def differential_cases(seed: int, mutations: int, noise: int) -> list[str]:
    """Every text fixture, `mutations` mutants of each, and `noise` strings."""
    rng = random.Random(seed)
    texts = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.txt"))]
    cases = list(texts)
    for text in texts:
        cases += [mutate(rng, text) for _ in range(mutations)]
    charset = string.ascii_letters[:8] + string.digits[:3] + "(){}|,->: \n'\t/§"
    cases += ["".join(rng.choice(charset) for _ in range(rng.randint(0, 60)))
              for _ in range(noise)]
    return cases


def test_parser_matches_the_oracle():
    parsed = 0
    for text in differential_cases(seed=10, mutations=40, noise=300):
        for name in ENTRY_POINTS:
            got = outcome(getattr(text_syntax, name), text)
            assert got == outcome(getattr(oracle_text_syntax, name), text), (name, text)
            parsed += isinstance(got, str)
    assert parsed > 100  # not every mutant is an error


# ---------------------------------------------------------------------------
# Scale guards: a backtracking or quadratic scan runs away on these.


def test_long_choreography_parses():
    n = 20_000
    tasks = " | ".join(f"task(e{i}, e{i + 1}, a->b:m{i})" for i in range(1, n - 1))
    ch = parse_choreography(f"start(e1) | {tasks} | end(e{n - 1}, e{n})")
    assert len(ch.nodes) == n


def test_unexpected_character_after_a_megabyte_of_blanks_and_comments():
    filler = ("   \t\n// any text: § é -> { ( |\n" * 40_000)[: 1 << 20]
    with pytest.raises(ParseError) as err:
        parse_choreography(filler + "\n§")
    assert err.value.position == len(filler) + 1
    assert str(err.value).startswith("unexpected character '§'")


@pytest.mark.parametrize("text, pools", [
    ("pool p { start(a) | end(a, b) } |", ("p",)),
    ("| pool p { start(a) | end(a, b) } ||| pool q { start(c) | end(c, d) } | |", ("p", "q")),
    ("|||| pool p { start(a) | end(a, b) } pool q { start(c) | end(c, d) }||", ("p", "q")),
])
def test_pipes_before_between_and_after_pools(text, pools):
    assert parse_collaboration(text).pool_names() == pools
