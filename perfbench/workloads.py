"""Workload definitions: model families, the CLI calls each workload issues,
and the answer every call must produce.

Every expected answer below is written out by hand: for the generated
families it follows from how the family is built, and for the corpus it
restates the verdicts of the paper's case studies (the same verdicts the
acceptance tests assert).  The benchmark never uses the program's own output
as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"


# ---------------------------------------------------------------------------
# Scalable model families (textual syntax, see docs/text-syntax.md)


def fanin_choreography(k: int) -> str:
    """An and-split over k exchanges p_i->hub:m_i, joined again."""
    branches = " | ".join(f"task(c{i}, d{i}, p{i}->hub:m{i})" for i in range(k))
    outs = ", ".join(f"c{i}" for i in range(k))
    ins = ", ".join(f"d{i}" for i in range(k))
    return (
        f"start(s0) | andSplit(s0, {{{outs}}}) | {branches} | "
        f"andJoin({{{ins}}}, s1) | end(s1, s2)\n"
    )


def _sender_pools(k: int) -> list[str]:
    return [
        f"pool p{i} {{ start(a{i}) | taskSnd(a{i}, b{i}, p{i}->hub:m{i}) | end(b{i}, z{i}) }}"
        for i in range(k)
    ]


def fanin_collaboration(k: int) -> str:
    """k senders and a hub that reads the k messages in parallel."""
    reads = " | ".join(f"taskRcv(h{i}, r{i}, p{i}->hub:m{i})" for i in range(k))
    outs = ", ".join(f"h{i}" for i in range(k))
    ins = ", ".join(f"r{i}" for i in range(k))
    hub = (
        f"pool hub {{ start(x0) | andSplit(x0, {{{outs}}}) | {reads} | "
        f"andJoin({{{ins}}}, x1) | end(x1, x2) }}"
    )
    return "\n".join(_sender_pools(k) + [hub]) + "\n"


# ---------------------------------------------------------------------------
# Calls and their expected answers


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the answer it must give.

    `stdout` is the exact expected standard output.  For `lts` calls the
    output file is checked instead: `aut_sha256` is the digest of the `.aut`
    bytes and `aut_header` its `des (...)` line.
    """

    name: str
    argv: tuple[str, ...]
    code: int
    stdout: str = ""
    aut_sha256: str = ""
    aut_header: str = ""
    out: str = ""


def check_argv(*args: str) -> tuple[str, ...]:
    return ("check", *args, "--relation", "both", "--report", "lines")


FANIN_K = 3
LTS_K = 3

# The k=3 fan-in collaboration: 360 states, 1 104 transitions.  Its .aut
# bytes are a contract, so the digest is pinned.
LTS_AUT_SHA256 = "fa2e9b4dab228c7579ded6c1787de14d50fba52f05b10bd57699d1b582421f6d"


def generated_calls(workload: str, workdir: Path) -> list[Call]:
    """Write the family models for `workload` under `workdir`; return its calls."""
    workdir.mkdir(parents=True, exist_ok=True)

    def put(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    if workload == "fanin":
        k = FANIN_K
        ch = put(f"fanin{k}_choreography.txt", fanin_choreography(k))
        co = put(f"fanin{k}_collaboration.txt", fanin_collaboration(k))
        return [Call(f"fanin k={k}", check_argv(ch, co), 0, "tbc true\nbbc true\n")]
    if workload == "lts":
        k = LTS_K
        co = put(f"fanin{k}_collaboration.txt", fanin_collaboration(k))
        out = str(workdir / f"fanin{k}_collaboration.aut")
        return [
            Call(
                f"lts fan-in k={k}", ("lts", co, "-o", out), 0,
                aut_sha256=LTS_AUT_SHA256, aut_header="des (0, 1104, 360)", out=out,
            )
        ]
    raise ValueError(f"no generated family for workload {workload!r}")


def _fx(name: str) -> str:
    return str(CORPUS / name)


_ROLE_FILES = {
    "a": "bank.txt",
    "b": "customer_basic.txt",
    "c": "customer_ack.txt",
    "d": "booking_system_race.txt",
    "e": "booking_system_ack.txt",
    "f": "booking_system_xor.txt",
}


def _roles(letters: str, code: int, stdout: str) -> Call:
    files = ",".join(_fx(_ROLE_FILES[x]) for x in letters)
    argv = check_argv(_fx("booking_choreography.txt"), "--processes", files,
                      "--names", "bk,c,bs")
    return Call(f"booking roles {letters}", argv, code, stdout)


def _pair(name: str, choreography: str, collaboration: str, code: int, stdout: str) -> Call:
    return Call(name, check_argv(_fx(choreography), _fx(collaboration)), code, stdout)


def corpus_calls() -> list[Call]:
    """The paper's case studies, 19 CLI calls."""
    booking_leak = (
        "tbc false c->bs:login·c->bs:request·bs->c:reply·c->bk:pay collaboration\n"
        "bbc false c->bs:login·c->bs:request·bs->c:reply c->bk:pay collaboration\n"
    )
    both_hold = "tbc true\nbbc true\n"
    unmatched_ack_send = (
        "not composable:\n  UnmatchedSend: message 'ack' sent by 'bs' is never received\n"
    )
    two = "two_messages_choreography.txt"
    race = "race_choreography.txt"
    rr = "request_response_choreography.txt"
    return [
        # Role assignments: bank a; customers b, c; booking systems d, e, f.
        _roles("abd", 4, booking_leak),
        _roles("abe", 2, unmatched_ack_send),
        _roles("abf", 2, unmatched_ack_send),
        _roles("acd", 2, "not composable:\n"
                         "  UnmatchedReceive: message 'ack' expected by 'c' is never sent\n"),
        _roles("ace", 0, both_hold),
        _roles("acf", 4, "tbc true\nbbc false "
                         "c->bs:login·c->bs:request·bs->c:reply c->bs:abort choreography\n"),
        # Send order: only the in-order reader conforms.
        _pair("send order in order", two, "two_messages_inorder.txt", 0, both_hold),
        _pair("send order reversed", two, "two_messages_reversed.txt", 4,
              "tbc false A->B:m1 choreography\nbbc false - A->B:m1 choreography\n"),
        _pair("send order dropped", two, "two_messages_dropped.txt", 4,
              "tbc false A->B:m1·A->B:m2 choreography\n"
              "bbc false A->B:m1 A->B:m2 choreography\n"),
        _pair("send order parallel", two, "two_messages_parallel.txt", 4,
              "tbc false A->B:m2 collaboration\nbbc false - A->B:m2 collaboration\n"),
        # Event-based race: coordinated replies conform, independent ones do not.
        _pair("race", race, "race_collaboration.txt", 0, both_hold),
        _pair("race uncoordinated", race, "race_collaboration_uncoordinated.txt", 4,
              "tbc false A->B:m1·B->A:m3 collaboration\n"
              "bbc false A->B:m1 B->A:m3 collaboration\n"),
        # Request-response: an early reply breaks both relations unless gated.
        _pair("request-response direct", rr, "request_response_direct.txt", 0, both_hold),
        _pair("request-response early reply", rr, "request_response_early_reply.txt", 4,
              "tbc false B->A:m2 collaboration\nbbc false - B->A:m2 collaboration\n"),
        _pair("request-response guarded", rr, "request_response_guarded.txt", 0, both_hold),
        # Drink shopping: same traces, not bisimilar.
        _pair("drink shopping", "drink_shopping_choreography.txt",
              "drink_shopping_collaboration.txt", 4,
              "tbc true\nbbc false cust->bar:type bar->cust:drink choreography\n"),
        # Booking as one collaboration, in text and in BPMN XML.
        _pair("booking text", "booking_choreography.txt", "booking_collaboration.txt",
              4, booking_leak),
        _pair("booking bpmn", "booking_choreography.bpmn", "booking_collaboration.bpmn",
              4, booking_leak),
        _pair("booking bpmn ack", "booking_choreography.bpmn",
              "booking_collaboration_ack.bpmn", 0, both_hold),
    ]
