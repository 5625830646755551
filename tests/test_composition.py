import random

import pytest

from chorcheck import (
    Collaboration,
    CompositionError,
    InterRcv,
    InterSnd,
    MessageNameClash,
    SelfMessage,
    TaskRcv,
    TaskSnd,
    UnmatchedReceive,
    UnmatchedSend,
    compose,
    parse_collaboration,
    parse_process,
    print_model,
    rcv_map,
    snd_map,
    well_composed,
)
from generators import matched_process_tuple

NAMES = ("bk", "c", "bs")


def table_processes(procs, letters):
    return tuple(procs[x] for x in letters)


def test_snd_map_of_booking_roles(booking_processes):
    snd = snd_map(table_processes(booking_processes, "abd"), NAMES)
    assert snd == {
        "confirmation": "bk",
        "login": "c", "request": "c", "abort": "c", "book": "c", "pay": "c",
        "reply": "bs", "ticket": "bs",
    }


def test_rcv_map_of_booking_roles(booking_processes):
    rcv = rcv_map(table_processes(booking_processes, "abd"), NAMES)
    assert rcv == {
        "pay": "bk",
        "reply": "c", "ticket": "c",
        "login": "bs", "request": "bs", "abort": "bs", "book": "bs",
        "confirmation": "bs",
    }


def test_maps_empty_without_communication():
    silent = parse_process("start(a1) | task(a1, a2) | end(a2, a3)")
    assert snd_map((silent,), ("p",)) == {}
    assert rcv_map((silent,), ("p",)) == {}


def test_snd_clash_is_reported():
    p1 = parse_process("start(a1) | taskSnd(a1, a2, x) | end(a2, a3)")
    p2 = parse_process("start(b1) | taskSnd(b1, b2, x) | end(b2, b3)")
    with pytest.raises(CompositionError) as err:
        snd_map((p1, p2), ("p1", "p2"))
    (issue,) = err.value.issues
    assert isinstance(issue, MessageNameClash)
    assert issue.message == "x" and issue.role == "send"


def test_rcv_clash_even_within_one_pool():
    p = parse_process(
        "start(a1) | taskRcv(a1, a2, x) | taskRcv(a2, a4, x) | end(a4, a5)"
    )
    with pytest.raises(CompositionError):
        rcv_map((p,), ("p",))


def test_compose_booking_equals_fixture(
    booking_processes, booking_collaboration
):
    collab = compose(table_processes(booking_processes, "abd"), NAMES)
    assert collab == booking_collaboration
    assert well_composed(collab) == []


def test_compose_empty_tuple():
    collab = compose((), ())
    assert collab == Collaboration(())
    assert well_composed(collab) == []


def test_compose_reports_unmatched_send(booking_processes):
    with pytest.raises(CompositionError) as err:
        compose(table_processes(booking_processes, "abe"), NAMES)
    (issue,) = err.value.issues
    assert isinstance(issue, UnmatchedSend) and issue.message == "ack"


def test_compose_reports_unmatched_receive(booking_processes):
    with pytest.raises(CompositionError) as err:
        compose(table_processes(booking_processes, "acd"), NAMES)
    (issue,) = err.value.issues
    assert isinstance(issue, UnmatchedReceive) and issue.message == "ack"


def test_compose_rejects_self_message():
    p = parse_process(
        "start(a1) | taskSnd(a1, a2, x) | taskRcv(a2, a4, x) | end(a4, a5)"
    )
    other = parse_process("start(b1) | end(b1, b2)")
    with pytest.raises(CompositionError) as err:
        compose((p, other), ("p", "q"))
    (issue,) = err.value.issues
    assert isinstance(issue, SelfMessage) and issue.participant == "p"


def test_compose_rejects_duplicate_names(booking_processes):
    with pytest.raises(ValueError):
        compose(table_processes(booking_processes, "abd"), ("p", "p", "q"))


def test_compose_rejects_shared_edge_ids():
    p1 = parse_process("start(a1) | end(a1, a2)")
    p2 = parse_process("start(a1) | end(a1, a3)")
    with pytest.raises(ValueError):
        compose((p1, p2), ("p", "q"))


def test_table_of_role_combinations(booking_processes):
    """Only some role assignments compose; the rest fail on the ack message."""
    outcomes = {}
    for case, letters in enumerate("abd abe abf acd ace acf".split(), start=1):
        try:
            compose(table_processes(booking_processes, letters), NAMES)
            outcomes[case] = "ok"
        except CompositionError as err:
            outcomes[case] = type(err.issues[0]).__name__
    assert outcomes == {
        1: "ok",
        2: "UnmatchedSend",
        3: "UnmatchedSend",
        4: "UnmatchedReceive",
        5: "ok",
        6: "ok",
    }


def test_well_composed_flags_direct_self_message():
    collab = parse_collaboration(
        "pool A { start(a1) | taskSnd(a1, a2, A->A:m) | taskRcv(a2, a4, A->A:m) | end(a4, a5) }"
    )
    (issue,) = well_composed(collab)
    assert isinstance(issue, SelfMessage)


def test_well_composed_flags_unmatched_edges():
    collab = parse_collaboration(
        "pool A { start(a1) | taskSnd(a1, a2, A->B:m) | end(a2, a3) }"
        "pool B { start(b1) | taskRcv(b1, b2, A->B:n) | end(b2, b3) }"
    )
    issues = well_composed(collab)
    kinds = {type(i).__name__ for i in issues}
    assert kinds == {"UnmatchedSend", "UnmatchedReceive"}


def test_composition_always_well_composed():
    rng = random.Random(42)
    for _ in range(200):
        processes, names = matched_process_tuple(rng)
        collab = compose(processes, names)
        assert well_composed(collab) == []


def test_compose_is_permutation_equivariant():
    rng = random.Random(99)
    for _ in range(40):
        processes, names = matched_process_tuple(rng)
        collab = compose(processes, names)
        order = list(range(len(names)))
        rng.shuffle(order)
        shuffled = compose(
            tuple(processes[i] for i in order), tuple(names[i] for i in order)
        )
        assert sorted(shuffled.pools, key=lambda p: p.name) == sorted(
            collab.pools, key=lambda p: p.name
        )


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_generated_tuples_print_back_and_keep_node_classes(seed):
    # Send tasks and throw events (receive tasks and catch events) share one
    # semantics; the notation each node was written in must survive
    # printing, parsing and composition.
    rng = random.Random(seed)
    seen = set()
    for _ in range(100):
        processes, names = matched_process_tuple(rng)
        collab = compose(processes, names)
        for proc in processes:
            assert parse_process(print_model(proc)) == proc
        assert parse_collaboration(print_model(collab)) == collab
        for proc, pool in zip(processes, collab.pools):
            assert [type(n) for n in pool.nodes] == [type(n) for n in proc.nodes]
            seen.update(type(n) for n in proc.nodes)
    assert {TaskSnd, InterSnd, TaskRcv, InterRcv} <= seen
