import random

import pytest

from chorcheck import (
    TAU,
    AutSyntaxError,
    Comm,
    DistinguishingTrace,
    InputError,
    Lts,
    NonSimulablePair,
    check_bbc,
    check_tbc,
    compose,
    export_aut,
    generate_lts,
    hide,
    hiding_set,
    parse_aut,
    parse_choreography,
    parse_collaboration,
    saturate,
)
import oracle_aut
import oracle_weak
from conftest import GOLDEN, fixture_text
from generators import random_lts, tau_padded

A, B = Comm("A", "B", "m1"), Comm("A", "B", "m2")


# ---------------------------------------------------------------------------
# Saturation


def test_weak_step_absorbs_leading_tau():
    lts = Lts.make(3, 0, [(0, TAU, 1), (1, A, 2)])
    w = saturate(lts)
    assert w.weak_succ(0, A) == {2}
    assert w.closure(0) == {0, 1}
    assert w.enabled(0) == {A}


def test_tau_free_weak_relation_is_strong():
    lts = Lts.make(3, 0, [(0, A, 1), (1, B, 2)])
    w = saturate(lts)
    assert w.weak_succ(0, A) == {1}
    assert w.weak_succ(0, B) == frozenset()
    assert all(w.closure(s) == {s} for s in range(3))


def test_booking_initial_state_weakly_offers_login(booking_choreography):
    w = saturate(generate_lts(booking_choreography))
    assert w.enabled(w.initial) == {Comm("c", "bs", "login")}


# ---------------------------------------------------------------------------
# Verdicts on the study fixtures


def verdicts(ch_name, col_name):
    ch = parse_choreography(fixture_text(ch_name))
    col = parse_collaboration(fixture_text(col_name))
    chl, coll = generate_lts(ch), generate_lts(col)
    hidden = hiding_set(ch, col)
    return (
        check_tbc(chl, coll, hidden),
        check_bbc(chl, coll, hidden),
        (saturate(chl), saturate(hide(coll, hidden))),
    )


def assert_replays(result, wa, wb):
    """A false verdict's counterexample must re-execute mechanically.

    It is replayed on the reference weak systems of `tests/oracle_weak.py`,
    built from the transition systems behind `wa` and `wb`.
    """
    ce = result.counterexample
    assert ce is not None
    wa, wb = oracle_weak.saturate(wa.lts), oracle_weak.saturate(wb.lts)
    if isinstance(ce, DistinguishingTrace):
        on_choreo = wa.admits_trace(ce.labels)
        on_collab = wb.admits_trace(ce.labels)
        if ce.side == "choreography":
            assert on_choreo and not on_collab
        else:
            assert on_collab and not on_choreo
    else:
        assert isinstance(ce, NonSimulablePair)
        assert ce.choreo_state in wa.trace_states(ce.path)
        assert ce.collab_state in wb.trace_states(ce.path)
        in_choreo = ce.offending in wa.enabled(ce.choreo_state)
        in_collab = ce.offending in wb.enabled(ce.collab_state)
        if ce.side == "choreography":
            assert in_choreo and not in_collab
        else:
            assert in_collab and not in_choreo


def test_booking_collaboration_fails_both_relations():
    tbc, bbc, (wa, wb) = verdicts("booking_choreography.txt", "booking_collaboration.txt")
    assert not tbc.verdict and not bbc.verdict
    assert tbc.counterexample.labels == (
        Comm("c", "bs", "login"),
        Comm("c", "bs", "request"),
        Comm("bs", "c", "reply"),
        Comm("c", "bk", "pay"),
    )
    assert tbc.counterexample.side == "collaboration"
    assert_replays(tbc, wa, wb)
    assert_replays(bbc, wa, wb)


def test_coordinated_race_conforms():
    tbc, bbc, _ = verdicts("race_choreography.txt", "race_collaboration.txt")
    assert tbc.verdict and bbc.verdict


def test_uncoordinated_race_lets_a_reply_overtake():
    tbc, bbc, (wa, wb) = verdicts(
        "race_choreography.txt", "race_collaboration_uncoordinated.txt"
    )
    assert not tbc.verdict and not bbc.verdict
    assert_replays(tbc, wa, wb)


def test_drink_shopping_traces_match_but_deadlock_breaks_bisimulation():
    tbc, bbc, (wa, wb) = verdicts(
        "drink_shopping_choreography.txt", "drink_shopping_collaboration.txt"
    )
    assert tbc.verdict and not bbc.verdict
    assert_replays(bbc, wa, wb)


def test_reflexivity(booking_choreography):
    lts = generate_lts(booking_choreography)
    assert check_bbc(lts, lts).verdict
    assert check_tbc(lts, lts).verdict


def test_symmetry_with_empty_hiding():
    rng = random.Random(3)
    for _ in range(60):
        a, b = random_lts(rng), random_lts(rng)
        assert check_bbc(a, b).verdict == check_bbc(b, a).verdict
        assert check_tbc(a, b).verdict == check_tbc(b, a).verdict


# ---------------------------------------------------------------------------
# Oracles


def naive_weak_bisimilar(wa, wb) -> bool:
    """Greatest-fixpoint computation over raw state pairs (small systems only)."""
    alphabet = sorted(wa.alphabet | wb.alphabet, key=str)
    pairs = {(s, t) for s in range(wa.n_states) for t in range(wb.n_states)}

    def simulates(s, t):
        for l in alphabet:
            for s2 in wa.weak_succ(s, l):
                if not any((s2, t2) in pairs for t2 in wb.weak_succ(t, l)):
                    return False
            for t2 in wb.weak_succ(t, l):
                if not any((s2, t2) in pairs for s2 in wa.weak_succ(s, l)):
                    return False
        for s2 in wa.closure(s):
            if not any((s2, t2) in pairs for t2 in wb.closure(t)):
                return False
        for t2 in wb.closure(t):
            if not any((s2, t2) in pairs for s2 in wa.closure(s)):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(pairs):
            if pair in pairs and not simulates(*pair):
                pairs.discard(pair)
                changed = True
    return (wa.initial, wb.initial) in pairs


def dsucc(w, states, label):
    acc = set()
    for s in states:
        acc |= w.weak_succ(s, label)
    return frozenset(acc)


def product_size(wa, wb, alphabet):
    start = (wa.closure(wa.initial), wb.closure(wb.initial))
    seen = {start}
    todo = [start]
    while todo:
        sa, sb = todo.pop()
        for l in alphabet:
            nxt = (dsucc(wa, sa, l), dsucc(wb, sb, l))
            if nxt != (frozenset(), frozenset()) and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen)


def traces_upto(w, bound, alphabet):
    out = set()

    def rec(states, trace):
        out.add(trace)
        if len(trace) >= bound:
            return
        for l in alphabet:
            nxt = dsucc(w, states, l)
            if nxt:
                rec(nxt, trace + (l,))

    rec(w.closure(w.initial), ())
    return out


def test_tbc_agrees_with_trace_enumeration():
    rng = random.Random(17)
    tested = 0
    for _ in range(400):
        a = random_lts(rng, max_states=5)
        b = random_lts(rng, max_states=5)
        wa, wb = saturate(a), saturate(b)
        alphabet = sorted(wa.alphabet | wb.alphabet, key=str)
        bound = product_size(wa, wb, alphabet)
        if bound > 12:
            continue
        tested += 1
        expected = traces_upto(wa, bound, alphabet) == traces_upto(wb, bound, alphabet)
        result = check_tbc(a, b)
        assert result.verdict == expected
        if not result.verdict:
            assert_replays(result, wa, wb)
    assert tested >= 250


def test_bbc_agrees_with_naive_fixpoint():
    rng = random.Random(23)
    equal_seen = 0
    for i in range(300):
        a = random_lts(rng, max_states=4)
        b = tau_padded(rng, a) if i % 3 == 0 else random_lts(rng, max_states=4)
        wa, wb = saturate(a), saturate(b)
        result = check_bbc(a, b)
        assert result.verdict == naive_weak_bisimilar(wa, wb)
        equal_seen += result.verdict
        if not result.verdict:
            assert_replays(result, wa, wb)
    assert equal_seen >= 50  # the padded copies must mostly come out equivalent


def test_bisimulation_conformance_implies_trace_conformance():
    rng = random.Random(31)
    for i in range(300):
        a = random_lts(rng, max_states=5)
        b = tau_padded(rng, a) if i % 2 == 0 else random_lts(rng, max_states=5)
        if check_bbc(a, b).verdict:
            assert check_tbc(a, b).verdict


def test_tau_padding_preserves_weak_equivalence():
    rng = random.Random(37)
    for _ in range(80):
        a = random_lts(rng, max_states=5)
        assert check_bbc(a, tau_padded(rng, a)).verdict


def renumbered(rng, lts: Lts) -> Lts:
    """`lts` with its states permuted and, if it has two, its initial state moved."""
    number = list(range(lts.n_states))
    rng.shuffle(number)
    s0 = lts.initial
    if lts.n_states > 1 and number[s0] == s0:
        other = (s0 + 1) % lts.n_states
        number[s0], number[other] = number[other], number[s0]
    moved = [(number[src], label, number[tgt]) for src, label, tgt in lts.transitions]
    return Lts.make(lts.n_states, number[s0], moved)


def test_results_do_not_depend_on_state_numbering():
    """TBC's shortest trace is fixed by the trace languages, so its whole
    result survives renumbering; BBC's verdict does too, while its witness
    is picked by state number and may change."""
    rng = random.Random(41)
    verdicts = []
    for i in range(300):
        a = random_lts(rng, max_states=6)
        b = tau_padded(rng, a) if i % 2 == 0 else random_lts(rng, max_states=6)
        tbc, bbc = check_tbc(a, b), check_bbc(a, b)
        c, d = renumbered(rng, a), renumbered(rng, b)
        for x, y in ((c, b), (a, d), (c, d)):
            assert check_tbc(x, y) == tbc
            assert check_bbc(x, y).verdict == bbc.verdict
        verdicts.append((tbc.verdict, bbc.verdict))
    assert {(True, True), (True, False), (False, False)} <= set(verdicts)


# ---------------------------------------------------------------------------
# Aldebaran format


def test_export_single_state():
    lts = Lts.make(1, 0, [])
    assert export_aut(lts) == b"des (0, 0, 1)\n"


def test_export_minimal_choreography_matches_golden():
    lts = generate_lts(parse_choreography("start(e1) | end(e1, e2)"))
    assert export_aut(lts) == (GOLDEN / "minimal_choreography.aut").read_bytes()


def test_export_booking_matches_golden(booking_choreography, booking_collaboration):
    assert (
        export_aut(generate_lts(booking_choreography))
        == (GOLDEN / "booking_choreography.aut").read_bytes()
    )
    assert (
        export_aut(generate_lts(booking_collaboration))
        == (GOLDEN / "booking_collaboration.aut").read_bytes()
    )


def test_export_renders_like_the_reference():
    """Random systems, systems read back from `.aut` with another initial
    state and states without transitions, every golden file and the
    fixture systems whose export is golden."""
    rng = random.Random(61)
    systems = [random_lts(rng, max_states=n) for n in (1, 9, 40, 200) for _ in range(20)]
    for lts in systems[:40]:
        n = lts.n_states + rng.randint(0, 12)
        lines = [f"des ({rng.randrange(n)}, {len(lts.transitions)}, {n})"]
        lines += [f'({n - 1 - s}, "{label}", {n - 1 - t})' for s, label, t in lts.transitions]
        systems.append(parse_aut("\n".join(lines) + "\n"))
    systems += [parse_aut(path.read_bytes()) for path in sorted(GOLDEN.glob("*.aut"))]
    systems += [
        generate_lts(parse_choreography(fixture_text("booking_choreography.txt"))),
        generate_lts(parse_collaboration(fixture_text("booking_collaboration.txt"))),
        generate_lts(parse_choreography("start(e1) | end(e1, e2)")),
    ]
    assert any(lts.initial and lts.n_states > 10 for lts in systems)
    for lts in systems:
        assert export_aut(lts) == oracle_aut.export_aut(lts)


def test_parse_two_state_file():
    lts = parse_aut('des (0,1,2)\n(0,"tau",1)\n')
    assert lts == Lts.make(2, 0, [(0, TAU, 1)])


def test_parse_accepts_unquoted_labels():
    lts = parse_aut("des (0,1,2)\n(0, A->B:m1, 1)\n")
    assert lts.transitions == ((0, A, 1),)


def test_parse_merges_label_spellings_and_duplicates():
    # `i`, `tau`, quoted and unquoted spellings name the same labels.
    lts = parse_aut(
        'des (0,6,2)\n(1, "A->B:m1", 0)\n(0, i, 1)\n(0,"tau",1)\n'
        "(1, A->B:m1, 0)\n(0, A->B:m1, 1)\n(0, i, 0)\n"
    )
    assert lts.transitions == ((0, TAU, 0), (0, TAU, 1), (0, A, 1), (1, A, 0))


def test_round_trip_on_fixture_systems(booking_choreography, booking_collaboration):
    for model in (booking_choreography, booking_collaboration):
        lts = generate_lts(model)
        assert parse_aut(export_aut(lts)) == lts


def test_round_trip_on_random_systems():
    rng = random.Random(41)
    for _ in range(100):
        lts = random_lts(rng, max_states=8)
        assert parse_aut(export_aut(lts)) == lts


def test_header_transition_count_must_match():
    with pytest.raises(AutSyntaxError):
        parse_aut('des (0, 2, 2)\n(0,"tau",1)\n')


def test_bad_header_rejected():
    with pytest.raises(AutSyntaxError):
        parse_aut("hello\n")


def test_out_of_range_endpoint_rejected():
    with pytest.raises(AutSyntaxError):
        parse_aut('des (0,1,2)\n(0,"tau",5)\n')


def test_numbers_too_long_for_int_rejected():
    huge = "1" + "0" * 5000  # beyond the interpreter's int digit limit
    with pytest.raises(AutSyntaxError, match="line 1"):
        parse_aut(f"des (0, 0, {huge})\n")
    with pytest.raises(AutSyntaxError, match="outside declared states.*line 2"):
        parse_aut(f'des (0,1,2)\n(0,"tau",{huge})\n')


def test_unparseable_label_rejected():
    with pytest.raises(AutSyntaxError):
        parse_aut('des (0,1,2)\n(0,"justaword",1)\n')


def test_export_rejects_unprintable_names():
    lts = Lts.make(2, 0, [(0, Comm('a"b', "c", "m"), 1)])
    with pytest.raises(ValueError):
        export_aut(lts)
    # .aut is ASCII: a non-ASCII name is refused by name, not by the encoder.
    lts = Lts.make(2, 0, [(0, Comm("a", "b", "réservé"), 1)])
    with pytest.raises(ValueError, match="label part 'réservé'"):
        export_aut(lts)


def test_export_rejects_labels_that_would_read_back_differently():
    for label in (Comm("a", "b:c", "m"), Comm("a->b", "c", "m"), Comm("a", "", "m")):
        with pytest.raises(ValueError):
            export_aut(Lts.make(2, 0, [(0, label, 1)]))
    tricky = Lts.make(2, 0, [(0, Comm("a:x", "b->c", "m:->n"), 1)])
    assert parse_aut(export_aut(tricky)) == tricky


def test_labels_round_trip_or_are_refused_on_generated_names():
    rng = random.Random(43)
    chars = "ab:->- " * 4 + "\t\n\"(),"  # mostly legal, now and then not
    exported = 0
    for _ in range(3000):
        names = ["".join(rng.choice(chars) for _ in range(rng.randint(1, 4)))
                 for _ in range(3)]
        lts = Lts.make(2, 0, [(0, Comm(*names), 1), (1, TAU, 0)])
        try:
            data = export_aut(lts)
        except ValueError:
            continue
        assert parse_aut(data) == lts
        exported += 1
    assert exported >= 400


def test_checkers_work_on_reimported_systems(booking_choreography, booking_collaboration):
    chl = parse_aut(export_aut(generate_lts(booking_choreography)))
    coll = parse_aut(export_aut(generate_lts(booking_collaboration)))
    hidden = coll.labels() - chl.labels()
    assert not check_tbc(chl, coll, hidden).verdict


def test_internal_choice_mismatch_is_witnessed_by_a_deadlock(
    booking_processes, booking_choreography
):
    """The xor-guessing booking system can strand everyone; the witness shows it."""
    collab = compose(
        (booking_processes["a"], booking_processes["c"], booking_processes["f"]),
        ("bk", "c", "bs"),
    )
    chl, coll = generate_lts(booking_choreography), generate_lts(collab)
    hidden = hiding_set(booking_choreography, collab)
    result = check_bbc(chl, coll, hidden)
    assert not result.verdict
    ce = result.counterexample
    assert isinstance(ce, NonSimulablePair)
    assert ce.side == "choreography"
    stuck = saturate(hide(coll, hidden))
    assert stuck.enabled(ce.collab_state) == frozenset()


def test_export_names_the_first_bad_label_in_transition_order():
    """State 0's bad label comes first in transition order, though state 1's
    sorts first among the labels."""
    lts = Lts.make(3, 0, [
        (1, Comm("a", "b", 'late"'), 2),
        (0, Comm("a", "b", "ok"), 1),
        (0, Comm("x", "y", 'early"'), 2),
    ])
    assert [str(label) for _, label, _ in lts.transitions] == [
        "a->b:ok", 'x->y:early"', 'a->b:late"',
    ]
    with pytest.raises(InputError, match="label part 'early\"'"):
        export_aut(lts)
