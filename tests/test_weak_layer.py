"""The condensed weak layer against the eager reference in `oracle_weak`.

Verdicts and counterexamples (states, paths and sides) must be exactly the
reference's, and so must every closure, weak successor set and enabled set.
"""

import random
import time
import tracemalloc

import pytest

import oracle_weak
from chorcheck import (
    TAU,
    Comm,
    Lts,
    check_bbc,
    check_tbc,
    compose,
    generate_lts,
    hide,
    hiding_set,
    parse_choreography,
    parse_collaboration,
    parse_process,
    saturate,
)
from chorcheck.conformance import InternalError, _bbc_witness, _refine, saturate_pair
from conftest import fixture_text
from generators import fanin, random_lts, tau_padded, xor_tuple_pair
from test_conformance import renumbered

A, B = Comm("A", "B", "m1"), Comm("A", "B", "m2")

# The (choreography, collaboration) pairs the acceptance gate checks.
STUDY_PAIRS = [
    ("booking_choreography.txt", "booking_collaboration.txt"),
    ("two_messages_choreography.txt", "two_messages_inorder.txt"),
    ("two_messages_choreography.txt", "two_messages_reversed.txt"),
    ("two_messages_choreography.txt", "two_messages_dropped.txt"),
    ("two_messages_choreography.txt", "two_messages_parallel.txt"),
    ("race_choreography.txt", "race_collaboration.txt"),
    ("race_choreography.txt", "race_collaboration_uncoordinated.txt"),
    ("request_response_choreography.txt", "request_response_direct.txt"),
    ("request_response_choreography.txt", "request_response_early_reply.txt"),
    ("request_response_choreography.txt", "request_response_guarded.txt"),
    ("drink_shopping_choreography.txt", "drink_shopping_collaboration.txt"),
]

# The composable role assignments of the booking scenario (bank, customer,
# booking system), as in the acceptance gate's role matrix.
ROLE_ASSIGNMENTS = [
    ("bank.txt", "customer_basic.txt", "booking_system_race.txt"),
    ("bank.txt", "customer_ack.txt", "booking_system_ack.txt"),
    ("bank.txt", "customer_ack.txt", "booking_system_xor.txt"),
]


def fixture_systems():
    """(choreography LTS, collaboration LTS, hidden labels) for every pair."""
    out = []
    for ch_name, col_name in STUDY_PAIRS:
        ch = parse_choreography(fixture_text(ch_name))
        col = parse_collaboration(fixture_text(col_name))
        out.append((generate_lts(ch), generate_lts(col), hiding_set(ch, col)))
    ch = parse_choreography(fixture_text("booking_choreography.txt"))
    for names in ROLE_ASSIGNMENTS:
        col = compose([parse_process(fixture_text(n)) for n in names], ("bk", "c", "bs"))
        out.append((generate_lts(ch), generate_lts(col), hiding_set(ch, col)))
    return out


def assert_same_results(a, b, hidden=frozenset()):
    assert check_tbc(a, b, hidden) == oracle_weak.check_tbc(a, b, hidden)
    assert check_bbc(a, b, hidden) == oracle_weak.check_bbc(a, b, hidden)


def assert_same_weak_sets(lts):
    new, ref = saturate(lts), oracle_weak.saturate(lts)
    assert new.alphabet == ref.alphabet
    for s in range(lts.n_states):
        assert new.closure(s) == ref.closure(s)
        assert new.enabled(s) == ref.enabled(s)
        for label in ref.alphabet | {Comm("A", "B", "absent")}:
            assert new.weak_succ(s, label) == ref.weak_succ(s, label)


def random_pairs(seed, count, wide=False):
    """Random systems, each against a τ-padded copy of itself or another
    random system.  Wide pairs draw up to 12 labels, 20 states and 12 steps
    a state, so one state's slice holds many ranks; a third of them have no
    τ but the padding's, and half the copies lose one step instead of being
    padded, so that traces part late."""
    rng = random.Random(seed)

    def draw_wide(alphabet, tau_weight):
        return random_lts(
            rng,
            max_states=rng.randint(1, 20),
            alphabet=alphabet,
            tau_weight=tau_weight,
            max_out=rng.randint(1, 12),
        )

    for i in range(count):
        if wide:
            alphabet = tuple(f"m{j}" for j in range(1, rng.randint(1, 12) + 1))
            tau_weight = rng.choice((0, 0.1, 0.34))
            a = draw_wide(alphabet, tau_weight)
            if i % 3 == 1:
                b = draw_wide(alphabet, tau_weight)
            elif i % 2 and len(a.transitions):
                steps = list(a.transitions)
                del steps[rng.randrange(len(steps))]
                b = Lts.make(a.n_states, a.initial, steps)
            else:
                b = tau_padded(rng, a)
        else:
            a = random_lts(
                rng,
                max_states=rng.randint(1, 7),
                alphabet=("m1", "m2", "m3")[: rng.randint(1, 3)],
                tau_weight=rng.choice((0.2, 0.34, 0.6)),
            )
            b = tau_padded(rng, a) if i % 3 == 0 else random_lts(rng, max_states=7)
        yield a, b, ({B} if i % 5 == 0 else frozenset())


@pytest.mark.parametrize(("seed", "wide"), [(101, False), (202, False), (404, True)])
def test_results_equal_the_reference_on_random_pairs(seed, wide):
    false_verdicts = 0
    for a, b, hidden in random_pairs(seed, 1000, wide):
        assert_same_results(a, b, hidden)
        assert_same_results(b, a, hidden)
        false_verdicts += not check_bbc(a, b, hidden).verdict
    assert 200 <= false_verdicts <= 900  # both verdicts well represented


@pytest.mark.parametrize(("seed", "wide"), [(303, False), (606, True)])
def test_weak_sets_equal_the_reference_on_random_systems(seed, wide):
    for a, b, hidden in random_pairs(seed, 400, wide):
        assert_same_weak_sets(a)
        assert_same_weak_sets(hide(b, hidden))


def test_results_and_weak_sets_equal_the_reference_on_fixtures():
    for chl, coll, hidden in fixture_systems():
        assert_same_results(chl, coll, hidden)
        assert_same_weak_sets(chl)
        assert_same_weak_sets(hide(coll, hidden))


def test_a_shared_saturated_pair_gives_the_same_results():
    for chl, coll, hidden in fixture_systems():
        weak = saturate_pair(chl, coll, hidden)
        assert check_tbc(weak) == check_tbc(chl, coll, hidden)
        assert check_bbc(weak) == check_bbc(chl, coll, hidden)


def test_the_pair_is_the_disjoint_union_of_both_weak_systems():
    for chl, coll, hidden in fixture_systems():
        coll = hide(coll, hidden)
        weak, n = saturate_pair(chl, coll), chl.n_states
        assert weak.split == n and weak.n_states == n + coll.n_states
        assert weak.initials == (chl.initial, n + coll.initial)
        assert weak.alphabet == saturate(chl).alphabet | saturate(coll).alphabet
        for side, offset in ((saturate(chl), 0), (saturate(coll), n)):
            for s in range(side.n_states):
                assert weak.closure(offset + s) == {offset + t for t in side.closure(s)}
                assert weak.enabled(offset + s) == side.enabled(s)
                for label in weak.alphabet:
                    assert weak.weak_succ(offset + s, label) == {
                        offset + t for t in side.weak_succ(s, label)
                    }


def test_witness_refuses_a_bisimilar_pair():
    rng = random.Random(5)
    a = random_lts(rng, max_states=6)
    weak = saturate_pair(a, tau_padded(rng, a))
    history = _refine(weak)
    sa, sb = weak.initials
    assert history[-1][sa] == history[-1][sb]
    with pytest.raises(InternalError) as info:
        _bbc_witness(weak, history)
    assert not isinstance(info.value, ValueError)


# ---------------------------------------------------------------------------
# τ-free pairs: refinement over strong steps with sparse signatures


def random_tau_free_pairs(seed, count):
    """Random τ-free systems, each against a random one, itself renumbered,
    or itself."""
    rng = random.Random(seed)
    for i in range(count):
        alphabet = ("m1", "m2", "m3")[: rng.randint(1, 3)]
        a = random_lts(rng, max_states=rng.randint(1, 7), alphabet=alphabet, tau_weight=0)
        if i % 3 == 0:
            b = random_lts(rng, max_states=7, alphabet=alphabet, tau_weight=0)
        else:
            b = renumbered(rng, a) if i % 3 == 1 else a
        yield a, b


def reduced_fanin_pairs(max_k):
    """Reduced fan-in, as `check` explores it: each choreography against its
    collaboration (conforming) and against the next smaller one (not)."""
    systems = []
    for k in range(1, max_k + 1):
        ch, co = fanin(k)
        systems.append((
            generate_lts(ch, reduce=True),
            generate_lts(co, reduce=True, hidden=hiding_set(ch, co)),
        ))
    for k, (chl, coll) in enumerate(systems):
        yield chl, coll
        yield coll, chl
        if k:
            yield chl, systems[k - 1][1]


def tau_free_xor_pairs(seed, count):
    """Reduced compositions of XOR-heavy process tuples, both ways round,
    where neither side keeps a τ-step."""
    rng = random.Random(seed)
    for _ in range(count):
        first, second, names = xor_tuple_pair(rng, max_pools=3)
        a, b = compose(first, names), compose(second, names)
        for x, y in ((a, b), (b, a)):
            lx = generate_lts(x, reduce=True)
            ly = generate_lts(y, reduce=True, hidden=hiding_set(x, y))
            if not any(label == TAU for lts in (lx, ly) for _, label, _ in lts.transitions):
                yield lx, ly


def assert_tau_free_results_equal_the_reference(a, b) -> bool:
    """Refinement history, BBC witness and TBC trace of a τ-free pair are
    exactly those of the reference; returns the BBC verdict."""
    weak = saturate_pair(a, b)
    assert weak._comp is None  # the strong path
    assert _refine(weak) == oracle_weak._refine(oracle_weak.saturate(a), oracle_weak.saturate(b))
    bbc = check_bbc(weak)
    assert bbc == oracle_weak.check_bbc(a, b)
    assert check_tbc(weak) == oracle_weak.check_tbc(a, b)
    return bbc.verdict


def test_tau_free_random_pairs_refine_like_the_reference():
    verdicts = [
        assert_tau_free_results_equal_the_reference(a, b)
        for a, b in random_tau_free_pairs(505, 600)
    ]
    assert 100 <= verdicts.count(False) <= 500


def test_tau_free_reduced_fanin_refines_like_the_reference():
    verdicts = [
        assert_tau_free_results_equal_the_reference(a, b) for a, b in reduced_fanin_pairs(6)
    ]
    assert verdicts.count(True) == 12 and verdicts.count(False) == 5


def test_tau_free_xor_pairs_refine_like_the_reference():
    """An XOR split is an internal choice, which stays a τ-step, so the
    τ-free pairs of this family are those without a reachable choice."""
    pairs = list(tau_free_xor_pairs(61, 400))
    for a, b in pairs:
        assert_tau_free_results_equal_the_reference(a, b)
    assert len(pairs) >= 20


def test_tau_padding_either_side_keeps_the_verdicts():
    """Padding one side of a τ-free pair moves its check from the strong
    path to the weak one; verdicts must not move."""
    rng = random.Random(707)
    pairs = list(random_tau_free_pairs(708, 300)) + list(reduced_fanin_pairs(4))
    crossed = 0
    for a, b in pairs:
        expected = [check(a, b).verdict for check in (check_tbc, check_bbc)]
        for x, y in ((a, tau_padded(rng, b)), (tau_padded(rng, a), b)):
            weak = saturate_pair(x, y)
            crossed += weak._comp is not None
            assert [check_tbc(weak).verdict, check_bbc(weak).verdict] == expected
    assert crossed >= len(pairs)


# ---------------------------------------------------------------------------
# Weak steps formed when taken


def unreduced_fanin_pairs(max_k):
    """Fully explored fan-in, the collaboration hidden, as an `.aut` pair is
    checked: each choreography against its own collaboration (conforming)
    and against the next smaller one (not).  Most collaboration steps are
    silent receives, so every TBC subset is a union of large closures."""
    models = [fanin(k) for k in range(1, max_k + 1)]
    for i, (ch, _) in enumerate(models):
        for j in (i, i - 1) if i else (i,):
            co = models[j][1]
            yield generate_lts(ch), hide(generate_lts(co), hiding_set(ch, co)), j == i


def test_unreduced_fanin_results_and_weak_sets_equal_the_reference():
    taus = 0
    for a, b, conforms in unreduced_fanin_pairs(3):
        for x, y in ((a, b), (b, a)):
            assert_same_results(x, y)
            assert check_tbc(x, y).verdict == check_bbc(x, y).verdict == conforms
        assert_same_weak_sets(b)
        taus = max(taus, sum(label == TAU for _, label, _ in b.transitions))
    assert taus == 888  # of the k=3 collaboration's 1 104 transitions


def test_a_conforming_tbc_search_keeps_no_weak_step_per_transition():
    """On reduced fan-in k=10, 1 024 states a side, the search holds only its
    product states: a stored weak step per (label, state), one union-wide
    int each, would take about 2.5 MiB."""
    ch, co = fanin(10)
    weak = saturate_pair(
        generate_lts(ch, reduce=True),
        generate_lts(co, reduce=True, hidden=hiding_set(ch, co)),
    )
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert check_tbc(weak).verdict
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 2**20, f"{peak} bytes at the peak of the search"


def test_a_wide_star_searches_in_time_linear_in_its_steps():
    """3 000 visible labels out of one state: the search sweeps each product
    state's steps once instead of testing every label at every one of the
    3 001 product states."""
    star = Lts.make(3001, 0, [(0, Comm("A", "B", f"m{i}"), i + 1) for i in range(3000)])
    start = time.perf_counter()
    assert check_tbc(star, star).verdict
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# Deep silent graphs: no recursion, one component per silent cycle

DEEP = 20_000


def test_long_tau_chain():
    # 0 -tau-> 1 -tau-> ... -tau-> DEEP-1 -A-> DEEP
    chain = [(s, TAU, s + 1) for s in range(DEEP - 1)] + [(DEEP - 1, A, DEEP)]
    lts = Lts.make(DEEP + 1, 0, chain)
    w = saturate(lts)
    assert len(set(w._comp)) == DEEP + 1
    assert len(w.closure(0)) == DEEP
    assert len(w.closure(DEEP // 2)) == DEEP - DEEP // 2
    assert w.weak_succ(0, A) == {DEEP}
    equivalent = Lts.make(2, 0, [(0, A, 1)])
    for x, y in ((lts, equivalent), (equivalent, lts)):
        assert check_tbc(x, y).verdict and check_bbc(x, y).verdict
    assert not check_bbc(lts, Lts.make(2, 0, [(0, B, 1)])).verdict


def test_long_tau_cycle_condenses_to_one_component():
    # 0 -tau-> 1 -tau-> ... -tau-> DEEP-1 -tau-> 0, and 0 -A-> DEEP
    cycle = [(s, TAU, (s + 1) % DEEP) for s in range(DEEP)] + [(0, A, DEEP)]
    lts = Lts.make(DEEP + 1, 0, cycle)
    w = saturate(lts)
    assert len(set(w._comp[:DEEP])) == 1
    assert len(set(w._comp)) == 2
    assert len(w.closure(0)) == len(w.closure(DEEP - 1)) == DEEP
    assert w.enabled(DEEP - 1) == {A}
    equivalent = Lts.make(2, 0, [(0, A, 1)])
    for x, y in ((lts, equivalent), (equivalent, lts)):
        assert check_tbc(x, y).verdict and check_bbc(x, y).verdict
    assert not check_tbc(lts, Lts.make(2, 0, [(0, A, 1), (1, B, 0)])).verdict
