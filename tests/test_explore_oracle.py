"""Packed-marking exploration against the tuple-marking reference.

`generate_lts` keeps each marking in one integer while it explores (see its
docstring).  For every input below, full and reduced, it must give exactly
the outcome of `oracle_explore.generate_lts`, which keeps markings as
tuples: the same `Lts` and `Lts.states`, or a `BoundExceeded` with the same
text, kind and counters.  The bounds include caps that need fields of 2, 4
and 8 bytes, and the tight bounds under which every kind of bound fails.
"""

import random

import pytest

import oracle_explore
from chorcheck import BoundExceeded, ExplorationBounds, compose, generate_lts, parse_collaboration
from chorcheck.semantics import DEFAULT_BOUNDS, _Packing, compile_net
from generators import fanin, matched_tuple_pair, xor_tuple_pair
from test_net_semantics import FIXTURE_MODELS, FLOODING, TIGHT_BOUNDS
from test_reduction import looping_pools, random_check_cases

# Caps past one byte (200 tokens), two bytes (70 000 messages) and four
# bytes (10**30, taken as 2**62); the state bound keeps unbounded models
# small under them.
WIDE_BOUNDS = [
    ExplorationBounds(max_tokens_per_edge=200, max_states=3_000),
    ExplorationBounds(max_messages_per_edge=70_000, max_states=3_000),
    ExplorationBounds(max_tokens_per_edge=10**30, max_messages_per_edge=10**30, max_states=3_000),
    ExplorationBounds(max_tokens_per_edge=300, max_messages_per_edge=300, max_states=100_000),
]

BOUNDS = [DEFAULT_BOUNDS, *WIDE_BOUNDS, *TIGHT_BOUNDS]


def outcome(explore, model, bounds=DEFAULT_BOUNDS, reduce=False, hidden=()):
    try:
        lts = explore(model, bounds, reduce=reduce, hidden=hidden)
    except BoundExceeded as err:
        return str(err), err.kind, err.detail, err.states, err.frontier
    return lts, lts.states


def assert_same(model, bounds=DEFAULT_BOUNDS, hidden=()):
    """Both explorations, full and reduced, agree; returns their outcomes."""
    got = []
    for reduce in (False, True):
        mine = outcome(generate_lts, model, bounds, reduce, hidden)
        assert mine == outcome(oracle_explore.generate_lts, model, bounds, reduce, hidden)
        got.append(mine)
    return got


def failed_kinds(outcomes):
    return {o[1] for o in outcomes if isinstance(o[0], str)}


@pytest.mark.parametrize("bounds", BOUNDS, ids=repr)
def test_fixtures_explore_like_the_oracle(bounds):
    kinds = set()
    for _, model in FIXTURE_MODELS:
        kinds |= failed_kinds(assert_same(model, bounds))
    kinds |= failed_kinds(assert_same(parse_collaboration(FLOODING), bounds))
    if bounds in WIDE_BOUNDS:
        assert kinds  # the unbounded fixtures still fail a bound


def test_wide_caps_are_met_at_their_value():
    """A message cap of 300 needs two-byte fields; the flooding sender meets
    it, and the message in excess is named with its count."""
    bounds = ExplorationBounds(max_messages_per_edge=300)
    full, reduced = assert_same(parse_collaboration(FLOODING), bounds)
    assert full[1] == reduced[1] == "messages"
    assert "would hold 301 messages" in full[0]


@pytest.mark.parametrize("pair,count", [(xor_tuple_pair, 10), (matched_tuple_pair, 25)])
@pytest.mark.parametrize("seed", [5, 31])
def test_random_pairs_explore_like_the_oracle(pair, count, seed):
    for a, b, hidden in random_check_cases(seed, count, pair, max_pools=3):
        assert_same(a, hidden=hidden)
        assert_same(b)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_looping_pools_explore_like_the_oracle(k):
    collab = parse_collaboration(looping_pools(k))
    for bounds in [DEFAULT_BOUNDS, *TIGHT_BOUNDS]:
        assert_same(collab, bounds)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_fanin_explores_like_the_oracle(k):
    choreography, collaboration = fanin(k)
    assert_same(choreography)
    (full, _), (reduced, _) = assert_same(collaboration)
    if k == 5:
        assert (full.n_states, reduced.n_states) == (9_888, 32)


def test_composed_pairs_under_wide_caps():
    rng = random.Random(7)
    for _ in range(10):
        first, second, names = xor_tuple_pair(rng, max_pools=3)
        for bounds in WIDE_BOUNDS[:3]:
            assert_same(compose(first, names), bounds)


def hash_spread(model, bounds=DEFAULT_BOUNDS):
    """(distinct hashes of the packed keys, states) of a reduced exploration."""
    lts = generate_lts(model, bounds, reduce=True)
    packing = _Packing(compile_net(model).places, bounds)
    return len({hash(packing.pack(m)) for m in lts.states}), lts.n_states


@pytest.mark.parametrize(
    "model",
    [fanin(12)[1], parse_collaboration(looping_pools(12))],
    ids=["fanin-12", "looping-pools-12"],
)
def test_packed_keys_hash_apart(model):
    """CPython hashes an int modulo 2**61 - 1, so one-byte fields 61 places
    apart (fan-in k=12 has 88 places) add alike to a hash; on these
    families no more than one key in a hundred may share its hash with
    another."""
    distinct, states = hash_spread(model)
    assert distinct >= 0.99 * states
