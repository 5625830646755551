"""Every producer of an `Lts` against tuple references.

An `Lts` keeps its transitions as a label table and int columns (see
`semantics._Columns`).  Each producer builds systems here: `generate_lts`
full, reduced and with hidden labels, `parse_aut` of an `.aut` text with
another initial state, `hide`, `Lts.make` and the `WeakPair` union.  Each
must read as the tuple of transitions worked out here from tuples alone
(the references of `oracle_explore`, or the generated triples), and the
refinement, both checkers and `export_aut`, which read the columns, must
answer as `oracle_weak` and `oracle_aut`, which read the tuples.
"""

import random

import pytest

import oracle_aut
import oracle_explore
import oracle_weak
from chorcheck import (
    TAU,
    Comm,
    Lts,
    check_bbc,
    check_tbc,
    export_aut,
    generate_lts,
    hide,
    hiding_set,
    parse_aut,
    parse_choreography,
    parse_collaboration,
)
from chorcheck.conformance import _refine, saturate_pair
from chorcheck.model import label_key
from conftest import fixture_text
from generators import fanin, matched_tuple_pair, xor_tuple_pair
from test_reduction import random_check_cases
from test_weak_layer import STUDY_PAIRS


def canonical(triples):
    """The transitions as an `Lts` reads them: sorted by (source, label,
    target), each once."""
    return tuple(sorted(set(triples), key=lambda t: (t[0], label_key(t[1]), t[2])))


def aut_text(rng, transitions, n_states):
    """An `.aut` text of `transitions` with the states numbered backwards,
    up to three more states and a random initial state, and the reference
    of the system it declares: (text, states, initial, transitions)."""
    n = n_states + rng.randint(0, 3)
    initial = rng.randrange(n)
    lines = [f"des ({initial}, {len(transitions)}, {n})"]
    lines += [f'({n - 1 - s}, "{label}", {n - 1 - t})' for s, label, t in transitions]
    flipped = canonical([(n - 1 - s, label, n - 1 - t) for s, label, t in transitions])
    return "\n".join(lines) + "\n", n, initial, flipped


def assert_systems_agree(rng, x, rx, y, ry, hidden):
    """`x` and `y`, which read as the references `rx` and `ry`, through
    `hide`, `parse_aut`, `Lts.make` and the union, and then refinement, the
    checkers and `export_aut` on what they give."""
    assert (x.transitions, y.transitions) == (rx, ry)
    z = hide(y, hidden)
    rz = canonical([(s, TAU if label in hidden else label, t) for s, label, t in ry])
    assert z.transitions == rz
    text, n, initial, rp = aut_text(rng, rz, z.n_states)
    parsed = parse_aut(text)
    assert (parsed.n_states, parsed.initial, parsed.transitions) == (n, initial, rp)
    repeated = list(rz) * 2
    rng.shuffle(repeated)
    made = Lts.make(z.n_states, z.initial, repeated)
    assert made.transitions == rz
    for a, ra, b, rb in ((x, rx, z, rz), (z, rz, x, rx), (x, rx, made, rz)):
        w = saturate_pair(a, b)
        k = a.n_states
        assert w.lts.transitions == ra + tuple([(s + k, label, t + k) for s, label, t in rb])
        wa, wb = oracle_weak.saturate(a), oracle_weak.saturate(b)
        assert _refine(w) == oracle_weak._refine(wa, wb)
        assert check_bbc(w) == oracle_weak.check_bbc(a, b)
        assert check_tbc(w) == oracle_weak.check_tbc(a, b)
    for lts in (x, y, z, parsed, made):
        assert export_aut(lts) == oracle_aut.export_aut(lts)


def assert_models_agree(rng, choreo, collab, hidden):
    """Both models explored full and reduced, the collaboration also with
    `hidden` explored as τ, against `oracle_explore`, then through the
    other producers."""
    for reduce in (False, True):
        ref = oracle_explore.generate_lts(collab, reduce=reduce, hidden=hidden)
        assert generate_lts(collab, reduce=reduce, hidden=hidden).transitions == ref.transitions
        x, y = generate_lts(choreo, reduce=reduce), generate_lts(collab, reduce=reduce)
        rx = tuple(oracle_explore.generate_lts(choreo, reduce=reduce).transitions)
        ry = tuple(oracle_explore.generate_lts(collab, reduce=reduce).transitions)
        assert_systems_agree(rng, x, rx, y, ry, hidden)


def test_fixture_pairs_through_every_producer():
    rng = random.Random(17)
    for ch_name, col_name in STUDY_PAIRS:
        choreo = parse_choreography(fixture_text(ch_name))
        collab = parse_collaboration(fixture_text(col_name))
        hidden = hiding_set(choreo, collab) or frozenset([min(
            generate_lts(collab).labels(), key=label_key
        )])
        assert_models_agree(rng, choreo, collab, hidden)


@pytest.mark.parametrize("pair,count", [(xor_tuple_pair, 6), (matched_tuple_pair, 15)])
def test_random_compositions_through_every_producer(pair, count):
    rng = random.Random(23)
    for a, b, hidden in random_check_cases(29, count, pair, max_pools=3):
        assert_models_agree(rng, a, b, hidden)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fanin_through_every_producer(k):
    choreo, collab = fanin(k)
    assert_models_agree(random.Random(k), choreo, collab, frozenset([Comm("p0", "hub", "m0")]))


def random_triples(rng, n):
    """Up to 3n transitions over `n` states, τ among them, possibly repeated."""
    labels = [TAU, Comm("A", "B", "m1"), Comm("A", "B", "m2"), Comm("B", "A", "m1")]
    return [
        (rng.randrange(n), rng.choice(labels), rng.randrange(n))
        for _ in range(rng.randint(0, 3 * n))
    ]


def test_random_systems_through_every_producer():
    rng = random.Random(37)
    for _ in range(300):
        systems = []
        for _ in range(2):
            n = rng.randint(1, 8)
            triples = random_triples(rng, n)
            systems += [Lts.make(n, rng.randrange(n), triples), canonical(triples)]
        hidden = frozenset(rng.sample([Comm("A", "B", "m1"), Comm("B", "A", "m1")], rng.randint(0, 2)))
        assert_systems_agree(rng, *systems, hidden)
