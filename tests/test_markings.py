import pytest

from hypothesis import given
from hypothesis import strategies as st

from oracle_semantics import UnderflowError, dec_tokens, inc_tokens

edges = st.text(alphabet="abcde", min_size=1, max_size=2)
markings = st.dictionaries(edges, st.integers(min_value=1, max_value=5), max_size=4)


def test_inc_single_edge():
    sigma = inc_tokens({}, {"e1"})
    assert sigma == {"e1": 1}


def test_inc_empty_set_is_identity():
    sigma = {"a": 2}
    assert inc_tokens(sigma, set()) == sigma


def test_inc_twice_counts_to_two():
    assert inc_tokens(inc_tokens({}, {"e"}), {"e"}) == {"e": 2}


def test_dec_inverts_inc():
    assert dec_tokens(inc_tokens({}, {"e"}), {"e"}) == {}


def test_dec_componentwise():
    sigma = {"a": 2, "b": 1}
    assert dec_tokens(sigma, {"a", "b"}) == {"a": 1}


def test_dec_empty_marking_underflows():
    with pytest.raises(UnderflowError):
        dec_tokens({}, {"e"})


def test_inputs_not_mutated():
    sigma = {"a": 1}
    inc_tokens(sigma, {"a"})
    dec_tokens(sigma, {"a"})
    assert sigma == {"a": 1}


@given(markings, edges)
def test_dec_inc_roundtrip(sigma, e):
    assert dec_tokens(inc_tokens(sigma, {e}), {e}) == sigma


@given(markings, st.sets(edges, max_size=3))
def test_inc_order_irrelevant(sigma, es):
    stepwise = dict(sigma)
    for e in sorted(es):
        stepwise = inc_tokens(stepwise, {e})
    assert inc_tokens(sigma, es) == stepwise


@given(markings)
def test_no_zero_entries_after_dec(sigma):
    grown = inc_tokens(sigma, list(sigma))
    shrunk = dec_tokens(grown, list(sigma))
    assert shrunk == sigma
    assert all(v > 0 for v in shrunk.values())
