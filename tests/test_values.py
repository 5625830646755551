"""The value classes against `dataclasses` twins, kept here as the oracle.

Every subclass of `model.Value` is rebuilt with `dataclasses.make_dataclass(...,
frozen=True)` from the same fields, defaults and hand-written methods.  On
generated instances both must agree on repr, equality and hash (sibling
classes with the same fields included), construction, frozenness, `replace`
and the order of `MessageEdge`.
"""

import dataclasses
import random

import pytest

import chorcheck  # noqa: F401  (imports every module that defines value classes)
import oracle_explore
from chorcheck import export_aut, generate_lts, parse_aut, parse_collaboration
from chorcheck.model import (
    TAU,
    Collaboration,
    Comm,
    InterSnd,
    MessageEdge,
    Pool,
    Send,
    StartEvent,
    TaskSnd,
    Value,
    replace,
)
from chorcheck.semantics import Lts, _Columns
from conftest import fixture_text

VALUE_CLASSES = {
    "Tau", "Comm", "MessageEdge",
    "StartEvent", "EndEvent", "AndSplit", "AndJoin", "XorSplit", "XorJoin",
    "ChoreoTask", "Task", "Send", "Receive", "TaskSnd", "InterSnd", "TaskRcv", "InterRcv",
    "Branch", "EventBased", "Choreography", "Process", "Pool", "Collaboration",
    "ExplorationBounds", "Lts", "Net",
    "DistinguishingTrace", "NonSimulablePair", "ConformanceResult",
    "MessageNameClash", "SelfMessage", "UnmatchedSend", "UnmatchedReceive",
}
# Methods written by hand in a class body, which the twin takes over as they are.
HAND_WRITTEN = ("__str__", "__repr__", "__post_init__")


def value_classes():
    found, todo = [], list(Value.__subclasses__())
    while todo:
        cls = todo.pop(0)
        found.append(cls)
        todo += cls.__subclasses__()
    return found


def make_twin(cls, twins):
    namespace = {k: v for k, v in vars(cls).items() if k in HAND_WRITTEN}
    parent = cls.__bases__[0]
    if parent is not Value and "__annotations__" not in vars(cls):
        return type(cls.__name__, (twins[parent],), namespace)
    specs = []
    for name in cls._fields:
        shown = name in cls._compared
        if hasattr(cls, name):
            spec = dataclasses.field(default=getattr(cls, name), compare=shown, repr=shown)
        else:
            spec = dataclasses.field(compare=shown, repr=shown)
        specs.append((name, object, spec))
    return dataclasses.make_dataclass(
        cls.__name__, specs, namespace=namespace, frozen=True, order=cls is MessageEdge
    )


CLASSES = value_classes()
TWINS = {}
for _cls in CLASSES:
    TWINS[_cls] = make_twin(_cls, TWINS)

LEAVES = ["a", "b", None, 1, 2, (), ("a", "b"), TAU, Comm("a", "b", "m"),
          MessageEdge("a", "b", "m")]
LTS_FIELDS = {
    "n_states": [2, 3],
    "initial": [0, 1],
    "transitions": [(), ((0, TAU, 1),), ((1, Comm("a", "b", "m"), 0), (0, TAU, 1))],
}
POOLS = [(), (Pool("p", (StartEvent("s"),)),), (Pool("p", ()), Pool("q", (StartEvent("t"),)))]


def field_value(rng, name):
    if name == "pools":
        return rng.choice(POOLS)
    if name.startswith("max_"):
        return rng.randint(1, 3)
    if name in ("n_states", "initial", "transitions"):  # `Lts` builds its columns
        return rng.choice(LTS_FIELDS[name])
    return rng.choice(LEAVES)


def instances(seed=3, per_shape=3):
    """(real, twin) pairs: each class on the same value tuples as every
    class with the same fields, and each tuple built twice."""
    rng = random.Random(seed)
    shapes = {}
    out = []
    for cls in CLASSES:
        if cls._fields not in shapes:
            shapes[cls._fields] = [
                tuple([field_value(rng, f) for f in cls._fields]) for _ in range(per_shape)
            ]
        for values in shapes[cls._fields]:
            for _ in range(2):
                out.append((cls(*values), TWINS[cls](*values)))
    return out


def test_every_value_class_is_covered():
    assert {cls.__name__ for cls in CLASSES} == VALUE_CLASSES


def test_repr_and_hash_match_the_twin():
    for real, twin in instances():
        assert repr(real) == repr(twin)
        assert hash(real) == hash(twin)


def test_equality_matches_the_twin_pairwise():
    pairs = instances()
    for real_a, twin_a in pairs:
        for real_b, twin_b in pairs:
            assert (real_a == real_b) == (twin_a == twin_b), (real_a, real_b)
            assert (real_a != real_b) == (twin_a != twin_b), (real_a, real_b)
            if real_a == real_b:
                assert hash(real_a) == hash(real_b)


def test_siblings_with_equal_fields_differ():
    family = [cls("i", "o", "m") for cls in (Send, TaskSnd, InterSnd)]
    assert [a == b for a in family for b in family] == [
        True, False, False, False, True, False, False, False, True
    ]
    assert Comm("a", "b", "m") != MessageEdge("a", "b", "m")


def test_uncompared_and_derived_fields():
    a, b = Lts(1, 0, (), states=((1,),)), Lts(1, 0, (), states=((2,),))
    assert a == b and hash(a) == hash(b) and repr(a) == "Lts(n_states=1, initial=0, transitions=())"
    pools = POOLS[2]
    collab = Collaboration(pools)
    assert collab._fields == ("pools",)
    assert collab.nodes == TWINS[Collaboration](pools).nodes == (StartEvent("t"),)
    assert replace(collab, pools=POOLS[1]).nodes == (StartEvent("s"),)


def test_an_lts_is_one_value_however_it_is_stored():
    """A system given as its tuple, explored into columns, read back from
    `.aut` and made from shuffled, repeated tuples is one value: equal,
    with equal hash and repr; another initial state or one transition
    fewer makes another value.  Each holds its transitions in columns."""
    model = parse_collaboration(fixture_text("booking_collaboration.txt"))
    explored = generate_lts(model)
    tuples = oracle_explore.generate_lts(model).transitions
    n = explored.n_states
    given = Lts(n, 0, tuples)
    shuffled = list(tuples) * 2
    random.Random(6).shuffle(shuffled)
    systems = [given, explored, parse_aut(export_aut(explored)), Lts.make(n, 0, shuffled)]
    for a in systems:
        assert isinstance(a.transitions, _Columns)
        for b in systems:
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    for other in (Lts(n, 1, tuples), Lts.make(n, 0, tuples[1:])):
        assert all(other != a and repr(other) != repr(a) for a in systems)


def test_keyword_construction_and_defaults():
    for real, twin in instances(per_shape=1):
        cls, kwargs = type(real), {f: getattr(real, f) for f in real._fields}
        assert cls(**kwargs) == real
        required = [f for f in cls._fields if not hasattr(cls, f)]
        short_real = cls(*[kwargs[f] for f in required])
        short_twin = type(twin)(*[kwargs[f] for f in required])
        assert repr(short_real) == repr(short_twin)


def test_bad_arguments_are_type_errors():
    for real, twin in instances(per_shape=1):
        values = [getattr(real, f) for f in real._fields]
        for make in (type(real), type(twin)):
            with pytest.raises(TypeError):
                make(*values, no_such_field=1)
            if values:
                with pytest.raises(TypeError):
                    make(*values, **{real._fields[0]: values[0]})
            required = [f for f in real._fields if not hasattr(type(real), f)]
            if required:
                with pytest.raises(TypeError):
                    make(*values[: len(required) - 1])


def test_fields_cannot_be_assigned_or_deleted():
    for real, twin in instances(per_shape=1):
        for obj in (real, twin):
            for name in real._fields:
                with pytest.raises(AttributeError):
                    setattr(obj, name, "x")
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        # Stricter than a dataclass subclass such as `TaskSnd`, whose
        # inherited `__setattr__` lets names other than fields through.
        with pytest.raises(AttributeError):
            real.other = "x"


def test_replace_matches_dataclasses_replace():
    rng = random.Random(4)
    for real, twin in instances(per_shape=1):
        for name in real._fields:
            new = field_value(rng, name)
            assert repr(replace(real, **{name: new})) == repr(
                dataclasses.replace(twin, **{name: new})
            )
        assert replace(real) == real and replace(real) is not real


def test_message_edges_sort_like_the_twin():
    rng = random.Random(5)
    triples = [tuple(rng.choice("abc") for _ in range(3)) for _ in range(40)]
    real = sorted(MessageEdge(*t) for t in triples)
    twin = sorted(TWINS[MessageEdge](*t) for t in triples)
    assert [repr(e) for e in real] == [repr(e) for e in twin]
    a, b = MessageEdge("a", "b", "m"), MessageEdge("a", "c", "m")
    assert (a < b, a <= b, a > b, a >= b, a <= a) == (True, True, False, False, True)
    with pytest.raises(TypeError):
        a < Comm("a", "b", "m")
