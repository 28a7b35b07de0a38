"""The four value types are immutable, and compare and hash by value.

``Character``, ``CoabelianSpec``, ``ZeroPattern`` and ``GogEdge`` are
plain ``__slots__`` classes: no field can be assigned or deleted after
construction, and inputs the caller keeps cannot reach inside them.
"""

import copy
import pickle

import pytest

from raagfp.coabelian import CoabelianSpec, ZeroPattern, enumerate_patterns
from raagfp.fpcheck import Character
from raagfp.gog import GogEdge


def values():
    """(value, equal value, different value, fields) per class."""
    return [
        (CoabelianSpec(3, ((1, 0, 1), (0, 1, 1)), ("a", "b", "c")),
         CoabelianSpec(3, [[1, 0, 1], [0, 1, 1]], ["a", "b", "c"]),
         CoabelianSpec(3, ((1, 0, 1), (0, 1, 0)), ("a", "b", "c")),
         ("p", "rows", "vertices")),
        (ZeroPattern(("a",), (0, 1)), ZeroPattern(["a"], [0, 1]),
         ZeroPattern(("b",), (0, 1)), ("zero_set", "certificate")),
        (GogEdge("e", "a", "b", 2), GogEdge("e", "a", "b", 2),
         GogEdge("e", "a", "b", 1), ("id", "d0", "d1", "order")),
        (Character(3, {"a": 1, "b": 0}), Character(3, {"a": 1, "b": 0}),
         Character(3, {"a": 1, "b": 2}), ("p", "values")),
    ]


NAMES = [type(v[0]).__name__ for v in values()]


@pytest.mark.parametrize("value, _equal, _other, fields", values(),
                         ids=NAMES)
def test_no_field_can_be_assigned_or_deleted(value, _equal, _other, fields):
    for name in fields + ("_patterns", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value, equal, other, fields", values(),
                         ids=NAMES)
def test_equality_is_by_class_and_fields(value, equal, other, fields):
    assert value == equal and not value != equal
    assert value != other
    assert value != tuple(getattr(value, f) for f in fields)
    assert repr(value).startswith(f"{type(value).__name__}({fields[0]}=")
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


@pytest.mark.parametrize("value, equal, _other, fields", values()[:3],
                         ids=NAMES[:3])
def test_hash_is_the_hash_of_the_fields(value, equal, _other, fields):
    assert hash(value) == hash(equal) == hash(
        tuple(getattr(value, f) for f in fields))
    assert {value: 1}[equal] == 1


def test_a_character_stays_unhashable():
    with pytest.raises(TypeError):
        hash(Character(2, {"a": 1}))


def test_spec_keeps_tuples_so_mutated_rows_cannot_stale_its_patterns():
    rows, vertices = [[1, 0, 1], [0, 1, 1]], ["a", "b", "c"]
    m = CoabelianSpec(3, rows, vertices)
    before = [p.zero_set for p in enumerate_patterns(m)]
    assert before == [(), ("a",), ("b",), ("c",)]
    rows[1][2] = 0
    vertices[0] = "z"
    assert m.rows == ((1, 0, 1), (0, 1, 1)) and m.vertices == ("a", "b", "c")
    assert [p.zero_set for p in enumerate_patterns(m)] == before
    changed = CoabelianSpec(3, rows, ("a", "b", "c"))
    assert [p.zero_set for p in enumerate_patterns(changed)] == \
        [(), ("b",), ("a", "c")]


def test_character_values_are_a_read_only_copy():
    given = {"a": 1, "b": 0}
    chi = Character(3, given)
    given["b"] = 5
    assert chi.values == {"a": 1, "b": 0}
    with pytest.raises(TypeError):
        chi.values["a"] = 2
    assert chi.values == {"a": 1, "b": 0}
