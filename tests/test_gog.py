import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from raagfp.cli import main
from raagfp.errors import SchemaError
from raagfp.gog import (GogEdge, GraphOfFiniteGroups, check_bounds,
                        euler_characteristic, euler_report, free_rank,
                        gog_document, is_dihedral_type, is_reduced,
                        lcm_vertex_orders, parse_gog, reduce)
from raagfp.verify import random_gog


def single_edge(ov, oe, ow):
    return GraphOfFiniteGroups([("v", ov), ("w", ow)], [("e", "v", "w", oe)])


def loop(ov, oe):
    return GraphOfFiniteGroups([("v", ov)], [("e", "v", "v", oe)])


# construction and parsing

def test_validation():
    with pytest.raises(SchemaError, match="divide"):
        single_edge(4, 3, 6)
    with pytest.raises(SchemaError, match="connected"):
        GraphOfFiniteGroups([("a", 1), ("b", 1)], [])
    with pytest.raises(SchemaError, match="unknown"):
        GraphOfFiniteGroups([("a", 1)], [("e", "a", "zz", 1)])
    with pytest.raises(SchemaError, match="duplicate"):
        GraphOfFiniteGroups([("a", 1), ("a", 2)], [])
    with pytest.raises(SchemaError, match="positive"):
        GraphOfFiniteGroups([("a", 0)], [])


def test_edges_are_kept_or_built_from_tuples():
    e = GogEdge("e", "a", "b", 2)
    x = GraphOfFiniteGroups([("a", 2), ("b", 4)], [("f", "a", "b", 1), e])
    assert x.edges[0] is e
    assert x.edges[1] == GogEdge("f", "a", "b", 1)


def test_graphs_of_groups_are_read_only():
    x = GraphOfFiniteGroups([("v", 4), ("w", 6)], [("e", "v", "w", 2)])
    with pytest.raises(TypeError):
        x.orders["v"] = 5
    for name in ("orders", "edges", "new"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert dict(x.orders) == {"v": 4, "w": 6}
    assert repr(x) == ("GraphOfFiniteGroups(vertices={'v': 4, 'w': 6}, "
                       "edges=[('e', 'v', 'w', 2)])")
    assert gog_document(x) == {
        "vertices": [{"id": "v", "order": 4}, {"id": "w", "order": 6}],
        "edges": [{"id": "e", "d0": "v", "d1": "w", "order": 2}]}
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert y == x and repr(y) == repr(x)
    assert x != single_edge(4, 2, 6 * 5) and x != "x"


def test_parse_roundtrip():
    doc = {"vertices": [{"id": "v", "order": 2}, {"id": "w", "order": 2}],
           "edges": [{"id": "e", "d0": "v", "d1": "w", "order": 1}]}
    x = parse_gog(doc)
    assert parse_gog(gog_document(x)) == x


def test_entries_that_are_not_objects_are_named(tmp_path, capsys):
    edge = {"id": "e", "d0": "v", "d1": "v", "order": 1}
    for doc, name in (({"vertices": ["v"], "edges": []}, "vertex entry 0"),
                      ({"vertices": [{"id": "v", "order": 2}],
                        "edges": [edge, 7]}, "edge entry 1")):
        with pytest.raises(SchemaError, match=f"{name} is not a JSON object"):
            parse_gog(doc)
        path = tmp_path / "gog.json"
        path.write_text(json.dumps(doc))
        assert main(["gog", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and name in err and "string indices" not in err


# reduced form

def test_is_reduced():
    assert not is_reduced(single_edge(2, 2, 2))
    assert is_reduced(single_edge(4, 2, 6))
    assert is_reduced(loop(5, 5))  # loops are exempt


def test_reduce_path_example():
    x = GraphOfFiniteGroups(
        [("a", 2), ("b", 2), ("c", 3)],
        [("e1", "a", "b", 2), ("e2", "b", "c", 1)])
    r = reduce(x)
    assert set(r.orders.items()) == {("b", 2), ("c", 3)}
    assert [(e.id, e.order) for e in r.edges] == [("e2", 1)]
    assert is_reduced(r)


def test_reduce_triangle_to_loop():
    x = GraphOfFiniteGroups(
        [("a", 2), ("b", 2), ("c", 2)],
        [("e1", "a", "b", 2), ("e2", "b", "c", 2), ("e3", "c", "a", 2)])
    r = reduce(x)
    assert list(r.orders.values()) == [2]
    assert len(r.edges) == 1 and r.edges[0].is_loop
    assert is_reduced(r)


def test_reduce_identity_on_reduced():
    x = single_edge(4, 2, 6)
    assert reduce(x) == x


def test_reduce_preserves_euler_characteristic():
    rng = random.Random("gog-chi")
    for _ in range(100):
        x = random_gog(rng, 6)
        assert euler_characteristic(x) == euler_characteristic(reduce(x))


# dihedral type

def test_is_dihedral_type():
    assert is_dihedral_type(single_edge(2, 1, 2))
    assert is_dihedral_type(loop(5, 5))
    assert not is_dihedral_type(single_edge(6, 2, 4))
    assert not is_dihedral_type(loop(4, 2))
    two_loops = GraphOfFiniteGroups(
        [("v", 2)], [("e1", "v", "v", 2), ("e2", "v", "v", 2)])
    assert not is_dihedral_type(two_loops)


# Euler characteristic and ranks

def test_euler_characteristic_examples():
    assert euler_characteristic(single_edge(2, 1, 2)) == 0
    assert euler_characteristic(loop(1, 1)) == 0
    two_loops = GraphOfFiniteGroups(
        [("v", 1)], [("e1", "v", "v", 1), ("e2", "v", "v", 1)])
    assert euler_characteristic(two_loops) == -1
    assert euler_characteristic(single_edge(4, 2, 6)) == Fraction(-1, 12)


def test_free_rank_examples():
    two_loops = GraphOfFiniteGroups(
        [("v", 1)], [("e1", "v", "v", 1), ("e2", "v", "v", 1)])
    assert free_rank(two_loops, 1) == 2
    assert free_rank(single_edge(2, 1, 2), 2) == 1
    assert free_rank(single_edge(4, 2, 4), 4) == 1
    with pytest.raises(ValueError, match="multiple"):
        free_rank(single_edge(2, 1, 2), 3)
    with pytest.raises(ValueError):
        free_rank(single_edge(2, 1, 2), 0)


def test_free_rank_schreier_affine():
    rng = random.Random("schreier")
    for _ in range(50):
        x = random_gog(rng, 5)
        ell = lcm_vertex_orders(x)
        r1 = free_rank(x, ell)
        for t in (2, 3, 4):
            assert free_rank(x, ell * t) - 1 == t * (r1 - 1)


def test_euler_report_table_integrality():
    x = single_edge(4, 2, 6)
    rep = euler_report(x)
    assert rep["lcm_orders"] == 12
    assert rep["ranks"] == {"12": 2, "24": 3, "36": 4, "48": 5}


# bounds

def test_check_bounds_example():
    report = check_bounds(single_edge(4, 2, 6), 12)
    assert report["rank"] == 2 and not report["defect"]
    (row,) = report["edges"]
    assert {(c["vertex"], c["index"], c["ok"])
            for c in row["vertex_index_checks"]} == \
        {("v", 2, True), ("w", 3, True)}
    assert row["quotient_index"] == 6 and row["quotient_ok"]


def test_check_bounds_skips_dihedral():
    report = check_bounds(single_edge(2, 1, 2), 2)
    assert report["quotient_clause_skipped"] == "dihedral type"
    assert all(r["quotient_ok"] is None for r in report["edges"])
    assert not report["defect"]


def test_check_bounds_skips_unreduced():
    report = check_bounds(single_edge(2, 2, 2), 2)
    assert report["quotient_clause_skipped"] == "not reduced"


def test_check_bounds_bouquet():
    two_loops = GraphOfFiniteGroups(
        [("v", 2)], [("e1", "v", "v", 2), ("e2", "v", "v", 2)])
    report = check_bounds(two_loops, 2)
    assert report["rank"] == 2
    assert all(r["quotient_index"] == 1 and r["quotient_ok"]
               for r in report["edges"])
    assert not report["defect"]


def test_bounds_hold_on_random_reduced_instances():
    rng = random.Random("bounds")
    checked = 0
    for _ in range(300):
        x = reduce(random_gog(rng, 6))
        if is_dihedral_type(x):
            continue
        m = lcm_vertex_orders(x) * rng.randint(1, 4)
        if free_rank(x, m) < 2:
            continue
        assert not check_bounds(x, m)["defect"]
        checked += 1
    assert checked > 50
