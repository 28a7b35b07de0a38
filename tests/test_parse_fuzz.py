"""Malformed documents: every parser returns or raises SchemaError."""

from hypothesis import given, settings
from hypothesis import strategies as st

from raagfp import corpus
from raagfp.coabelian import parse_matrix
from raagfp.errors import SchemaError
from raagfp.fpcheck import parse_character
from raagfp.gog import parse_gog
from raagfp.graph import parse_graph

FUZZ = settings(max_examples=300, deadline=1000, derandomize=True,
                database=None)

names = st.sampled_from(["a", "b", "c", "v1", "v2"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | names | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3) | names, inner, max_size=3),
    max_leaves=8)
ints = st.integers() | st.sampled_from([2, 3, 5, 2 ** 31 - 1, 2 ** 61 - 1])

# documents shaped like each schema, with any JSON value in any slot, so
# the fuzz reaches past the first type check
graphs = st.fixed_dictionaries({}, optional={
    "vertices": st.lists(names, max_size=4) | json_values,
    "edges": st.lists(st.lists(names | json_values, min_size=2, max_size=2)
                      | json_values, max_size=3) | json_values})
characters = st.fixed_dictionaries({}, optional={
    "p": ints | json_values,
    "chi": st.dictionaries(names, ints | json_values, max_size=3)
    | json_values})
# every vertex and edge carries all its fields, so ids of any JSON type
# reach the graph-of-groups constructor
gog_ids = names | json_values
gog_vertices = st.fixed_dictionaries({"id": gog_ids,
                                      "order": ints | json_values})
gog_edges = st.fixed_dictionaries({"id": gog_ids, "d0": gog_ids,
                                   "d1": gog_ids, "order": ints | json_values})
gogs = st.fixed_dictionaries(
    {"vertices": st.lists(gog_vertices | json_values, max_size=3)},
    optional={"edges": st.lists(gog_edges | json_values, max_size=3)
              | json_values})
matrices = st.fixed_dictionaries({}, optional={
    "p": ints | json_values,
    "rows": st.lists(st.lists(ints | json_values, max_size=3), max_size=3)
    | json_values})


def returns_or_schema_error(parse, document):
    try:
        parse(document)
    except SchemaError:
        pass


@FUZZ
@given(graphs | json_values)
def test_parse_graph(document):
    returns_or_schema_error(parse_graph, document)


@FUZZ
@given(characters | json_values)
def test_parse_character(document):
    returns_or_schema_error(parse_character, document)


@FUZZ
@given(matrices | json_values)
def test_parse_matrix(document):
    graph = corpus.path(3)
    returns_or_schema_error(lambda doc: parse_matrix(doc, graph), document)


@FUZZ
@given(gogs | json_values)
def test_parse_gog(document):
    returns_or_schema_error(parse_gog, document)
