import json
from pathlib import Path

import examples

from raagfp.coabelian import parse_matrix
from raagfp.fpcheck import parse_character
from raagfp.gog import parse_gog
from raagfp.graph import parse_graph

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_shipped_corpus_parses():
    graphs = {}
    for path in sorted(CORPUS.glob("*.graph.json")):
        graphs[path.name.removesuffix(".graph.json")] = \
            parse_graph(json.loads(path.read_text()))
    assert len(graphs) >= 20
    for path in sorted(CORPUS.glob("*.chi.json")):
        chi = parse_character(json.loads(path.read_text()))
        name = path.name.split(".")[0]
        chi.require_defined_on(graphs[name])
    for path in sorted(CORPUS.glob("*.matrix.json")):
        name = path.name.split(".")[0]
        parse_matrix(json.loads(path.read_text()), graphs[name])
    assert len(list(CORPUS.glob("gog.*.json"))) >= 3
    for path in CORPUS.glob("gog.*.json"):
        parse_gog(json.loads(path.read_text()))


def test_builders_match_shipped_files():
    c4 = json.loads((CORPUS / "cycle4.graph.json").read_text())
    assert parse_graph(c4) == examples.cycle(4)
    octa = json.loads((CORPUS / "octahedron.graph.json").read_text())
    assert parse_graph(octa) == examples.octahedron()
    rp2 = json.loads((CORPUS / "rp2.graph.json").read_text())
    assert parse_graph(rp2) == examples.rp2()
    moore3 = json.loads((CORPUS / "moore3.graph.json").read_text())
    assert parse_graph(moore3) == examples.moore3()


def test_catalog_matches_classical_counts():
    from collections import Counter
    counts = Counter(len(g.vertices)
                     for g in examples.connected_graph_catalog(6))
    assert dict(counts) == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
