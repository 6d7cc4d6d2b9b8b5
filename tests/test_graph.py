"""Tests for graph construction, validation, JSON interchange, generation."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resmat import graph, linalg, reader
from resmat.graph import (
    GNP_MAX_ATTEMPTS,
    RANDOM_MODELS,
    Edge,
    GenerationError,
    GraphError,
    MatrixWeightedGraph,
    adjacency,
    complete_graph,
    cycle_graph,
    from_edges,
    is_tree,
    path_graph,
    random_graph,
    random_pd_weight,
    serialize,
    star_graph,
)
from resmat.linalg import (
    EPS,
    SYMMETRY_RTOL,
    NumericError,
    certified_definite,
    sym_eigenvalues,
    symmetrize,
)
from resmat.reader import parse_graph


def unit(s=1):
    return np.eye(s)


def validation_message(n, s, edges) -> str:
    """The message of the GraphError that building the graph from
    ``(u, v, weight)`` triples raises, or "" when the graph is valid."""
    try:
        from_edges(n, s, edges)
    except GraphError as exc:
        return str(exc)
    return ""


def revalidated(g) -> bool:
    """Whether a constructed graph's own edges build a graph again."""
    return validation_message(g.n, g.s, [(e.u, e.v, e.weight) for e in g.edges]) == ""


class TestValidation:
    def test_valid_path(self):
        assert validation_message(2, 1, [(0, 1, unit())]) == ""

    @pytest.mark.parametrize("n", [1, 0, -2, 2.0, True, "3"])
    def test_bad_vertex_count(self, n):
        message = validation_message(n, 1, [])
        assert message == f"vertex count n must be an integer >= 2, got {n!r}"

    @pytest.mark.parametrize("s", [0, -1, 1.5, False])
    def test_bad_block_size(self, s):
        message = validation_message(2, s, [(0, 1, unit())])
        assert message == f"block size s must be an integer >= 1, got {s!r}"

    def test_endpoint_out_of_range(self):
        message = validation_message(2, 1, [(0, 5, unit())])
        assert message == "edge #1 (1, 6): endpoints out of range 1..2"

    def test_self_loop(self):
        message = validation_message(2, 1, [(1, 1, unit())])
        assert message == "edge #1: self-loop at vertex 2"

    def test_reversed_endpoints(self):
        message = validation_message(2, 1, [(1, 0, unit())])
        assert message == "edge #1 (2, 1): endpoints must satisfy u < v"

    def test_duplicate_edge(self):
        message = validation_message(2, 1, [(0, 1, unit()), (0, 1, 2 * unit())])
        assert message == "edge #2 (1, 2): duplicate edge"

    def test_wrong_weight_shape(self):
        message = validation_message(2, 2, [(0, 1, unit(1))])
        assert message == "edge #1 (1, 2): weight shape (1, 1) != (2, 2)"

    def test_non_finite_weight(self):
        message = validation_message(2, 1, [(0, 1, [[np.nan]])])
        assert message == "edge #1 (1, 2): weight has non-finite entries"

    def test_asymmetric_weight(self):
        w = [[1.0, 0.5], [0.0, 1.0]]
        message = validation_message(2, 2, [(0, 1, w)])
        assert message == (
            "edge #1 (1, 2): weight is not symmetric (max asymmetry 5.000e-01)"
        )

    @pytest.mark.parametrize("w, gap", [
        # max|W| = 1, so the limit is exactly 2 * SYMMETRY_RTOL: on it the
        # weight is averaged, one ulp above it and far beyond it refused.
        ([[1.0, 0.0], [2 * SYMMETRY_RTOL, 1.0]], None),
        ([[1.0, 0.0], [np.nextafter(2 * SYMMETRY_RTOL, 1.0), 1.0]], "2.000e-10"),
        ([[1.0, 1.7e308], [-1.7e308, 1.0]], "inf"),
    ])
    def test_asymmetry_verdict_and_gap_match_symmetrize(self, w, gap):
        # The constructor and linalg.symmetrize share one asymmetry test.
        message = validation_message(2, 2, [(0, 1, w)])
        if gap is None:
            symmetrize(w)
            assert message == ""
            return
        with pytest.raises(NumericError) as exc:
            symmetrize(w)
        assert f"max asymmetry {gap} exceeds" in str(exc.value)
        assert message == (
            f"edge #1 (1, 2): weight is not symmetric (max asymmetry {gap})"
        )

    def test_indefinite_weight(self):
        w = [[1.0, 2.0], [2.0, 1.0]]
        message = validation_message(2, 2, [(0, 1, w)])
        assert message == (
            "edge #1 (1, 2): weight is not positive definite "
            "(smallest eigenvalue -1.000000e+00)"
        )

    def test_singular_weight(self):
        w = [[1.0, 1.0], [1.0, 1.0]]
        message = validation_message(2, 2, [(0, 1, w)])
        assert message == (
            "edge #1 (1, 2): weight is not positive definite "
            "(smallest eigenvalue 0.000000e+00)"
        )

    def test_negative_weight(self):
        message = validation_message(2, 1, [(0, 1, [[-1.0]])])
        assert message == (
            "edge #1 (1, 2): weight is not positive definite "
            "(smallest eigenvalue -1.000000e+00)"
        )

    @pytest.mark.parametrize("w", ["abc", [[1.0], [2.0, 3.0]]])
    def test_malformed_weight_is_one_problem(self, w):
        # One weight that does not convert to numbers is reported alone, as
        # a GraphError, never as numpy's raw ValueError.
        edges = [(0, 1, w), (1, 2, np.eye(2))]
        with pytest.raises(GraphError) as exc:
            from_edges(3, 2, edges)
        message = str(exc.value)
        assert message.startswith("edge #1: malformed weight: ")
        assert validation_message(3, 2, edges) == message

    def test_disconnected(self):
        message = validation_message(4, 1, [(0, 1, unit()), (2, 3, unit())])
        assert message == "graph is not connected"

    def test_no_edges_disconnected(self):
        assert validation_message(2, 1, []) == "graph is not connected"

    def test_multiple_problems_all_reported(self):
        message = validation_message(3, 1, [(0, 0, unit()), (1, 0, unit())])
        assert message == (
            "edge #1: self-loop at vertex 1; "
            "edge #2 (2, 1): endpoints must satisfy u < v"
        )

    def test_problems_in_edge_order_with_exact_wording(self):
        # Weight checks run on all edges at once; every problem must still
        # come out in edge order, one per edge, worded as before.
        message = validation_message(4, 2, [
            (0, 1, [[1.0, 2.0], [2.0, 1.0]]),
            (0, 0, np.eye(2)),
            (1, 2, [[1.0, np.inf], [0.0, 1.0]]),
            (0, 2, [[1.0, 0.5], [0.0, 1.0]]),
            (2, 1, np.eye(2)),
            (0, 2, np.eye(2)),
            (2, 3, np.eye(3)),
            (1, 3, [[1.0, 1.0], [1.0, 1.0]]),
            (0, 3, [[2.0, 0.0], [0.0, 1.0]]),
        ])
        assert message == "; ".join((
            "edge #1 (1, 2): weight is not positive definite "
            "(smallest eigenvalue -1.000000e+00)",
            "edge #2: self-loop at vertex 1",
            "edge #3 (2, 3): weight has non-finite entries",
            "edge #4 (1, 3): weight is not symmetric (max asymmetry 5.000e-01)",
            "edge #5 (3, 2): endpoints must satisfy u < v",
            "edge #6 (1, 3): duplicate edge",
            "edge #7 (3, 4): weight shape (3, 3) != (2, 2)",
            "edge #8 (2, 4): weight is not positive definite "
            "(smallest eigenvalue 0.000000e+00)",
        ))

    def test_one_based_labels_in_messages(self):
        message = validation_message(3, 1, [(0, 3, unit())])
        assert message == "edge #1 (1, 4): endpoints out of range 1..3"

    def test_validate_roundtrip(self):
        g = path_graph(3)
        assert revalidated(g)
        assert MatrixWeightedGraph(g.n, g.s, g.endpoints, g.weights) == g


class TestFromEdges:
    def test_sorts_edges_canonically(self):
        g = from_edges(3, 1, [(1, 2, unit()), (0, 1, unit())])
        assert [(e.u, e.v) for e in g.edges] == [(0, 1), (1, 2)]
        assert [e.index for e in g.edges] == [0, 1]

    def test_raises_with_all_problems(self):
        with pytest.raises(GraphError) as exc:
            from_edges(3, 1, [(0, 0, unit()), (2, 1, unit())])
        assert "self-loop" in str(exc.value)
        assert "u < v" in str(exc.value)

    @pytest.mark.parametrize("entry", [(0, 1), (0, 1, 2, [[1.0]]), 5])
    def test_non_triples_refused(self, entry):
        # A GraphError naming the entry, never Python's unpacking ValueError.
        message = r"^edge #1 must be a \(u, v, weight\) triple$"
        with pytest.raises(GraphError, match=message):
            from_edges(2, 1, [entry])

    def test_weights_symmetrized_and_frozen(self):
        w = np.array([[2.0, 1.0 + 1e-13], [1.0, 2.0]])
        g = from_edges(2, 2, [(0, 1, w)])
        stored = g.edges[0].weight
        assert np.array_equal(stored, stored.T)
        with pytest.raises(ValueError):
            stored[0, 0] = 9.0

    def test_weights_match_per_edge_symmetrization(self):
        # The stacked symmetrization is bitwise the per-edge (W + W') / 2,
        # and every edge gets its own weight back after sorting.
        rng = np.random.default_rng(8)
        pairs = [(2, 3), (0, 3), (1, 2), (0, 1), (1, 3)]
        raw = []
        for _ in pairs:
            w = random_pd_weight(rng, 3)
            w[0, 2] *= 1.0 + 1e-12
            raw.append(w)
        triples = [(u, v, w) for (u, v), w in zip(pairs, raw)]
        triples[0] = (2, 3, raw[0].tolist())
        g = from_edges(4, 3, triples)
        expected = {(u, v): (w + w.T) / 2.0 for (u, v), w in zip(pairs, raw)}
        assert [(e.u, e.v) for e in g.edges] == sorted(pairs)
        for e in g.edges:
            assert np.array_equal(e.weight, expected[(e.u, e.v)])
            assert e.weight.shape == (3, 3) and not e.weight.flags.writeable

    def test_direct_construction_needs_one_weight_per_pair(self):
        with pytest.raises(GraphError, match="^2 endpoint pairs but 1 weights$"):
            MatrixWeightedGraph(3, 1, [(0, 1), (1, 2)], [[[1.0]]])

    def test_equality_is_structural(self):
        a = path_graph(3, 2, np.array([[2.0, 0.0], [0.0, 1.0]]))
        b = path_graph(3, 2, np.array([[2.0, 0.0], [0.0, 1.0]]))
        c = path_graph(3, 2, np.array([[3.0, 0.0], [0.0, 1.0]]))
        assert a == b
        assert a != c
        assert a != "graph"
        with pytest.raises(TypeError):
            hash(a)


class TestIntegerEndpoints:
    """Every route to a graph converts endpoints once, in its validation,
    and refuses what a conversion to intp would truncate."""

    MESSAGE = "edge #1: endpoints must be integers"

    def test_message_names_fractional_endpoint(self):
        assert validation_message(2, 1, [(0, 1.7, [[1.0]])]) == self.MESSAGE

    def test_from_edges_does_not_truncate(self):
        with pytest.raises(GraphError, match=f"^{self.MESSAGE}$"):
            from_edges(3, 1, [(0.9, 1.2, [[1.0]]), (1, 2, [[1.0]])])

    @pytest.mark.parametrize(
        "u", [True, "1", 1.0, np.float64(1.0), np.bool_(True), None]
    )
    def test_non_integers_refused(self, u):
        with pytest.raises(GraphError, match="^edge #2: endpoints must be integers$"):
            from_edges(3, 1, [(0, 1, [[1.0]]), (u, 2, [[1.0]])])

    @pytest.mark.parametrize("endpoints", [
        np.array([[0.0, 1.0]]),
        np.array([[False, True]]),
        [(0, "1")],
    ])
    def test_direct_construction_refuses(self, endpoints):
        with pytest.raises(GraphError, match=f"^{self.MESSAGE}$"):
            MatrixWeightedGraph(2, 1, endpoints, [[[1.0]]])

    @pytest.mark.parametrize("endpoints", [
        [(0, 1)],
        np.array([[0, 1]], dtype=np.int32),
        np.array([[0, 1]], dtype=np.uint8),
        [(np.int64(0), np.int16(1))],
    ])
    def test_integers_accepted(self, endpoints):
        g = MatrixWeightedGraph(2, 1, endpoints, [[[1.0]]])
        assert g.endpoints.dtype == np.intp and g.endpoints.tolist() == [[0, 1]]

    @pytest.mark.parametrize("endpoints, position", [
        ([(0, 1, 2)], 1),
        ([[0, 1, 2, 3]], 1),
        ([0, 1], 1),
        ([[[0, 1]]], 1),
        (np.array([[0, 1, 2]]), 1),
        ([(0, 1), (1,)], 2),
        ([(0, 1), (1, 2, 0)], 2),
    ])
    def test_non_pairs_refused(self, endpoints, position):
        # Each entry must be one (u, v) pair: a triple is not read as a
        # pair and a weight, nor a flat list or a quadruple as two pairs.
        message = f"^edge #{position}: endpoints must be one \\(u, v\\) pair$"
        with pytest.raises(GraphError, match=message):
            MatrixWeightedGraph(3, 1, endpoints, [[[1.0]], [[1.0]]])

    @pytest.mark.parametrize("endpoints", [None, 5])
    def test_no_list_refused(self, endpoints):
        with pytest.raises(GraphError, match="^endpoints must be a list of"):
            MatrixWeightedGraph(2, 1, endpoints, [[[1.0]]])

    def test_replace_keeps_endpoints(self):
        g = path_graph(3)
        assert dataclasses.replace(g, weights=2.0 * g.weights).endpoints.tolist() == [
            [0, 1],
            [1, 2],
        ]


def awkward_weights(m, s, seed):
    """``m`` random positive definite ``s x s`` weights, each scaled entry by
    entry by up to 1e-12 relative, so that (for ``s > 1``) none equals its
    own transpose bit for bit; for ``s > 1`` the first is the identity with
    -0.0 above the diagonal and 0.0 below it."""
    rng = np.random.default_rng(seed)
    w = np.array([random_pd_weight(rng, s) for _ in range(m)])
    w *= 1 + 1e-12 * rng.uniform(-1.0, 1.0, size=w.shape)
    if s > 1:
        w[0] = np.eye(s)
        w[0][np.triu_indices(s, 1)] = -0.0
    return w


class TestParseSerialize:
    def test_minimal_document(self):
        g = parse_graph('{"n": 2, "s": 1, "edges": [{"u": 1, "v": 2, "w": [[1.0]]}]}')
        assert (g.n, g.s, g.m) == (2, 1, 1)
        assert g.edges[0].weight[0, 0] == 1.0

    def test_accepts_bytes(self):
        text = serialize(path_graph(2))
        assert parse_graph(text.encode()) == path_graph(2)

    def test_invalid_json(self):
        with pytest.raises(GraphError, match="invalid JSON"):
            parse_graph("{nope")

    def test_top_level_not_object(self):
        with pytest.raises(GraphError, match="top level"):
            parse_graph("[1, 2]")

    def test_missing_keys(self):
        with pytest.raises(GraphError, match="missing required"):
            parse_graph('{"n": 2}')

    def test_unexpected_keys(self):
        with pytest.raises(GraphError, match="unexpected key"):
            parse_graph('{"n": 2, "s": 1, "edges": [], "name": "x"}')

    @pytest.mark.parametrize("n", ['"2"', "2.0", "true"])
    def test_non_integer_n(self, n):
        with pytest.raises(GraphError, match="must be an integer"):
            parse_graph(f'{{"n": {n}, "s": 1, "edges": []}}')

    def test_edges_not_list(self):
        with pytest.raises(GraphError, match="edges must be a list"):
            parse_graph('{"n": 2, "s": 1, "edges": {}}')

    def test_edge_wrong_keys(self):
        with pytest.raises(GraphError, match="exactly"):
            parse_graph('{"n": 2, "s": 1, "edges": [{"u": 1, "v": 2}]}')

    def test_edge_extra_key(self):
        doc = '{"n": 2, "s": 1, "edges": [{"u": 1, "v": 2, "w": [[1.0]], "x": 0}]}'
        with pytest.raises(GraphError, match="exactly"):
            parse_graph(doc)

    def test_edge_non_integer_endpoint(self):
        doc = '{"n": 2, "s": 1, "edges": [{"u": 1.0, "v": 2, "w": [[1.0]]}]}'
        with pytest.raises(GraphError, match="must be an integer"):
            parse_graph(doc)

    def test_edge_weight_not_nested_list(self):
        doc = '{"n": 2, "s": 1, "edges": [{"u": 1, "v": 2, "w": [1.0]}]}'
        with pytest.raises(GraphError, match="nested list"):
            parse_graph(doc)

    def test_edge_ragged_weight(self):
        doc = '{"n": 2, "s": 2, "edges": [{"u": 1, "v": 2, "w": [[1.0], [1.0, 2.0]]}]}'
        with pytest.raises(GraphError, match="malformed weight"):
            parse_graph(doc)

    def test_one_based_endpoints(self):
        doc = '{"n": 2, "s": 1, "edges": [{"u": 0, "v": 1, "w": [[1.0]]}]}'
        with pytest.raises(GraphError, match="out of range"):
            parse_graph(doc)

    def test_roundtrip_bitwise(self):
        g = random_graph(5, 3, "complete", seed=42)
        again = parse_graph(serialize(g))
        assert again == g
        for a, b in zip(g.edges, again.edges):
            assert a.weight.tobytes() == b.weight.tobytes()

    def test_serialize_deterministic(self):
        g = random_graph(4, 2, "tree", seed=7)
        h = random_graph(4, 2, "tree", seed=7)
        assert serialize(g) == serialize(h)

    def test_serialize_sorted_keys(self):
        text = serialize(path_graph(2))
        data = json.loads(text)
        assert list(data) == ["edges", "n", "s"]

    @pytest.mark.parametrize("g", [
        # -0.0 off the diagonal, integral floats, a subnormal, a weight near
        # the top of the double range, 17-digit values, endpoints past 9.
        path_graph(12, 2, [
            np.array([[2.0, -0.0], [-0.0, 3.0]]),
            np.array([[1e-310, -0.0], [-0.0, 1e-310]]),
            np.array([[8e307, 0.0], [0.0, 8e307]]),
            np.array([[0.1 + 0.2, 1 / 3], [1 / 3, 1 + 2 / 3]]),
        ] * 2 + [np.eye(2)] * 3),
        path_graph(11, 1, [np.array([[x]]) for x in (
            5e-324, 1e-310, 8e307, 1.7976931348623157e308, 2.0, 1e16, 1e-5,
            0.1 + 0.2, 123456789.12345679, 1.0000000000000002)]),
        random_graph(9, 3, "gnp", seed=4, p=0.5),
        random_graph(12, 5, "tree", seed=9),
        complete_graph(5, 4, list(awkward_weights(10, 4, seed=8))),
        path_graph(2, 2, [[[1, -0.0], [0.0, 1]]]),
    ], ids=["special-s2", "special-s1", "gnp-s3", "tree-s5", "complete-s4",
            "signed-zero-pair"])
    def test_serialize_is_json_dumps(self, g):
        payload = {
            "n": g.n,
            "s": g.s,
            "edges": [
                {"u": u + 1, "v": v + 1, "w": w}
                for (u, v), w in zip(g.endpoints.tolist(), g.weights.tolist())
            ],
        }
        text = serialize(g)
        assert text == json.dumps(payload, indent=2, sort_keys=True)
        assert_bitwise(parse_graph(text), g)

    def test_serialize_keeps_the_sign_of_zero(self):
        g = path_graph(2, 2, [np.array([[2.0, -0.0], [-0.0, 3.0]])])
        assert g.weights[0, 0, 1].tobytes() == np.float64(-0.0).tobytes()
        assert '          -0.0,\n' in serialize(g)


def _made_graphs():
    """One graph for every way a graph is made, each from weights that are
    not bitwise symmetric where ``s > 1``."""
    cases = {
        "parse_graph": parse_graph(json.dumps({"n": 3, "s": 2, "edges": [
            {"u": 1, "v": 2, "w": [[1, -0.0], [0.0, 1]]},
            {"u": 2, "v": 3, "w": [[2.0, 0.5], [0.5 * (1 + 1e-12), 1.0]]},
        ]})),
        "from_edges": from_edges(4, 3, [
            (u, v, w) for (u, v), w in zip(
                [(0, 1), (1, 2), (2, 3), (0, 3)], awkward_weights(4, 3, seed=1))
        ]),
        "direct": MatrixWeightedGraph(
            4, 2, [(2, 3), (0, 1), (1, 2)], awkward_weights(3, 2, seed=2)),
        "replace": dataclasses.replace(
            path_graph(4, 3), weights=awkward_weights(3, 3, seed=3)),
    }
    shapes = {
        "path": (path_graph, 5, 4),
        "cycle": (cycle_graph, 5, 5),
        "complete": (complete_graph, 5, 10),
        "star": (star_graph, 4, 4),
    }
    for name, (build, size, m) in shapes.items():
        for s in (1, 2, 3):
            per_edge = awkward_weights(m, s, seed=10 + s)
            cases[f"{name}-s{s}-shared"] = build(size, s, per_edge[0])
            cases[f"{name}-s{s}-per-edge"] = build(size, s, list(per_edge))
    for model in RANDOM_MODELS:
        for s in (1, 2, 3, 5):
            p = 0.5 if model == "gnp" else None
            cases[f"random-{model}-s{s}"] = random_graph(7, s, model, seed=s, p=p)
    return cases


MADE_GRAPHS = _made_graphs()


class TestBitwiseSymmetricWeights:
    """Every stored weight equals its own transpose bit for bit, signed
    zeros included, however the graph is made: ``serialize`` formats the
    upper triangle only and mirrors the text."""

    @pytest.mark.parametrize("g", MADE_GRAPHS.values(), ids=MADE_GRAPHS.keys())
    def test_weights_equal_their_transpose_bitwise(self, g):
        bits = g.weights.view(np.int64)
        assert np.array_equal(bits, bits.swapaxes(1, 2))

    def test_the_inputs_were_not_bitwise_symmetric(self):
        for s in (2, 3, 5):
            bits = awkward_weights(4, s, seed=s).view(np.int64)
            assert not (bits == bits.swapaxes(1, 2)).all(axis=(1, 2)).any()

    def test_signed_zero_pair_reads_as_zero_on_both_sides(self):
        w = MADE_GRAPHS["parse_graph"].weights[0]
        assert w[0, 1].tobytes() == w[1, 0].tobytes() == np.float64(0.0).tobytes()


def _document(n, s, edges):
    return json.dumps({"n": n, "s": s, "edges": edges})


def _parse_error(text) -> str:
    with pytest.raises(GraphError) as exc:
        parse_graph(text)
    return str(exc.value)


class TestParseErrorsPinned:
    """The exact error of each kind of bad document: the first problem in
    edge order wins, whether it is structural or a weight conversion."""

    RAGGED = [[1.0], [1.0, 2.0]]

    def test_ragged_weight_before_missing_key(self):
        text = _document(3, 2, [
            {"u": 1, "v": 2, "w": [[1.0, 0.0], [0.0, 1.0]]},
            {"u": 2, "v": 3, "w": self.RAGGED},
            {"u": 1, "v": 3},
        ])
        assert _parse_error(text).startswith("edge #2: malformed weight: ")

    def test_missing_key_before_ragged_weight(self):
        text = _document(3, 2, [
            {"u": 1, "v": 2, "w": [[1.0, 0.0], [0.0, 1.0]]},
            {"u": 2, "v": 3},
            {"u": 1, "v": 3, "w": self.RAGGED},
        ])
        assert _parse_error(text) == (
            "edge #2 must be an object with exactly the keys u, v, w"
        )

    def test_three_keys_that_are_not_u_v_w(self):
        text = _document(2, 1, [{"u": 1, "v": 2, "x": [[1.0]]}])
        assert _parse_error(text) == (
            "edge #1 must be an object with exactly the keys u, v, w"
        )

    @pytest.mark.parametrize("position", [1, 2])
    def test_integer_entry_beyond_float_range(self, position):
        # json reads the literal as a Python int that float64 cannot hold.
        edges = [{"u": 1, "v": 2, "w": [[1.0]]}, {"u": 2, "v": 3, "w": [[1.0]]}]
        edges[position - 1]["w"] = [[10**400]]
        assert _parse_error(_document(3, 1, edges)) == (
            f"edge #{position}: malformed weight: int too large to convert to float"
        )

    def test_unconvertible_entry_after_good_edges(self):
        text = _document(2, 1, [
            {"u": 1, "v": 2, "w": [[1.0]]},
            {"u": 1, "v": 2, "w": [["x"]]},
        ])
        assert _parse_error(text) == (
            "edge #2: malformed weight: could not convert string to float: 'x'"
        )

    @pytest.mark.parametrize(
        "w,shape", [([], "(0,)"), ([[[1.0]]], "(1, 1, 1)"), ([[]], "(1, 0)")]
    )
    def test_weight_of_the_wrong_shape(self, w, shape):
        # The constructor owns the shape rule, whatever the weight's rank.
        text = _document(2, 1, [{"u": 1, "v": 2, "w": w}])
        assert _parse_error(text) == f"edge #1 (1, 2): weight shape {shape} != (1, 1)"

    def test_missing_key_after_weight_of_the_wrong_shape(self):
        text = _document(3, 1, [{"u": 1, "v": 2, "w": []}, {"u": 2, "v": 3}])
        assert _parse_error(text) == (
            "edge #2 must be an object with exactly the keys u, v, w"
        )

    def test_endpoint_beyond_int64(self):
        text = _document(2, 1, [{"u": 1, "v": 10**23, "w": [[1.0]]}])
        assert _parse_error(text) == (
            "edge #1 (1, 100000000000000000000000): endpoints out of range 1..2"
        )

    def test_negative_endpoint_beyond_int64(self):
        text = _document(2, 1, [{"u": -(10**23), "v": 2, "w": [[1.0]]}])
        assert _parse_error(text) == (
            "edge #1 (-100000000000000000000000, 2): endpoints out of range 1..2"
        )

    def test_endpoint_at_int64_limit(self):
        text = _document(3, 1, [
            {"u": 1, "v": 2**63, "w": [[1.0]]},
            {"u": -(2**63), "v": 2, "w": [[1.0]]},
        ])
        assert _parse_error(text) == (
            f"edge #1 (1, {2**63}): endpoints out of range 1..3; "
            f"edge #2 ({-(2**63)}, 2): endpoints out of range 1..3"
        )

    def test_vertex_count_beyond_int64(self):
        text = _document(10**23, 1, [{"u": 1, "v": 2, "w": [[1.0]]}])
        assert _parse_error(text) == "graph is not connected"

    def test_huge_vertex_count_keeps_edge_checks(self):
        big = 10**23
        text = _document(big, 1, [
            {"u": 1, "v": big, "w": [[1.0]]},
            {"u": big, "v": big, "w": [[1.0]]},
            {"u": big, "v": 1, "w": [[1.0]]},
            {"u": 1, "v": big, "w": [[2.0]]},
            {"u": 1, "v": big + 1, "w": [[1.0]]},
        ])
        assert _parse_error(text) == (
            f"edge #2: self-loop at vertex {big}; "
            f"edge #3 ({big}, 1): endpoints must satisfy u < v; "
            f"edge #4 (1, {big}): duplicate edge; "
            f"edge #5 (1, {big + 1}): endpoints out of range 1..{big}"
        )

    def test_mixed_weight_shapes(self):
        text = _document(3, 2, [
            {"u": 1, "v": 2, "w": [[1.0]]},
            {"u": 2, "v": 3, "w": [[1.0, 0.0], [0.0, 1.0]]},
            {"u": 1, "v": 3, "w": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        ])
        assert _parse_error(text) == (
            "edge #1 (1, 2): weight shape (1, 1) != (2, 2); "
            "edge #3 (1, 3): weight shape (3, 3) != (2, 2)"
        )

    def test_one_wrong_shape_for_all_edges(self):
        text = _document(3, 2, [
            {"u": 1, "v": 2, "w": [[1.0]]},
            {"u": 3, "v": 2, "w": [[1.0]]},
            {"u": 2, "v": 3, "w": [[1.0]]},
        ])
        assert _parse_error(text) == (
            "edge #1 (1, 2): weight shape (1, 1) != (2, 2); "
            "edge #2 (3, 2): endpoints must satisfy u < v; "
            "edge #3 (2, 3): weight shape (1, 1) != (2, 2)"
        )

    def test_empty_rows_are_a_shape_problem(self):
        text = _document(2, 1, [{"u": 1, "v": 2, "w": [[]]}])
        assert _parse_error(text) == "edge #1 (1, 2): weight shape (1, 0) != (1, 1)"

    @pytest.mark.parametrize("n, s, message", [
        (1, 1, "vertex count n must be an integer >= 2, got 1"),
        (1, 0, "vertex count n must be an integer >= 2, got 1"),
        (2, 0, "block size s must be an integer >= 1, got 0"),
    ])
    def test_size_check_precedes_edge_errors(self, n, s, message):
        # The sizes are read before any edge, by the constructor's own rule.
        text = _document(n, s, [{"u": 1, "v": 2, "w": []}])
        assert _parse_error(text) == message

    def test_no_edges(self):
        assert _parse_error(_document(2, 1, [])) == "graph is not connected"

    def test_null_entry_is_non_finite(self):
        text = _document(2, 1, [{"u": 1, "v": 2, "w": [[None]]}])
        assert _parse_error(text) == "edge #1 (1, 2): weight has non-finite entries"

    @pytest.mark.parametrize(
        "w, shown",
        [
            ([["2.0"]], "'2.0'"),
            ([[True]], "True"),
            ([[False]], "False"),
            ([[" 3 "]], "' 3 '"),
            ([[2.0, "0.5"], [0.5, 2.0]], "'0.5'"),
        ],
    )
    def test_string_and_bool_entries_refused(self, w, shown):
        text = _document(3, len(w), [
            {"u": 1, "v": 2, "w": np.eye(len(w)).tolist()},
            {"u": 2, "v": 3, "w": w},
        ])
        assert _parse_error(text) == f"edge #2: w entries must be numbers, got {shown}"

    def test_string_entry_after_a_malformed_weight(self):
        text = _document(3, 1, [
            {"u": 1, "v": 2, "w": [[1.0], [1.0, 2.0]]},
            {"u": 2, "v": 3, "w": [["2.0"]]},
        ])
        assert _parse_error(text).startswith("edge #1: malformed weight: ")

    def test_string_entry_before_a_missing_key(self):
        text = _document(3, 1, [
            {"u": 1, "v": 2, "w": [[1.0]]},
            {"u": 2, "v": 3, "w": [[False]]},
            {"u": 1, "v": 3},
        ])
        assert _parse_error(text) == "edge #2: w entries must be numbers, got False"


class TestBulkConversion:
    """The parser's bulk weight stack is the one a single ``np.asarray``
    conversion of the nested lists makes, bit for bit."""

    @pytest.mark.parametrize(
        "entry",
        [2**53 + 1, 10**20, -(2**63), 7, -0.0, 5e-324, 1.7976931348623157e308],
    )
    def test_stack_is_bitwise_the_asarray_conversion(self, entry):
        ws = [[[1.0, entry], [entry, 3.0]], [[entry, 0.0], [0.0, entry]]]
        raw = json.loads(json.dumps(
            [{"u": 1, "v": 2, "w": ws[0]}, {"u": 2, "v": 3, "w": ws[1]}]
        ))
        endpoints, stack = reader._edge_arrays(raw, 2)
        assert endpoints.dtype == np.intp and endpoints.tolist() == [[0, 1], [1, 2]]
        expected = np.asarray(ws, dtype=np.float64)
        assert stack.dtype == np.float64 and stack.shape == (2, 2, 2)
        assert stack.tobytes() == expected.tobytes()

    def test_endpoint_at_intp_minimum_is_not_wrapped(self):
        text = _document(3, 1, [{"u": -(2**63), "v": 2, "w": [[1.0]]}])
        assert _parse_error(text) == (
            f"edge #1 ({-(2**63)}, 2): endpoints out of range 1..3"
        )


class TestStructure:
    def test_adjacency(self):
        g = star_graph(3)
        table = adjacency(g)
        assert table[0] == [(1, 0), (2, 1), (3, 2)]
        assert table[1] == [(0, 0)]

    def test_is_tree(self):
        assert is_tree(path_graph(4))
        assert is_tree(star_graph(5))
        assert not is_tree(cycle_graph(4))
        assert not is_tree(complete_graph(3))


class TestFactories:
    def test_path(self):
        g = path_graph(4)
        assert (g.n, g.m) == (4, 3)
        assert [(e.u, e.v) for e in g.edges] == [(0, 1), (1, 2), (2, 3)]

    def test_cycle(self):
        g = cycle_graph(4)
        assert (g.n, g.m) == (4, 4)
        assert [(e.u, e.v) for e in g.edges] == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_cycle_too_small(self):
        with pytest.raises(GraphError, match="n >= 3"):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(4)
        assert (g.n, g.m) == (4, 6)

    def test_star(self):
        g = star_graph(4)
        assert (g.n, g.m) == (5, 4)
        assert all(e.u == 0 for e in g.edges)

    def test_star_needs_ray(self):
        with pytest.raises(GraphError, match="ray count must be an integer >= 1, got 0"):
            star_graph(0)

    @pytest.mark.parametrize("build, args, message", [
        (path_graph, (3, -1), "block size s must be an integer >= 1, got -1"),
        (path_graph, (3, 1.5), "block size s must be an integer >= 1, got 1.5"),
        (path_graph, (2.5,), "vertex count n must be an integer >= 2, got 2.5"),
        (star_graph, (2.0,), "ray count must be an integer >= 1, got 2.0"),
        (cycle_graph, (4.0,), "vertex count n must be an integer >= 2, got 4.0"),
        (complete_graph, (3, 0), "block size s must be an integer >= 1, got 0"),
        # The ray count itself is the star's size: a bool is not one, and
        # the message names the argument given, not the vertex count.
        (star_graph, (True,), "ray count must be an integer >= 1, got True"),
        (star_graph, ("3",), "ray count must be an integer >= 1, got '3'"),
        (star_graph, (-1,), "ray count must be an integer >= 1, got -1"),
    ])
    def test_bad_size_is_graph_error(self, build, args, message):
        # The sizes are checked before any pair or identity weight is built.
        with pytest.raises(GraphError) as info:
            build(*args)
        assert str(info.value) == message

    def test_shared_weight(self):
        w = np.array([[2.0, 1.0], [1.0, 2.0]])
        g = path_graph(3, 2, w)
        for e in g.edges:
            assert np.array_equal(e.weight, w)
        # The shared array is copied, not aliased.
        w[0, 0] = 99.0
        assert g.edges[0].weight[0, 0] == 2.0

    def test_per_edge_weights(self):
        weights = [np.array([[2.0]]), np.array([[3.0]])]
        g = path_graph(3, 1, weights)
        assert g.edges[0].weight[0, 0] == 2.0
        assert g.edges[1].weight[0, 0] == 3.0

    def test_weight_count_mismatch(self):
        with pytest.raises(GraphError, match="2 endpoint pairs but 1 weights"):
            path_graph(3, 1, [np.eye(1)])


#: sha256 of the concatenated `resmat gen` bytes of
#: ``TestRandom.test_gen_bytes_pinned``'s grid, one per model.
GEN_GRID_DIGESTS = {
    "tree": "62b9f17759210e6db0298dcd20ecbe311bafb2c5acbe1d6ef18ace34e569c789",
    "cycle": "bd515f1618dcbbbc6a005bbfaf48d175c1be4a86d9f81ca3a8160ef5fa3b7728",
    "complete": "e0251ceb4389a4ab3304e176a9a2a0575713de5c82c239c4bfa4547491c3509d",
    "gnp": "22b628442f8c0910f2229933a197e1b9b4e44a9232b35e0fd2f7f033fa89f25e",
}


def gen_bytes(*args) -> bytes:
    """The bytes `resmat gen` writes for ``random_graph(*args)``."""
    return (serialize(random_graph(*args)) + "\n").encode()


def scalar_weight(rng, s):
    """One weight drawn and formed on its own: the per-edge reference."""
    b = rng.uniform(-1.0, 1.0, size=(s, s))
    return b.T @ b + 0.1 * s * np.eye(s)


def assert_bitwise(g, h):
    assert (g.n, g.s) == (h.n, h.s)
    assert g.endpoints.tobytes() == h.endpoints.tobytes()
    assert g.weights.tobytes() == h.weights.tobytes()


class TestRandom:
    def test_model_list(self):
        assert RANDOM_MODELS == ("tree", "cycle", "complete", "gnp")

    @pytest.mark.parametrize("model", ["tree", "cycle", "complete"])
    def test_deterministic(self, model):
        a = random_graph(6, 2, model, seed=123)
        b = random_graph(6, 2, model, seed=123)
        assert a == b

    def test_gnp_deterministic(self):
        a = random_graph(6, 1, "gnp", seed=5, p=0.5)
        b = random_graph(6, 1, "gnp", seed=5, p=0.5)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_graph(6, 2, "tree", seed=1)
        b = random_graph(6, 2, "tree", seed=2)
        assert a != b

    def test_tree_shape(self):
        g = random_graph(8, 1, "tree", seed=0)
        assert is_tree(g)

    def test_cycle_shape(self):
        g = random_graph(5, 1, "cycle", seed=0)
        assert g.m == 5

    def test_complete_shape(self):
        g = random_graph(5, 1, "complete", seed=0)
        assert g.m == 10

    def test_gnp_connected(self):
        for seed in range(5):
            g = random_graph(7, 1, "gnp", seed=seed, p=0.4)
            assert revalidated(g)

    def test_gnp_requires_p(self):
        with pytest.raises(GraphError, match="requires an edge probability"):
            random_graph(5, 1, "gnp", seed=0)

    def test_gnp_p_range(self):
        with pytest.raises(GraphError, match="must be in"):
            random_graph(5, 1, "gnp", seed=0, p=1.5)

    @pytest.mark.parametrize("p", ["0.5", True, 0.5j, [0.5], np.nan])
    def test_gnp_p_must_be_a_real_number(self, p):
        with pytest.raises(GraphError, match=r"edge probability p must be in \[0, 1\]"):
            random_graph(5, 1, "gnp", seed=0, p=p)

    def test_gnp_p_may_be_a_numpy_or_integer_real(self):
        g = random_graph(5, 1, "gnp", seed=0, p=1.0)
        assert random_graph(5, 1, "gnp", seed=0, p=np.float64(1.0)) == g
        assert random_graph(5, 1, "gnp", seed=0, p=1) == g

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", None, True, np.float64(2.0), np.int64(-3)])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # None would draw from OS entropy, and a float or a negative
        # integer would escape as numpy's own error.
        with pytest.raises(GraphError, match="seed must be a non-negative integer, got"):
            random_graph(5, 1, "tree", seed=seed)

    def test_seed_may_be_a_numpy_integer(self):
        g = random_graph(6, 2, "tree", seed=7)
        assert random_graph(6, 2, "tree", seed=np.int64(7)) == g
        assert random_graph(6, 2, "tree", seed=np.uint8(7)) == g

    @pytest.mark.parametrize(
        "n, s, model, seed, p, resampled",
        [pytest.param(7, s, model, 20 + s, 1.0 if model == "gnp" else None, False,
                      id=f"{model}-{s}")
         for model in RANDOM_MODELS for s in (1, 2, 3)]
        + [
            # Candidates rejected: p < 1 keeps some pairs and drops others.
            pytest.param(40, 1, "gnp", 5, 0.3, False, id="gnp-rejects-1"),
            pytest.param(40, 3, "gnp", 6, 0.3, False, id="gnp-rejects-3"),
            # The first attempt is disconnected, so the draws of a second
            # (and third) attempt follow those of the first.
            pytest.param(7, 2, "gnp", 2, 0.3, True, id="gnp-resamples-2"),
            pytest.param(12, 1, "gnp", 3, 0.2, True, id="gnp-resamples-1"),
            # Bounded parents up to 599.
            pytest.param(600, 2, "tree", 8, None, False, id="tree-600"),
        ],
    )
    def test_documented_draw_order(self, n, s, model, seed, p, resampled):
        # Replays the documented order from the seed with scalar calls: the
        # shape first (one integers(0, v) per tree parent, or per gnp
        # attempt one random() per vertex pair in canonical order), then
        # one B'B + 0.1 s I per edge in canonical order.
        rng = np.random.default_rng(seed)
        attempts = 1
        if model == "tree":
            pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        elif model == "cycle":
            pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        else:
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            if model == "gnp":
                candidates = pairs
                pairs = [pair for pair in candidates if rng.random() < p]
                while validation_message(n, 1, [(u, v, unit()) for u, v in pairs]):
                    attempts += 1
                    pairs = [pair for pair in candidates if rng.random() < p]
        assert (attempts > 1) == resampled
        pairs.sort()
        edges = [(u, v, scalar_weight(rng, s)) for u, v in pairs]
        assert_bitwise(random_graph(n, s, model, seed, p), from_edges(n, s, edges))

    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_random_pd_weight_is_the_scalar_formula(self, s):
        rng, again = np.random.default_rng(s), np.random.default_rng(s)
        for _ in range(3):
            assert random_pd_weight(rng, s).tobytes() == scalar_weight(again, s).tobytes()
        assert rng.random() == again.random()

    @pytest.mark.parametrize("model", RANDOM_MODELS)
    def test_gen_bytes_pinned(self, model):
        # The sha256 of what `resmat gen` writes over a grid of sizes and
        # seeds, recorded when generation and serialization still ran one
        # scalar draw, one weight and one json.dumps node at a time.
        digest = hashlib.sha256()
        for s in (1, 2, 3, 5):
            for seed in (0, 1, 2):
                for n in (7, 40):
                    p = 0.3 if model == "gnp" else None
                    digest.update(gen_bytes(n, s, model, seed, p))
        assert digest.hexdigest() == GEN_GRID_DIGESTS[model]

    @pytest.mark.parametrize("name, args, expected", [
        ("dense 11", (100, 3, "gnp", 11000, 0.25),
         "868f3c3b22d20b6d391fd957e196f2788eacd6a7659ccdc326707c1a8ec40031"),
        ("tree 11", (600, 1, "tree", 11000),
         "1e62b3a50752602fac3e9211f972c58ea3a78e8a49d8eb95c4f0f1e0b813fa12"),
        ("dense 7919", (100, 3, "gnp", 7919000, 0.25),
         "f78a362108c462ca01d724a72195b5c1a226eda1bffd146001ccb577b19fe07b"),
        ("tree 7919", (600, 1, "tree", 7919000),
         "1f939d4fbc45577e1ad8198711fa4a6430db3a67cdbdb021eb4880c955a8b671"),
    ])
    def test_gen_bytes_pinned_for_the_bench_specs(self, name, args, expected):
        # The benchmark's dense and tree inputs at seeds 11 and 7919.
        assert hashlib.sha256(gen_bytes(*args)).hexdigest() == expected

    def test_non_gnp_rejects_p(self):
        with pytest.raises(GraphError, match="does not take"):
            random_graph(5, 1, "tree", seed=0, p=0.5)

    def test_unknown_model(self):
        with pytest.raises(GraphError, match="unknown model"):
            random_graph(5, 1, "wheel", seed=0)

    def test_bad_n(self):
        with pytest.raises(GraphError, match="vertex count"):
            random_graph(1, 1, "tree", seed=0)

    def test_bad_s(self):
        with pytest.raises(GraphError, match="block size"):
            random_graph(4, 0, "tree", seed=0)

    def test_cycle_model_too_small(self):
        with pytest.raises(GraphError, match="n >= 3"):
            random_graph(2, 1, "cycle", seed=0)

    def test_gnp_impossible_raises_generation_error(self):
        # p = 0 can never produce a connected graph on n >= 2 vertices.
        with pytest.raises(GenerationError, match=str(GNP_MAX_ATTEMPTS)):
            random_graph(4, 1, "gnp", seed=0, p=0.0)

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           s=st.integers(min_value=1, max_value=4))
    def test_random_weights_positive_definite(self, seed, s):
        rng = np.random.default_rng(seed)
        w = random_pd_weight(rng, s)
        values = sym_eigenvalues(w)
        assert float(values[-1]) >= 0.1 * s

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=2, max_value=9),
           s=st.integers(min_value=1, max_value=3))
    def test_random_tree_always_valid(self, seed, n, s):
        g = random_graph(n, s, "tree", seed=seed)
        assert is_tree(g)
        assert revalidated(g)


def reference_problems(n, s, edges) -> tuple[str, ...]:
    """Validation one edge at a time: the reference the array checks of
    the graph's constructor must reproduce problem for problem."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        return (f"vertex count n must be an integer >= 2, got {n!r}",)
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        return (f"block size s must be an integer >= 1, got {s!r}",)
    problems = []
    seen_pairs = set()
    usable_pairs = []
    for position, (u, v, weight) in enumerate(edges, start=1):
        label = f"edge #{position}"
        if not (0 <= u < n and 0 <= v < n):
            problems.append(f"{label} ({u + 1}, {v + 1}): endpoints out of range 1..{n}")
            continue
        if u == v:
            problems.append(f"{label}: self-loop at vertex {u + 1}")
            continue
        if u > v:
            problems.append(f"{label} ({u + 1}, {v + 1}): endpoints must satisfy u < v")
            continue
        if (u, v) in seen_pairs:
            problems.append(f"{label} ({u + 1}, {v + 1}): duplicate edge")
            continue
        seen_pairs.add((u, v))
        label = f"{label} ({u + 1}, {v + 1})"
        w = np.asarray(weight, dtype=np.float64)
        if w.shape != (s, s):
            problems.append(f"{label}: weight shape {w.shape} != ({s}, {s})")
            continue
        if not np.isfinite(w).all():
            problems.append(f"{label}: weight has non-finite entries")
            continue
        gap = np.abs(w - w.T).max()
        if gap > 1e-10 * (1.0 + np.abs(w).max()):
            problems.append(f"{label}: weight is not symmetric (max asymmetry {gap:.3e})")
            continue
        values = np.linalg.eigvalsh((w + w.T) / 2.0)
        if values[-1] <= 0.0 or values[0] <= s * np.finfo(np.float64).eps * values[-1]:
            problems.append(
                f"{label}: weight is not positive definite "
                f"(smallest eigenvalue {values[0]:.6e})"
            )
            continue
        usable_pairs.append((u, v))
    if not problems:
        reached = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for u, v in usable_pairs:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in reached:
                        reached.add(b)
                        frontier.append(b)
        if len(reached) < n:
            problems.append("graph is not connected")
    return tuple(problems)


FAULTS = (
    "out_of_range",
    "self_loop",
    "reversed",
    "duplicate",
    "shape",
    "nan",
    "asymmetric",
    "indefinite",
)


def _faulty_edge(fault, n, s, edges, rng):
    u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
    w = random_pd_weight(rng, s)
    if fault == "out_of_range":
        return (u, n + int(rng.integers(0, 3)), w) if rng.random() < 0.5 else (-1, v, w)
    if fault == "self_loop":
        return (u, u, w)
    if fault == "reversed":
        return (v, u, w)
    if fault == "duplicate" and edges:
        u, v, _ = edges[int(rng.integers(0, len(edges)))]
    elif fault == "shape":
        w = np.eye(s + 1)
    elif fault == "nan":
        w[0, -1] = np.nan
    elif fault == "asymmetric":
        w[0, -1] += 1.0
    elif fault == "indefinite":
        w = -w
    return (u, v, w)


@st.composite
def faulty_graphs(draw):
    """A graph's ``(n, s, edges)`` with injected faults; without faults the
    edges are a random subset of the complete graph's, in random order."""
    n = draw(st.integers(min_value=2, max_value=6))
    s = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pairs = [(u, v) for u in range(n - 1) for v in range(u + 1, n)]
    pairs = draw(st.permutations(pairs))
    pairs = pairs[: draw(st.integers(min_value=0, max_value=len(pairs)))]
    edges = [(u, v, random_pd_weight(rng, s)) for u, v in pairs]
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        position = draw(st.integers(min_value=0, max_value=len(edges)))
        edges.insert(position, _faulty_edge(fault, n, s, edges, rng))
    if draw(st.booleans()):
        edges = [(u, v, w.tolist()) for u, v, w in edges]
    return n, s, edges


class TestArrayValidationOracle:
    @settings(deadline=None, max_examples=200)
    @given(graph=faulty_graphs())
    def test_problems_match_per_edge_reference(self, graph):
        n, s, edges = graph
        expected = "; ".join(reference_problems(n, s, edges))
        assert validation_message(n, s, edges) == expected
        document = _document(n, s, [
            {"u": u + 1, "v": v + 1, "w": np.asarray(w).tolist()} for u, v, w in edges
        ])
        if expected:
            assert _parse_error(document) == expected
            return
        g = from_edges(n, s, edges)
        for array, dtype, shape in (
            (g.endpoints, np.intp, (len(edges), 2)),
            (g.weights, np.float64, (len(edges), s, s)),
        ):
            assert array.dtype == dtype and array.shape == shape
            assert not array.flags.writeable
        assert parse_graph(document) == g
        again = parse_graph(serialize(g))
        assert again == g
        assert not again.endpoints.flags.writeable
        assert not again.weights.flags.writeable
        assert revalidated(g)
        # The per-edge build: sort the triples, symmetrize each weight.
        ordered = sorted(edges, key=lambda e: (e[0], e[1]))
        assert [(e.u, e.v, e.index) for e in g.edges] == [
            (u, v, index) for index, (u, v, _) in enumerate(ordered)
        ]
        for e, (_, _, w) in zip(g.edges, ordered):
            w = np.asarray(w, dtype=np.float64)
            assert e.weight.tobytes() == ((w + w.T) / 2.0).tobytes()

    def test_edges_built_on_first_read(self):
        g = parse_graph(serialize(cycle_graph(4, 2)))
        assert "edges" not in vars(g)
        assert g.edges is g.edges
        assert g.edges[1].weight.base is not None


def _reference_weight_problems(stack) -> dict[int, str]:
    """The definiteness rule one weight at a time, as the per-edge
    reference states it."""
    s = stack.shape[1]
    found = {}
    for k, w in enumerate(stack):
        values = np.linalg.eigvalsh((w + w.T) / 2.0)
        if values[-1] <= 0.0 or values[0] <= s * EPS * values[-1]:
            found[k] = (
                f"weight is not positive definite (smallest eigenvalue {values[0]:.6e})"
            )
    return found


#: Diagonal weights with exact eigenvalues put ``lambda_min / lambda_max``
#: at these multiples of ``s eps``: at or below the definiteness rule's
#: cutoff, or well above the screen's margin ``tau``.
DIAGONAL_RATIOS = (1e-3, 1.0, 1e3, 1e6)


@st.composite
def weight_stacks(draw):
    """An ``(s, stack, ratios)`` triple: exactly symmetric weights at
    scales ``1e-150 .. 1e150``, and for each the exact eigenvalue ratio
    ``lambda_min / lambda_max`` of a diagonal weight, else ``None``."""
    s = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    weights, ratios = [], []
    for _ in range(count):
        kind = draw(st.sampled_from(["diagonal", "rotated", "indefinite", "semidefinite"]))
        scale = 10.0 ** draw(st.floats(min_value=-150.0, max_value=150.0))
        values = rng.uniform(1.0, 2.0, s)
        ratio = None
        if kind == "diagonal":
            factor = draw(st.sampled_from(DIAGONAL_RATIOS))
            values[rng.integers(0, s)] = factor * s * EPS * values.max()
            w = np.diag(scale * values)
            ratio = w.diagonal().min() / w.diagonal().max()
        else:
            if kind == "indefinite":
                values[rng.integers(0, s)] *= -1.0
            elif kind == "semidefinite":
                values[rng.integers(0, s)] = 0.0
            q, _ = np.linalg.qr(rng.standard_normal((s, s)))
            w = scale * (q * values) @ q.T
            w = (w + w.T) / 2.0
        weights.append(w)
        ratios.append(ratio)
    return s, np.array(weights), ratios


class TestDefinitenessScreen:
    @settings(deadline=None, max_examples=300)
    @given(case=weight_stacks())
    def test_screen_matches_the_eigenvalue_rule(self, case):
        s, stack, ratios = case
        before = stack.tobytes()
        certified = certified_definite(stack, s * EPS)
        assert stack.tobytes() == before
        # A diagonal weight's eigenvalues are exact: no weight at or below
        # the cutoff is ever certified.
        if any(r is not None and r <= s * EPS for r in ratios):
            assert not certified
        problems, symmetric = graph._weight_problems(stack)
        assert problems == _reference_weight_problems(stack)
        # The stack is exactly symmetric, so its mean is the stack itself.
        assert symmetric.tobytes() == stack.tobytes()

    def test_valid_document_needs_no_eigenvalues(self, monkeypatch):
        text = serialize(random_graph(100, 3, "gnp", seed=11000, p=0.25))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        g = parse_graph(text)
        assert (g.m, g.s) == (1279, 3)
        assert calls == []

    def test_a_refused_weight_is_named_by_its_eigenvalue(self):
        stack = np.array([np.eye(2), np.diag([1.0, -2.0]), np.eye(2)])
        assert graph._weight_problems(stack)[0] == {
            1: "weight is not positive definite (smallest eigenvalue -2.000000e+00)"
        }

    def test_construction_averages_the_weights_once(self, monkeypatch):
        calls = []
        mean = linalg.symmetric_mean

        def counting(a):
            calls.append(a.shape)
            return mean(a)

        # Slightly asymmetric weights, given out of canonical order.
        rng = np.random.default_rng(7)
        weights = [
            random_pd_weight(rng, 3) + 1e-12 * rng.standard_normal((3, 3))
            for _ in range(4)
        ]
        monkeypatch.setattr(linalg, "symmetric_mean", counting)
        g = MatrixWeightedGraph(5, 3, [(3, 4), (0, 1), (1, 2), (0, 3)], weights)
        assert calls == [(4, 3, 3)]
        for stored, k in zip(g.weights, (1, 3, 2, 0)):
            w = weights[k]
            assert stored.tobytes() == ((w + w.T) / 2.0).tobytes()


class TestEdgeDataclass:
    def test_edges_are_identity_compared(self):
        a = Edge(0, 1, np.eye(1), 0)
        b = Edge(0, 1, np.eye(1), 0)
        assert a != b
        assert a == a

    def test_graph_m_property(self):
        g = MatrixWeightedGraph(2, 1, np.array([[0, 1]]), np.eye(1)[None])
        assert g.m == 1
