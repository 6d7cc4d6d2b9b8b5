"""Tests for the block Laplacian, incidence matrix, Laplacian cofactor, and
the read-only arrays the engine hands out."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resmat import graph
from resmat.graph import (
    GraphError,
    MatrixWeightedGraph,
    complete_graph,
    cycle_graph,
    from_edges,
    parse_graph,
    path_graph,
    random_graph,
    serialize,
    star_graph,
)
from resmat.laplacian import (
    build_incidence,
    build_laplacian,
    laplacian_cofactor_slog,
    stacked_identity,
)
from resmat.linalg import (
    DimensionError,
    NumericError,
    max_norm,
    sym_eigenvalues,
    value_from_slog,
)
from resmat.resistance import ResistanceWorkspace

#: Every array a workspace holds or caches.
WORKSPACE_ARRAYS = (
    "laplacian",
    "shifted_inverse",
    "diag_stack",
    "resistance",
    "deficit",
    "deficit_form",
    "deficit_form_direct",
    "pseudoinverse",
)


def laplacian_cofactor(g, laplacian=None):
    return value_from_slog(*laplacian_cofactor_slog(g, laplacian))


class TestBlockMatrix:
    """The engine's block matrices are plain read-only float64 arrays."""

    def test_body_read_only(self):
        g = cycle_graph(5, 2)
        for built in (build_laplacian(g), build_incidence(g)):
            with pytest.raises(ValueError):
                built[0, 0] += 1.0
        ws = ResistanceWorkspace(g)
        for name in WORKSPACE_ARRAYS:
            a = getattr(ws, name)
            assert isinstance(a, np.ndarray) and a.dtype == np.float64, name
            with pytest.raises(ValueError):
                a[0, 0] += 1.0
            with pytest.raises(ValueError):
                a.reshape(a.shape)[0, 0] = 0.0

    def test_block_out_of_range(self):
        # A negative index must not wrap round to another block.
        ws = ResistanceWorkspace(cycle_graph(5, 2))
        for pair in ((-1, 0), (5, 0), (0, -1), (0, 5)):
            with pytest.raises(DimensionError, match="out of range"):
                ws.resistance_block(*pair)

    def test_block_is_reshape_view(self):
        g = cycle_graph(5, 2)
        ws = ResistanceWorkspace(g)
        blocks = ws.resistance.reshape(g.n, g.s, g.n, g.s)
        assert np.array_equal(ws.resistance_block(1, 3), blocks[1, :, 3, :])
        assert np.array_equal(ws.resistance_block(1, 3), ws.resistance[2:4, 6:8])


class TestStackedIdentity:
    def test_shape_and_content(self):
        ones = stacked_identity(3, 2)
        assert ones.shape == (6, 2)
        assert np.array_equal(ones, np.kron(np.ones((3, 1)), np.eye(2)))


class TestBuildLaplacian:
    def test_two_vertex_unit(self):
        lap = build_laplacian(path_graph(2))
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_path3_unit(self):
        lap = build_laplacian(path_graph(3))
        expected = np.array(
            [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
        )
        assert np.array_equal(lap, expected)

    def test_off_diagonal_is_negated_inverse_weight(self):
        w = np.array([[2.0, 1.0], [1.0, 2.0]])
        lap = build_laplacian(path_graph(2, 2, w))
        assert max_norm(lap[0:2, 2:4] + np.linalg.inv(w)) <= 1e-15

    def test_diagonal_is_bitwise_negated_row_sum(self):
        g = random_graph(6, 3, "complete", seed=99)
        s = g.s
        blocks = build_laplacian(g).reshape(g.n, s, g.n, s)
        for i in range(g.n):
            total = np.zeros((s, s))
            for j in range(g.n):
                if j != i:
                    total -= blocks[i, :, j, :]
            assert np.array_equal(blocks[i, :, i, :], total)

    def test_block_row_sums_vanish(self):
        g = random_graph(6, 3, "complete", seed=99)
        lap = build_laplacian(g)
        ones = stacked_identity(g.n, g.s)
        tol = 1e-13 * (1.0 + max_norm(lap))
        assert max_norm(lap @ ones) <= tol
        assert max_norm(ones.T @ lap) <= tol

    def test_symmetric(self):
        g = random_graph(5, 2, "gnp", seed=3, p=0.7)
        lap = build_laplacian(g)
        assert np.array_equal(lap, lap.T)

    def test_positive_semidefinite_with_s_dim_kernel(self):
        g = random_graph(5, 2, "tree", seed=21)
        lap = build_laplacian(g)
        values = sym_eigenvalues(lap)
        scale = float(values[0])
        assert float(values[-1]) >= -1e-12 * scale
        near_zero = np.sum(np.abs(values) <= 1e-10 * scale)
        assert near_zero == g.s

    def test_validated_graph_skips_second_definiteness_test(self, monkeypatch):
        # Every graph was tested when it was constructed, so the Laplacian
        # never tests its weights again, however the graph was made.
        g = random_graph(6, 3, "gnp", seed=5, p=0.6)
        graphs = [
            g,
            MatrixWeightedGraph(g.n, g.s, g.endpoints, g.weights),
            dataclasses.replace(g, weights=2.0 * g.weights),
            parse_graph(serialize(g)),
            from_edges(g.n, g.s, [(e.u, e.v, e.weight) for e in g.edges]),
        ]
        expected = [build_laplacian(h) for h in graphs]

        def refuse(*args, **kwargs):
            raise AssertionError("weights tested for definiteness again")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for h, lap in zip(graphs, expected):
            assert np.array_equal(build_laplacian(h), lap)

    def test_directly_built_graph_is_tested(self):
        indefinite = np.array([[[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(GraphError, match="not positive definite"):
            MatrixWeightedGraph(2, 2, np.array([[0, 1]]), indefinite)

    def test_replaced_weights_are_tested(self):
        g = path_graph(2, 2)
        indefinite = np.array([[[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(GraphError, match="not positive definite"):
            dataclasses.replace(g, weights=indefinite)

    def test_each_construction_validates_once(self, monkeypatch):
        calls = []
        checked = graph._checked

        def counting(*args):
            calls.append(args)
            return checked(*args)

        document = serialize(random_graph(5, 2, "gnp", seed=4, p=0.6))
        monkeypatch.setattr(graph, "_checked", counting)
        builds = {
            "parse_graph": lambda: parse_graph(document),
            "from_edges": lambda: from_edges(3, 1, [(0, 1, [[1.0]]), (1, 2, [[2.0]])]),
            "random_graph": lambda: random_graph(6, 2, "tree", seed=3),
            "direct": lambda: MatrixWeightedGraph(2, 1, [(0, 1)], [[[1.0]]]),
            "path_graph": lambda: path_graph(3, 2),
            "cycle_graph": lambda: cycle_graph(4, 1, np.eye(1)),
            "complete_graph": lambda: complete_graph(3, 1, [[[1.0]], [[2.0]], [[3.0]]]),
            "star_graph": lambda: star_graph(3, 2),
        }
        for name, build in builds.items():
            calls.clear()
            build()
            assert len(calls) == 1, name

    @pytest.mark.parametrize(
        "g, cause",
        [
            # The inverse weight 1e310 is beyond the double range.
            (path_graph(2, 1, np.array([[1e-310]])), "an inverse edge weight"),
            (path_graph(2, 2, 1e-310 * np.eye(2)), "an inverse edge weight"),
            # The inverse weight 1e308 is finite; the trace 2e308 is not.
            (path_graph(2, 1, np.array([[1e-308]])), "a sum of inverse edge weights"),
            # So is the center's diagonal block, a sum of two such weights.
            (star_graph(2, 1, np.array([[1e-308]])), "a sum of inverse edge weights"),
        ],
        ids=["weight", "weight-s2", "trace", "diagonal-block"],
    )
    def test_overflow_names_its_cause(self, g, cause):
        with pytest.raises(NumericError) as info:
            build_laplacian(g)
        assert str(info.value) == f"Laplacian trace is not finite: {cause} overflows"

    def test_unit_weights_reduce_to_scalar_laplacian(self):
        g = cycle_graph(4, 3)
        scalar = build_laplacian(cycle_graph(4))
        lap = build_laplacian(g)
        assert np.array_equal(lap, np.kron(scalar, np.eye(3)))


class TestBuildIncidence:
    def test_shape(self):
        g = complete_graph(4, 2)
        q = build_incidence(g)
        assert q.shape == (8, 12)

    def test_two_vertex_unit(self):
        q = build_incidence(path_graph(2))
        assert np.array_equal(q, [[1.0], [-1.0]])

    def test_column_blocks_carry_inverse_sqrt(self):
        w = np.array([[4.0]])
        q = build_incidence(path_graph(2, 1, w))
        assert np.array_equal(q, [[0.5], [-0.5]])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_l_equals_q_qt(self, seed):
        g = random_graph(6, 2, "gnp", seed=seed, p=0.6)
        lap = build_laplacian(g)
        q = build_incidence(g)
        gap = max_norm(q @ q.T - lap)
        assert gap <= 1e-12 * (1.0 + max_norm(lap))

    def test_column_sums_vanish(self):
        g = random_graph(5, 3, "tree", seed=8)
        q = build_incidence(g)
        ones = stacked_identity(g.n, g.s)
        assert max_norm(ones.T @ q) <= 1e-13

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_l_equals_q_qt_property(self, seed):
        g = random_graph(5, 2, "tree", seed=seed)
        lap = build_laplacian(g)
        q = build_incidence(g)
        gap = max_norm(q @ q.T - lap)
        assert gap <= 1e-12 * (1.0 + max_norm(lap))


class TestLaplacianCofactor:
    def test_tree_unit_weights_is_one(self):
        # Every block cofactor of a unit-weight tree Laplacian counts its
        # single spanning tree.
        for g in (path_graph(2), path_graph(5), star_graph(4)):
            assert laplacian_cofactor(g) == pytest.approx(1.0, rel=1e-12)

    def test_counts_spanning_trees(self):
        # Cayley: K_n has n^(n-2) spanning trees; C_n has n.
        assert laplacian_cofactor(complete_graph(4)) == pytest.approx(16.0, rel=1e-12)
        assert laplacian_cofactor(complete_graph(5)) == pytest.approx(125.0, rel=1e-12)
        assert laplacian_cofactor(cycle_graph(5)) == pytest.approx(5.0, rel=1e-12)

    def test_matrix_weights_blockwise(self):
        # For one edge with weight W the cofactor is det(W^{-1}).
        w = np.array([[2.0, 1.0], [1.0, 2.0]])
        value = laplacian_cofactor(path_graph(2, 2, w))
        assert value == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_accepts_prebuilt_laplacian(self):
        g = cycle_graph(4)
        lap = build_laplacian(g)
        assert laplacian_cofactor(g, lap) == laplacian_cofactor(g)

    def test_all_block_cofactors_equal(self):
        from resmat.linalg import block_cofactor_slog

        g = random_graph(5, 2, "gnp", seed=17, p=0.7)
        lap = build_laplacian(g)
        reference = value_from_slog(*block_cofactor_slog(lap, 0, 0, g.s))
        for i in range(g.n):
            for j in range(g.n):
                value = value_from_slog(*block_cofactor_slog(lap, i, j, g.s))
                assert value == pytest.approx(reference, rel=1e-9)

    def test_slog_matches_plain(self):
        import math

        g = random_graph(6, 2, "complete", seed=31)
        sign, log_abs = laplacian_cofactor_slog(g)
        # The minor left by deleting block row and column 0 (s = 2).
        plain = np.linalg.det(build_laplacian(g)[2:, 2:])
        assert sign * math.exp(log_abs) == pytest.approx(plain, rel=1e-10)

    def test_positive_for_valid_graphs(self):
        for seed in range(4):
            g = random_graph(5, 2, "tree", seed=seed)
            assert laplacian_cofactor(g) > 0.0
