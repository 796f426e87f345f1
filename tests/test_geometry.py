import itertools
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxentfit import (
    AugmentationWarning,
    ConfigError,
    DimensionError,
    FitError,
    HullLocation,
    NodeSet,
    augment_nodes,
    geometry,
    grid_nodes,
    hull_weights,
    in_hull,
    solve_basis,
)


def nodes_1d(*xs):
    return NodeSet(np.asarray(xs, dtype=float)[:, None])


@pytest.fixture()
def lp_calls(monkeypatch):
    """Record every feasibility LP that ``in_hull`` runs."""
    calls = []
    original = geometry.hull_weights

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, "hull_weights", counting)
    return calls


TRIANGLE = NodeSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


class TestShift:
    """``solve_basis`` shifts the nodes to the query point; 8a, 8c and 8d pin the arithmetic."""

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_basis(TRIANGLE, [0.5], 0.0)


class TestNodeSet:
    def test_requires_d_plus_one(self):
        with pytest.raises(DimensionError):
            NodeSet(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(DimensionError):
            NodeSet(np.array([[0.0], [np.nan]]))

    def test_flat_node_sets_use_the_lp(self, lp_calls):
        # A node set without interior is resolved by the LP within its affine
        # span, even when it holds every corner of its (flat) bounding box.
        flat = NodeSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 0.0]]))
        assert in_hull(flat, [1.5, 0.0]) is HullLocation.INTERIOR
        assert in_hull(flat, [1.5, 1e-6]) is HullLocation.OUTSIDE
        assert len(lp_calls) == 2
        lp_calls.clear()
        square = NodeSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert in_hull(square, [0.5, 0.5]) is HullLocation.INTERIOR
        assert lp_calls == []


class TestInHull:
    def test_midpoint_interior(self):
        assert in_hull(nodes_1d(0.0, 1.0), [0.5]) is HullLocation.INTERIOR

    def test_vertex_boundary(self):
        assert in_hull(nodes_1d(0.0, 1.0), [1.0]) is HullLocation.BOUNDARY

    def test_outside_simplex(self):
        assert in_hull(TRIANGLE, [1.0, 1.0]) is HullLocation.OUTSIDE

    def test_tol_must_be_positive(self):
        with pytest.raises(ConfigError):
            in_hull(TRIANGLE, [0.2, 0.2], tol=0.0)

    def test_interior_certificate(self):
        rng = np.random.default_rng(7)
        nodes = NodeSet(rng.uniform(-1, 1, (12, 3)))
        tol = 1e-9
        for _ in range(20):
            w = rng.dirichlet(np.ones(12))
            x = 0.9 * (w @ nodes.nodes) + 0.1 * nodes.nodes.mean(axis=0)
            location, cert = hull_weights(nodes, x, tol)
            assert location is HullLocation.INTERIOR
            assert abs(cert.sum() - 1.0) <= 1e-9
            assert np.abs(nodes.nodes.T @ cert - x).max() <= tol

    def test_degenerate_set_solved_in_affine_span(self):
        collinear = NodeSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        assert in_hull(collinear, [0.5, 0.5]) is HullLocation.INTERIOR
        # off the affine span by more than tol
        assert in_hull(collinear, [0.5, 0.6]) is HullLocation.OUTSIDE
        # beyond the segment but on the span
        assert in_hull(collinear, [3.0, 3.0]) is HullLocation.OUTSIDE

    def test_lp_rejects_points_just_past_a_face(self):
        # 1.5 and 3 tol past the face z = 0 are outside for the LP, as for the
        # bound check; 0.5 tol past is within tolerance.
        cube = NodeSet(np.array(list(itertools.product([0.0, 1.0], repeat=3))))
        for z, expected in [(-3e-9, HullLocation.OUTSIDE), (-1.5e-9, HullLocation.OUTSIDE),
                            (-5e-10, HullLocation.BOUNDARY)]:
            assert hull_weights(cube, [0.0, 0.0, z], 1e-9)[0] is expected, z
            assert in_hull(cube, [0.0, 0.0, z], 1e-9) is expected, z

    def test_lp_numerical_difficulty_is_not_outside(self, monkeypatch):
        # Only an infeasible LP (HiGHS status 2) certifies OUTSIDE; status 4
        # (numerical difficulties) decides nothing and is reported.
        import scipy.optimize

        failed = scipy.optimize.OptimizeResult(
            status=4, success=False, message="Numerical difficulties", x=None
        )
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: failed)
        with pytest.raises(FitError, match="status 4.*Numerical difficulties"):
            hull_weights(TRIANGLE, [0.2, 0.2])
        with pytest.raises(FitError, match="status 4"):
            in_hull(TRIANGLE, [0.2, 0.2])

    def test_box_fast_path_matches_lp(self):
        grid = grid_nodes([(0.0, 1.0), (0.0, 2.0)], [4, 4])
        rng = np.random.default_rng(3)
        queries = [
            rng.uniform(0.05, 0.95, 2) * [1.0, 2.0] for _ in range(10)
        ] + [
            [0.0, 1.0],
            [1.0, 2.0],
            [0.5, 0.0],
            [1.2, 1.0],
            [-0.1, 0.5],
            [0.5, 2.4],
        ]
        for q in queries:
            with mock.patch.object(geometry, "hull_weights", side_effect=AssertionError):
                location = in_hull(grid, q)
            assert location is hull_weights(NodeSet(grid.nodes), q)[0], q

    @given(
        st.data(),
        st.integers(1, 3),
        st.sampled_from([1e-8, 1e-6, 1e-4]),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_check_agrees_with_lp_on_outside(self, data, d, tol):
        # Node sets holding their bounding-box corners take the bound check;
        # it must agree with the LP on OUTSIDE versus not. Queries sit at
        # least 2 tol or at most 0.5 tol from every face plane: the LP's
        # slack is tol (1 - 1e-6), so the band in between may differ. The
        # LP resolves weights only to its 1e-10 feasibility tolerance, which
        # reaches about 1e-10 * extent (up to 10 here) past the hull; at tol
        # 1e-9 that passes 2 tol, so tol is drawn from 1e-8 up.
        coord = st.floats(-10.0, 10.0, allow_nan=False)
        lo = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)))
        width = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d)))
        hi = lo + width
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        k = data.draw(st.integers(0, 6))
        frac = np.array(data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d), min_size=k, max_size=k
        ))).reshape(k, d)
        pts = np.vstack([corners, lo + frac * width])
        order = data.draw(st.permutations(range(len(pts))))
        nodes = NodeSet(pts[list(order)])

        q = lo + np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))) * width
        for i in range(d):
            face = data.draw(st.sampled_from(["none", "lo", "hi"]))
            if face != "none":
                offset = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(
                    st.one_of(st.floats(0.0, 0.5), st.floats(2.0, 1e3))
                ) * tol
                q[i] = (lo[i] if face == "lo" else hi[i]) + offset
        gaps = np.minimum(np.abs(q - lo), np.abs(q - hi))
        assume(np.all((gaps <= 0.5 * tol) | (gaps >= 2.0 * tol)))

        with mock.patch.object(geometry, "hull_weights", side_effect=AssertionError):
            box_outside = in_hull(nodes, q, tol) is HullLocation.OUTSIDE
        lp_outside = hull_weights(nodes, q, tol)[0] is HullLocation.OUTSIDE
        assert box_outside == lp_outside, (nodes.nodes, q)


class TestGridNodes:
    def test_sine_grid(self):
        g = grid_nodes([(0.0, 1.0)], [10])
        assert g.n == 10
        np.testing.assert_allclose(g.nodes[:, 0], np.linspace(0, 1, 10))

    def test_two_d_counts(self):
        g = grid_nodes([(0.0, 1.0), (0.0, 1.0)], [8, 8])
        assert g.n == 64

    def test_endpoints_only(self):
        g = grid_nodes([(0.0, 2.0)], [2])
        np.testing.assert_array_equal(g.nodes[:, 0], [0.0, 2.0])

    def test_count_below_two_rejected(self):
        with pytest.raises(ConfigError):
            grid_nodes([(0.0, 1.0), (0.0, 1.0)], [4, 1])

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            grid_nodes([(1.0, 0.0)], [4])

    def test_ordering_is_stable(self):
        a = grid_nodes([(0.0, 1.0), (-1.0, 1.0)], [3, 4])
        b = grid_nodes([(0.0, 1.0), (-1.0, 1.0)], [3, 4])
        np.testing.assert_array_equal(a.nodes, b.nodes)

    def test_interior_and_outside_classification(self):
        g = grid_nodes([(0.0, 1.0), (0.0, 1.0)], [5, 5])
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(0.01, 0.99, 2)
            assert in_hull(g, x) is HullLocation.INTERIOR
        assert in_hull(g, [0.5, 1.0 + 1e-6]) is HullLocation.OUTSIDE


def test_padded_bounds_pads_constant_axes_by_their_magnitude():
    pts = np.array([[0.0, 5.0], [2.0, 5.0]])
    # the constant axis at 5 is padded by 0.1 * max(1, |5|)
    assert geometry.padded_bounds(pts, 0.1) == [[-0.2, 2.2], [4.5, 5.5]]


class TestAugmentNodes:
    def test_zero_k_is_identity(self):
        g = grid_nodes([(0.0, 1.0)], [4])
        assert augment_nodes(g, np.array([[0.3], [0.7]]), 0) is g

    def test_counts_match_lorenz_style(self, lp_calls):
        g = grid_nodes([(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)], [5, 5, 5])
        rng = np.random.default_rng(0)
        data = rng.uniform(0.05, 0.95, (500, 3))
        out = augment_nodes(g, data, 100, seed=0)
        assert out.n == 125 + 100
        # additions inside the box keep the bound check: no LP runs
        for q in data[:20]:
            assert in_hull(out, q) is HullLocation.INTERIOR
        assert lp_calls == []

    def test_duplicate_skipped_with_warning(self):
        g = grid_nodes([(0.0, 1.0)], [2])
        data = np.array([[0.5], [0.5 + 1e-15]])
        with pytest.warns(AugmentationWarning):
            out = augment_nodes(g, data, 2, seed=0)
        np.testing.assert_allclose(np.sort(out.nodes[:, 0]), [0.0, 0.5, 1.0])

    def test_deterministic_under_seed(self):
        g = grid_nodes([(0.0, 1.0), (0.0, 1.0)], [3, 3])
        rng = np.random.default_rng(5)
        data = rng.uniform(0, 1, (40, 2))
        a = augment_nodes(g, data, 10, seed=42)
        b = augment_nodes(g, data, 10, seed=42)
        np.testing.assert_array_equal(a.nodes, b.nodes)

    def test_maximin_prefers_spread(self):
        g = grid_nodes([(0.0, 1.0)], [2])
        data = np.array([[0.49], [0.5], [0.51]])
        out = augment_nodes(g, data, 1, seed=0)
        assert out.nodes[-1, 0] == 0.5  # farthest from both endpoints

    def test_k_exceeding_candidates_rejected(self):
        g = grid_nodes([(0.0, 1.0)], [2])
        with pytest.raises(ConfigError):
            augment_nodes(g, np.array([[0.5]]), 2)

    def test_outside_point_drops_box(self, lp_calls):
        # In 1-D the hull is always the bounding interval, so it grows with
        # the new node and the bound check still decides.
        g = grid_nodes([(0.0, 1.0)], [2])
        out = augment_nodes(g, np.array([[1.5]]), 1)
        assert in_hull(out, [1.2]) is HullLocation.INTERIOR
        assert in_hull(out, [1.6]) is HullLocation.OUTSIDE
        assert lp_calls == []
        # In 2-D a node past the box leaves two new box corners uncovered.
        g = grid_nodes([(0.0, 1.0), (0.0, 1.0)], [3, 3])
        out = augment_nodes(g, np.array([[1.5, 0.5]]), 1)
        assert in_hull(out, [1.2, 0.5]) is HullLocation.INTERIOR
        assert in_hull(out, [1.2, 0.9]) is HullLocation.OUTSIDE
        assert len(lp_calls) == 2


def test_import_loads_no_scipy():
    # Box node sets never need scipy; only the LP hull test imports it.
    code = (
        "import sys, maxentfit, maxentfit.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
