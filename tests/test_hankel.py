import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npvdeepc.hankel import (
    DimensionError,
    Trajectory,
    Window,
    build_hankel,
    check_pe,
    load_trajectory_csv,
    partition,
    save_trajectory_csv,
    willems_membership,
)

from conftest import lti_trajectory, make_lti


class TestBuildHankel:
    def test_scalar_shift_structure(self):
        h = build_hankel([1, 2, 3, 4, 5], depth=2)
        assert np.array_equal(h, np.array([[1, 2, 3, 4], [2, 3, 4, 5]]))

    def test_vector_block_stacking(self):
        seq = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        h = build_hankel(seq, depth=2)
        assert h.shape == (4, 2)
        # column i stacks z(i), z(i+1)
        assert np.array_equal(h[:, 0], [1, 10, 2, 20])
        assert np.array_equal(h[:, 1], [2, 20, 3, 30])

    def test_degenerate_depth_single_column(self):
        seq = np.array([[1.0], [2.0], [3.0]])
        h = build_hankel(seq, depth=3)
        assert h.shape == (3, 1)
        assert np.array_equal(h[:, 0], [1, 2, 3])

    def test_depth_exceeds_length(self):
        with pytest.raises(DimensionError):
            build_hankel([1, 2, 3], depth=4)

    @given(
        length=st.integers(3, 12),
        depth=st.integers(1, 5),
        n_z=st.integers(1, 3),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_property(self, length, depth, n_z, seed):
        # rows i and i + n_z agree up to a one-column offset
        if depth > length or depth < 2:
            return
        rng = np.random.default_rng(seed)
        seq = rng.standard_normal((length, n_z))
        h = build_hankel(seq, depth)
        for i in range((depth - 1) * n_z):
            assert np.array_equal(h[i, 1:], h[i + n_z, :-1])


class TestCheckPe:
    def test_constant_sequence_not_pe(self):
        is_pe, rank = check_pe(np.ones(10), depth=2)
        assert (is_pe, rank) == (False, 1)

    def test_iid_sequence_pe(self):
        rng = np.random.default_rng(7)
        seq = rng.uniform(-1, 1, size=50)
        # independent oracle: rank straight from the SVD of the Hankel
        h = build_hankel(seq, 5)
        svals = np.linalg.svd(h, compute_uv=False)
        oracle_rank = int(np.sum(svals > max(h.shape) * np.finfo(float).eps * svals[0]))
        is_pe, rank = check_pe(seq, depth=5)
        assert rank == oracle_rank == 5
        assert is_pe

    def test_insufficient_length_error(self):
        # scalar, D=4 needs L >= (1+1)*4 - 1 = 7
        with pytest.raises(DimensionError, match="insufficient length"):
            check_pe(np.arange(5.0), depth=4)


class TestPartition:
    def test_smallest_case(self):
        traj = Trajectory(u=[[1.0], [2.0], [3.0]], y=[[4.0], [5.0], [6.0]], p=[[0.0]] * 3, dt=1.0)
        hs = partition(traj, t_ini=1, horizon=1)
        assert np.array_equal(hs.up, [[1, 2]])
        assert np.array_equal(hs.uf, [[2, 3]])
        assert np.array_equal(hs.yp, [[4, 5]])
        assert np.array_equal(hs.yf, [[5, 6]])

    def test_column_count_for_long_trajectory(self):
        traj = lti_trajectory(1000, seed=3)
        hs = partition(traj, t_ini=5, horizon=10)
        assert hs.n_cols == 1000 - 15 + 1 == 986
        assert hs.k_source == 1000

    def test_restack_reproduces_build_hankel(self):
        traj = lti_trajectory(60, seed=4)
        hs = partition(traj, t_ini=3, horizon=4)
        restacked = np.vstack([hs.up, hs.uf])
        assert np.array_equal(restacked, build_hankel(traj.u, 7))

    def test_insufficient_data(self):
        traj = lti_trajectory(10, seed=5)
        with pytest.raises(DimensionError):
            partition(traj, t_ini=5, horizon=10)


class TestWillemsMembership:
    def test_verbatim_column_is_member(self):
        traj = lti_trajectory(80, seed=6)
        hs = partition(traj, t_ini=2, horizon=3)
        w = Window.from_trajectory(traj, start=10, t_ini=2, horizon=3)
        member, residual = willems_membership(hs, w)
        assert member
        assert residual < 1e-10

    def test_fresh_trajectory_is_member(self):
        hs = partition(lti_trajectory(300, seed=7), t_ini=2, horizon=3)
        fresh = lti_trajectory(40, seed=99)
        w = Window.from_trajectory(fresh, start=20, t_ini=2, horizon=3)
        member, residual = willems_membership(hs, w)
        assert member
        assert residual < 1e-8

    def test_perturbed_window_rejected(self):
        hs = partition(lti_trajectory(300, seed=7), t_ini=2, horizon=3)
        fresh = lti_trajectory(40, seed=100)
        w = Window.from_trajectory(fresh, start=20, t_ini=2, horizon=3)
        w.y_f = w.y_f.copy()
        w.y_f[0] += 1.0
        member, residual = willems_membership(hs, w)
        assert not member
        assert residual > 1e-2

    def test_residual_invariant_under_column_permutation(self, rng):
        traj = lti_trajectory(120, seed=8)
        hs = partition(traj, t_ini=2, horizon=3)
        w = Window.from_trajectory(lti_trajectory(30, seed=9), start=5, t_ini=2, horizon=3)
        w.y_ini = w.y_ini + 0.3  # force a nonzero residual
        _, res_a = willems_membership(hs, w)
        perm = rng.permutation(hs.n_cols)
        hs_p = partition(traj, t_ini=2, horizon=3)
        hs_p.up, hs_p.yp = hs_p.up[:, perm], hs_p.yp[:, perm]
        hs_p.uf, hs_p.yf = hs_p.uf[:, perm], hs_p.yf[:, perm]
        _, res_b = willems_membership(hs_p, w)
        assert res_a == pytest.approx(res_b, rel=1e-9)

    def test_dimension_mismatch(self):
        hs = partition(lti_trajectory(50, seed=10), t_ini=2, horizon=3)
        w = Window.from_trajectory(lti_trajectory(50, seed=10), start=0, t_ini=3, horizon=3)
        with pytest.raises(DimensionError):
            willems_membership(hs, w)


def test_lti_rank_matches_lemma_premise():
    # input PE of order D + n gives a data Hankel of rank n_u*D + n
    traj = lti_trajectory(400, seed=11)
    depth = 5
    is_pe, rank = check_pe(traj.u, depth + 2)
    assert is_pe and rank == 2 * (depth + 2)
    hs = partition(traj, t_ini=2, horizon=3)
    stacked_rank = np.linalg.matrix_rank(hs.stacked())
    assert stacked_rank == 2 * depth + 2


def test_trajectory_csv_roundtrip(tmp_path):
    traj = lti_trajectory(25, seed=12)
    traj = Trajectory(u=traj.u + 3.0, y=traj.y + 30.0, p=np.full((25, 1), 4.0), dt=0.5)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    back = load_trajectory_csv(path, dt=0.5)
    assert np.array_equal(back.u, traj.u)
    assert np.array_equal(back.y, traj.y)
    assert np.array_equal(back.p, traj.p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_trajectory_csv_rejects_non_finite_value(tmp_path, value):
    # the value on the file's fourth line (third sample) names that line
    traj = lti_trajectory(6, seed=12)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(Trajectory(u=traj.u, y=traj.y, p=np.ones((6, 1)), dt=0.5), path)
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[3] = value
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4 of .* non-finite"):
        load_trajectory_csv(path, dt=0.5)
