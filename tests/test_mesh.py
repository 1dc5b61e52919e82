import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotr.errors import NonMonotoneTimes
from shotr.mesh import StaggeredMesh, build_mesh, locate_cells


def test_uniform_mesh_arithmetic():
    mesh = build_mesh(np.array([0.0, 1.0, 2.0]))
    np.testing.assert_array_equal(mesh.widths, [1.0, 1.0])
    np.testing.assert_array_equal(mesh.barycenters, [0.5, 1.5])
    np.testing.assert_array_equal(mesh.interfaces, [0.0, 1.0, 2.0])
    assert mesh.n_cells == 2


def test_acquisition_frame_widths():
    # 0.144 s is a typical live-imaging frame interval; gaps just widen cells
    mesh = build_mesh(np.array([0.0, 0.144, 0.720]))
    np.testing.assert_allclose(mesh.widths, [0.144, 0.576])


def test_non_monotone_times_rejected():
    for make in (build_mesh, StaggeredMesh):  # the constructor holds the checks
        for times in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0]):
            with pytest.raises(NonMonotoneTimes, match="^times must be strictly increasing$"):
                make(np.array(times))
        for times in ([0.0], [[0.0, 1.0]]):
            with pytest.raises(NonMonotoneTimes, match="^need at least 2 strictly increasing"):
                make(np.array(times))


@pytest.mark.parametrize("times", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0]])
def test_non_finite_times_rejected(times):
    for make in (build_mesh, StaggeredMesh):
        with pytest.raises(ValueError, match="^times include non-finite values$"):
            make(np.array(times))


def test_mesh_is_built_from_its_interfaces_alone(rng):
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 2.0, 30))]) - 7.3
    mesh, built = StaggeredMesh(times.copy()), build_mesh(times)
    for name in ("interfaces", "widths", "barycenters"):
        got, want = getattr(mesh, name), getattr(built, name)
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name
    with pytest.raises(TypeError):
        StaggeredMesh(times, np.full(30, 5.0), np.zeros(30))  # widths are derived


def test_mesh_leaves_the_callers_times_writable():
    for make in (build_mesh, StaggeredMesh):
        times = np.array([0.0, 1.0, 2.0])
        mesh = make(times)
        times[0] = -1.0
        assert mesh.interfaces.tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="read-only"):
            mesh.interfaces[0] = 7.0


def test_locate_cell_examples():
    """An interior interface belongs to its left cell; times outside the
    span clip to the end cells."""
    mesh = build_mesh(np.array([0.0, 1.0, 2.0]))
    t = np.array([0.3, 1.0, 0.0, 2.0, 2.5, -0.1])
    np.testing.assert_array_equal(locate_cells(mesh, t), [0, 0, 0, 1, 1, 0])


@st.composite
def strictly_increasing_times(draw):
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    start = rng.uniform(-10, 10)
    return start + np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 2.0, n - 1))])


@settings(max_examples=60, deadline=None)
@given(times=strictly_increasing_times())
def test_widths_telescope(times):
    mesh = build_mesh(times)
    assert mesh.widths.sum() == pytest.approx(times[-1] - times[0], rel=0, abs=1e-12)
    assert np.all(mesh.widths > 0)
    np.testing.assert_allclose(
        mesh.barycenters, 0.5 * (times[:-1] + times[1:]), rtol=0, atol=0
    )


def _locate_linear(mesh, t):
    """Reference linear scan with the same left-cell tie-break."""
    for i in range(mesh.n_cells):
        if mesh.interfaces[i] <= t <= mesh.interfaces[i + 1]:
            return i
    raise AssertionError("t out of domain")


@settings(max_examples=60, deadline=None)
@given(times=strictly_increasing_times(), u=st.floats(0.0, 1.0))
def test_locate_cell_matches_linear_scan(times, u):
    mesh = build_mesh(times)
    t = min(times[0] + u * (times[-1] - times[0]), times[-1])
    assert locate_cells(mesh, t) == _locate_linear(mesh, t)
    # interface hits must resolve to the left cell
    np.testing.assert_array_equal(locate_cells(mesh, times[1:-1]), np.arange(len(times) - 2))
