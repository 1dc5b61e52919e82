import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotr.errors import NonMonotoneTimes
from shotr.mesh import StaggeredMesh, build_mesh, locate_cells

from . import oracle


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
        with pytest.raises(NonMonotoneTimes, match="^need at least 2 strictly increasing"):
            make(np.array([0.0]))
        with pytest.raises(ValueError, match=r"^interfaces must be one-dimensional, "
                                             r"got shape \(1, 2\)$"):
            make(np.array([[0.0, 1.0]]))


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


def assert_same_cells(mesh, t):
    """locate_cells gives the cells, dtype and shape of the search over all
    interfaces, minus one, clipped to the end cells."""
    got, want = locate_cells(mesh, t), oracle.locate_cells(mesh, t)
    assert type(got) is type(want)
    assert got.dtype == want.dtype and np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(got, want)
    return got


def test_locate_cell_examples():
    """An interior interface belongs to its left cell; times outside the
    span, and NaN, go to the end cells; a 1-cell mesh gives cell 0."""
    mesh = build_mesh(np.array([0.0, 1.0, 2.0]))
    t = np.array([0.3, 1.0, 0.0, 2.0, 2.5, -0.1, np.nan, np.inf, -np.inf])
    want = [0, 0, 0, 1, 1, 0, 1, 1, 0]
    np.testing.assert_array_equal(assert_same_cells(mesh, t), want)
    for x, cell in zip(t.tolist(), want):
        assert assert_same_cells(mesh, x) == cell
    np.testing.assert_array_equal(assert_same_cells(mesh, t.reshape(3, 3)),
                                  np.reshape(want, (3, 3)))
    assert assert_same_cells(mesh, np.empty(0)).shape == (0,)
    single = build_mesh(np.array([-1.0, 4.0]))
    np.testing.assert_array_equal(assert_same_cells(single, t), np.zeros(len(t)))
    for x in t.tolist():
        assert assert_same_cells(single, x) == 0


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
    assert assert_same_cells(mesh, t) == _locate_linear(mesh, t)
    # interface hits must resolve to the left cell, the span's ends to the end cells
    np.testing.assert_array_equal(assert_same_cells(mesh, times[1:-1]), np.arange(len(times) - 2))
    np.testing.assert_array_equal(assert_same_cells(mesh, times[[0, -1]]), [0, mesh.n_cells - 1])
    # both sides of the span, non-finite times, and times between interfaces
    span = times[-1] - times[0]
    outside = [times[0] - span, np.nextafter(times[0], -np.inf), np.nextafter(times[-1], np.inf),
               times[-1] + span, np.nan, np.inf, -np.inf]
    inside = 0.5 * (times[:-1] + times[1:])
    assert_same_cells(mesh, np.concatenate([outside, inside, times]))
