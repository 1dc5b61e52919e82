import numpy as np
import pytest

from shotr.trajdata import TrackSeries


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_times(rng, n_pts: int, t0: float = 0.0) -> np.ndarray:
    """Strictly increasing times with cell widths varying by up to 4x."""
    widths = rng.uniform(0.05, 0.2, n_pts - 1)
    return t0 + np.concatenate([[0.0], np.cumsum(widths)])


def random_track(rng, n_pts: int, dim: int = 2, track_id: str = "t") -> TrackSeries:
    times = random_times(rng, n_pts)
    coords = rng.normal(0.0, 1.0, (n_pts, dim)).cumsum(axis=0)
    return TrackSeries(track_id, times, coords)


def write_csv(path, rows, header="track,t,x,y"):
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def count_calls(monkeypatch, module, name: str, calls: list) -> None:
    """Replace module.name by a wrapper that appends name to calls."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
