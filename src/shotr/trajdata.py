"""Track ingestion: CSV parsing, validation, and per-axis splitting.

Input files carry already-extracted particle coordinates. Two layouts are
supported:

* ``generic_csv`` -- header ``track,t,x[,y[,z]]``; dimensionality is
  inferred from the header.
* ``trackmate_csv`` -- TrackMate-style export with columns ``TRACK_ID``,
  ``POSITION_T``, ``POSITION_X``/``POSITION_Y``/``POSITION_Z``; all other
  columns are ignored.

Rows are grouped by track id and sorted by time. Ties in time within a
track are an error (the mesh needs positive cell widths); tracks with
fewer than 2 usable rows are dropped with a warning.
"""

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateTimestamp, MalformedRow

logger = logging.getLogger(__name__)

GENERIC_AXIS_COLUMNS = ("x", "y", "z")
TRACKMATE_AXIS_COLUMNS = ("POSITION_X", "POSITION_Y", "POSITION_Z")


@dataclass
class TrackSeries:
    """One particle's ordered space-time samples.

    times are strictly increasing seconds; coords has shape (len(times), dim).
    """

    track_id: str
    times: np.ndarray
    coords: np.ndarray
    dim: int

    def __post_init__(self):
        self.times = np.ascontiguousarray(self.times, dtype=float)
        self.coords = np.ascontiguousarray(self.coords, dtype=float)
        if self.coords.ndim == 1:
            self.coords = self.coords.reshape(-1, 1)
        if not 1 <= self.dim <= 3:
            raise ValueError(f"dim must be in [1, 3], got {self.dim}")
        if self.coords.shape != (len(self.times), self.dim):
            raise ValueError(
                f"coords shape {self.coords.shape} does not match "
                f"{len(self.times)} times x {self.dim} axes"
            )
        if len(self.times) < 2:
            raise ValueError(f"track {self.track_id!r} has fewer than 2 samples")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.coords))):
            raise ValueError(f"track {self.track_id!r} has non-finite times or coordinates")
        if not np.all(np.diff(self.times) > 0):
            raise DuplicateTimestamp(
                f"track {self.track_id!r} has non-increasing timestamps"
            )
        self.times.setflags(write=False)
        self.coords.setflags(write=False)

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class AxisSeries:
    """Samples of one spatial direction against shared times."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.ascontiguousarray(self.times, dtype=float)
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have the same length")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.values))):
            raise ValueError("axis series has non-finite times or values")
        if not np.all(np.diff(self.times) > 0):
            raise DuplicateTimestamp("axis series times are not strictly increasing")
        self.times.setflags(write=False)
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class TrackSet:
    """All tracks parsed from one file; every track shares the same dim."""

    tracks: dict[str, TrackSeries]
    source: str = ""

    def __post_init__(self):
        dims = {t.dim for t in self.tracks.values()}
        if len(dims) > 1:
            raise ValueError(f"tracks mix dimensionalities: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return next(iter(self.tracks.values())).dim if self.tracks else 0

    def __len__(self) -> int:
        return len(self.tracks)


def _parse_float(token: str, what: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise MalformedRow(f"line {line_no}: cannot parse {what} from {token!r}") from None


def _column_map(header: list[str], fmt: str, path: str) -> tuple[int, int, list[int]]:
    """Return (track column, time column, axis columns) indices."""
    names = [h.strip() for h in header]
    if fmt == "generic_csv":
        required = ("track", "t")
        axis_names = GENERIC_AXIS_COLUMNS
    elif fmt == "trackmate_csv":
        required = ("TRACK_ID", "POSITION_T")
        axis_names = TRACKMATE_AXIS_COLUMNS
    else:
        raise ValueError(f"unknown format {fmt!r}")

    try:
        track_col = names.index(required[0])
        time_col = names.index(required[1])
    except ValueError:
        raise MalformedRow(
            f"{path}: header {names!r} lacks required columns {required}"
        ) from None

    axis_cols = []
    for name in axis_names:
        if name in names:
            axis_cols.append(names.index(name))
        else:
            break
    if not axis_cols:
        raise MalformedRow(f"{path}: header {names!r} has no coordinate columns")
    return track_col, time_col, axis_cols


def parse_tracks(path: str, fmt: str = "generic_csv") -> TrackSet:
    """Parse a CSV file of track samples into a TrackSet.

    Rows are grouped by track id and sorted by time; rows with non-finite
    coordinates are rejected with a warning. Raises MalformedRow for rows
    that cannot be parsed and DuplicateTimestamp when a track repeats a
    time stamp. Tracks left with fewer than 2 rows are dropped (warning).
    """
    rows_by_track: dict[str, list[tuple[float, tuple[float, ...]]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(f"{path}: empty file") from None
        track_col, time_col, axis_cols = _column_map(header, fmt, path)
        n_needed = max(track_col, time_col, *axis_cols) + 1

        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < n_needed:
                raise MalformedRow(
                    f"line {line_no}: expected at least {n_needed} fields, got {len(row)}"
                )
            track_id = row[track_col].strip()
            t = _parse_float(row[time_col], "time", line_no)
            coord = tuple(
                _parse_float(row[c], f"coordinate {i}", line_no)
                for i, c in enumerate(axis_cols)
            )
            if not (math.isfinite(t) and all(map(math.isfinite, coord))):
                logger.warning("%s line %d: non-finite sample rejected", path, line_no)
                continue
            rows_by_track.setdefault(track_id, []).append((t, coord))

    dim = len(axis_cols)
    tracks: dict[str, TrackSeries] = {}
    for track_id, samples in rows_by_track.items():
        samples.sort(key=lambda s: s[0])
        times = np.array([s[0] for s in samples])
        if len(times) >= 2 and np.any(np.diff(times) == 0):
            raise DuplicateTimestamp(f"track {track_id!r} has duplicate timestamps")
        if len(samples) < 2:
            logger.warning(
                "%s: track %r dropped (%d sample(s), need >= 2)",
                path, track_id, len(samples),
            )
            continue
        coords = np.array([s[1] for s in samples])
        tracks[track_id] = TrackSeries(track_id, times, coords, dim)

    return TrackSet(tracks=tracks, source=str(path))


def split_axes(track: TrackSeries) -> list[AxisSeries]:
    """Split a D-dimensional track into D per-axis series sharing its times."""
    return [AxisSeries(track.times, track.coords[:, d]) for d in range(track.dim)]
