"""Track ingestion: CSV parsing, validation, and per-axis splitting.

Input files carry already-extracted particle coordinates. Two layouts are
supported:

* ``generic_csv`` -- header ``track,t,x[,y[,z]]``; dimensionality is
  inferred from the header.
* ``trackmate_csv`` -- TrackMate-style export with columns ``TRACK_ID``,
  ``POSITION_T``, ``POSITION_X``/``POSITION_Y``/``POSITION_Z``; all other
  columns are ignored.

The dimension is the number of leading axis columns present, and a header
may not skip one: ``x,z`` or ``POSITION_X,POSITION_Z`` is an error.

Rows are grouped by track id and sorted by time. Ties in time within a
track are an error (the mesh needs positive cell widths); tracks with
fewer than 2 usable rows are dropped with a warning.
"""

import csv
import logging
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

import numpy as np

from .errors import DuplicateTimestamp, MalformedRow, NonMonotoneTimes

logger = logging.getLogger(__name__)

# Each input format: its track and time columns, then its axis columns in
# order. The first is the default.
FORMATS = {
    "generic_csv": (("track", "t"), ("x", "y", "z")),
    "trackmate_csv": (("TRACK_ID", "POSITION_T"), ("POSITION_X", "POSITION_Y", "POSITION_Z")),
}
_BLOCK_ROWS = 256  # rows held as text at once; earlier rows are already floats


def _frozen_floats(a) -> np.ndarray:
    """a as a read-only C-contiguous float array that leaves the caller's
    arrays writable: an array made here by conversion is frozen in place, a
    writable array or view the caller holds is copied first, and a read-only
    one is taken as it is."""
    arr = np.ascontiguousarray(a, dtype=float)
    if arr.flags.writeable:
        if arr is a or arr.base is not None:
            arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass
class TrackSeries:
    """One particle's ordered space-time samples.

    times are strictly increasing seconds; coords has shape (len(times), dim).
    Both are held read-only; the caller's own arrays stay writable.
    """

    track_id: str
    times: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        self.times = _frozen_floats(self.times)
        self.coords = _frozen_floats(self.coords)
        if self.times.ndim != 1:
            raise ValueError(f"times must be one-dimensional, got shape {self.times.shape}")
        if self.coords.ndim == 1:
            self.coords = self.coords.reshape(-1, 1)
        if self.coords.ndim != 2 or not 1 <= self.coords.shape[1] <= 3:
            raise ValueError(f"coords must have 1 to 3 columns, got shape {self.coords.shape}")
        if len(self.coords) != len(self.times):
            raise ValueError(
                f"coords shape {self.coords.shape} does not match {len(self.times)} times"
            )
        if len(self.times) < 2:
            raise ValueError(f"track {self.track_id!r} has fewer than 2 samples")
        if not (np.isfinite(self.times).all() and np.isfinite(self.coords).all()):
            raise ValueError(f"track {self.track_id!r} has non-finite times or coordinates")
        if not (self.times[1:] > self.times[:-1]).all():
            if (self.times[1:] < self.times[:-1]).any():
                raise NonMonotoneTimes(f"track {self.track_id!r} has decreasing timestamps")
            raise DuplicateTimestamp(f"track {self.track_id!r} has duplicate timestamps")

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return len(self.times)

    @property
    def values(self) -> np.ndarray:
        """The samples of a one-axis track, shape (len(times),)."""
        if self.dim != 1:
            raise ValueError(f"track {self.track_id!r} has {self.dim} axes, values needs 1")
        return self.coords[:, 0]


@dataclass
class TrackSet:
    """All tracks parsed from one file; every track shares the same dim."""

    tracks: dict[str, TrackSeries]

    def __post_init__(self):
        dims = {t.dim for t in self.tracks.values()}
        if len(dims) > 1:
            raise ValueError(f"tracks mix dimensionalities: {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.tracks)


def _column_map(header: list[str], fmt: str, path: str) -> tuple[int, int, list[int]]:
    """Return (track column, time column, axis columns) indices."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    required, axis_names = FORMATS[fmt]
    names = [h.strip() for h in header]
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
    skipped = [name for name in axis_names[len(axis_cols) + 1:] if name in names]
    if skipped:
        raise MalformedRow(f"{path}: header {names!r} has column {skipped[0]!r} "
                           f"but lacks {axis_names[len(axis_cols)]!r}")
    if not axis_cols:
        raise MalformedRow(f"{path}: header {names!r} has no coordinate columns")
    return track_col, time_col, axis_cols


def _float_columns(
    columns: list[tuple[str, ...]], line_nos: list[int]
) -> tuple[np.ndarray, MalformedRow | None]:
    """Token columns (time, then each coordinate) as a (columns, rows) float
    array, converted by float() so the accepted syntax is Python's.

    If a token does not parse, the array stops before its row and the error
    names the first such token in file order.
    """
    try:
        return np.array([list(map(float, col)) for col in columns]), None
    except ValueError:
        pass
    for i, tokens in enumerate(zip(*columns)):
        for j, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                what = "time" if j == 0 else f"coordinate {j - 1}"
                error = MalformedRow(f"line {line_nos[i]}: cannot parse {what} from {token!r}")
                return np.array([list(map(float, col[:i])) for col in columns]), error
    raise AssertionError("unreachable")


def _row_blocks(reader, used: itemgetter, n_needed: int):
    """Yield (fields, line numbers) for blocks of up to _BLOCK_ROWS
    non-blank rows, where fields are the used tokens of each row. The last
    block ends at the end of the file, or before the first short row, whose
    MalformedRow is raised when the generator is resumed after it."""
    fields: list[tuple[str, ...]] = []
    line_nos: list[int] = []
    for line_no, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            continue
        if len(row) < n_needed:
            yield fields, line_nos
            raise MalformedRow(f"line {line_no}: expected at least {n_needed} fields, "
                               f"got {len(row)}")
        fields.append(used(row))
        line_nos.append(line_no)
        if len(fields) == _BLOCK_ROWS:
            yield fields, line_nos
            fields, line_nos = [], []
    yield fields, line_nos


def parse_tracks(path: str, fmt: str = "generic_csv") -> TrackSet:
    """Parse a CSV file of track samples into a TrackSet.

    Rows are grouped by track id and sorted by time; rows with non-finite
    coordinates are rejected with a warning. Raises MalformedRow for rows
    that cannot be parsed and DuplicateTimestamp when a track repeats a
    time stamp. Tracks left with fewer than 2 rows are dropped (warning).
    A UTF-8 byte-order mark at the start of the file is skipped.
    """
    first_seen: dict[str, int] = {}  # track id -> number, by first accepted row
    codes, blocks = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(f"{path}: empty file") from None
        track_col, time_col, axis_cols = _column_map(header, fmt, path)
        n_needed = max(track_col, time_col, *axis_cols) + 1
        used = itemgetter(track_col, time_col, *axis_cols)
        dim = len(axis_cols)

        for fields, line_nos in _row_blocks(reader, used, n_needed):
            columns = list(zip(*fields)) or [()] * (2 + dim)
            # rows before an unparsable one still get their warnings, in line order
            values, error = _float_columns(columns[1:], line_nos)
            finite = np.isfinite(values).all(axis=0)
            for i in np.flatnonzero(~finite).tolist():
                logger.warning("%s line %d: non-finite sample rejected", path, line_nos[i])
            if error is not None:
                raise error
            codes.append(np.array(
                [first_seen.setdefault(tid.strip(), len(first_seen))
                 for tid in compress(columns[0], finite.tolist())],
                dtype=np.intp,
            ))
            blocks.append(values[:, finite])

    codes = np.concatenate(codes)
    values = np.concatenate(blocks, axis=1)
    order = np.lexsort((values[0], codes))
    codes = codes[order]
    times = values[0, order]
    coords = np.ascontiguousarray(values[1:, order].T)
    for a in (times, coords):  # each track holds a read-only slice, not a copy
        a.setflags(write=False)
    repeated = (times[1:] == times[:-1]) & (codes[1:] == codes[:-1])
    first_dup = int(codes[1:][repeated].min()) if repeated.any() else len(first_seen)
    ends = np.cumsum(np.bincount(codes, minlength=len(first_seen))).tolist()

    tracks: dict[str, TrackSeries] = {}
    for k, (track_id, lo, hi) in enumerate(zip(first_seen, [0, *ends[:-1]], ends)):
        if k == first_dup:
            raise DuplicateTimestamp(f"track {track_id!r} has duplicate timestamps")
        if hi - lo < 2:
            logger.warning(
                "%s: track %r dropped (%d sample(s), need >= 2)", path, track_id, hi - lo
            )
            continue
        tracks[track_id] = TrackSeries(track_id, times[lo:hi], coords[lo:hi])

    return TrackSet(tracks)


def split_axes(track: TrackSeries) -> list[TrackSeries]:
    """Split a D-dimensional track into D one-axis tracks that share its id
    and times."""
    return [TrackSeries(track.track_id, track.times, track.coords[:, d])
            for d in range(track.dim)]
