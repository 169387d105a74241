"""Deterministic text/binary writers shared by the output-producing
modules: CSV at 17 significant digits and 16-bit binary PGM rasters."""

from __future__ import annotations

import os
from contextlib import ExitStack

import numpy as np

from .errors import DomainError

BLOCK_ROWS = 4096  # CSV rows per formatted block; bounds the text held in memory


def format_float(x: float) -> str:
    """17 significant digits; round-trips float64 exactly."""
    return format(float(x), ".17g")


def write_csv(path, header: str, row_format: str, columns, rows: int | None = None) -> None:
    """`header`, then `row_format % row` for each row of `columns`: arrays,
    lists, or functions of a row slice that derive that block's values
    (`rows`, or else the first array or list, sets the row count).
    `columns` may instead be one function of a row slice that returns all
    of that block's columns, with `rows` rows in all, so that no column is
    ever held whole; a block that raises removes the file. Each block of
    BLOCK_ROWS rows is formatted by one `%` and written in one call; `%.17g`
    writes what format_float does."""
    if not callable(columns):
        fixed = columns
        if rows is None:
            rows = next(len(col) for col in fixed if not callable(col))
        columns = lambda part: [col(part) if callable(col) else col[part] for col in fixed]
    fh = open(path, "w", newline="")
    try:
        with fh:
            fh.write(header)
            for lo in range(0, rows, BLOCK_ROWS):
                part = slice(lo, min(lo + BLOCK_ROWS, rows))
                block = columns(part)
                # the values in row order, one column slice at a time: no row tuples
                values = [None] * (len(block) * (part.stop - lo))
                for j, col in enumerate(block):
                    values[j :: len(block)] = col.tolist() if isinstance(col, np.ndarray) else col
                fh.write((row_format * (part.stop - lo)) % tuple(values))
    except BaseException:
        os.remove(path)  # a block that raises leaves no partial file
        raise


def write_timeseries_csv(path, times, values) -> None:
    """Columns t,re,im,abs2; abs2 is Python's abs(complex) ** 2."""
    write_series_csv(path, len(times), lambda part: (times[part], values[part]))


def write_series_csv(path, rows: int, block) -> None:
    """`write_timeseries_csv` of a series of `rows` samples that `block`
    returns as (times, values) for each row slice, so that the series is
    computed and written BLOCK_ROWS samples at a time."""

    def columns(part):
        times, values = block(part)
        v = np.asarray(values, dtype=complex)
        return times, v.real, v.imag, [abs(z) ** 2 for z in v.tolist()]

    write_csv(path, "t,re,im,abs2\n", "%.17g,%.17g,%.17g,%.17g\n", columns, rows)


def write_grid_csv(path, axis1, axis2, values) -> None:
    """Columns <axis1>,<axis2>,value with axis1 as the outer loop; each
    axis point is formatted once and looked up per block of cells.
    `values` is the grid or an iterable of (row slice, rows) blocks in row
    order, written as they come."""
    a1 = np.array([format_float(x) for x in axis1.points()], dtype=object)
    a2 = np.array([format_float(y) for y in axis2.points()], dtype=object)
    blocks = [(slice(0, axis1.count), values)] if isinstance(values, np.ndarray) else values
    write_csv(path, f"{axis1.name},{axis2.name},value\n", "%s,%s,%.17g\n",
              (lambda part: a1[np.arange(part.start, part.stop) // len(a2)],
               lambda part: a2[np.arange(part.start, part.stop) % len(a2)], _cells(blocks)),
              axis1.count * axis2.count)


def _cells(blocks):
    """write_grid_csv's value column: the real parts of consecutive cell
    slices, drawn from the row blocks in order, one block held at a time."""
    blocks = iter(blocks)
    held, first = np.empty(0), 0  # the flattened block and the cell index of held[0]

    def column(part):
        nonlocal held, first
        pieces = []
        lo = part.start
        while lo < part.stop:
            if lo == first + len(held):
                first += len(held)
                held = None
                held = np.real(next(blocks)[1]).ravel()
            hi = min(part.stop, first + len(held))
            pieces.append(held[lo - first : hi - first])
            lo = hi
        return np.concatenate(pieces)

    return column


def write_pgms(paths, blocks) -> None:
    """16-bit big-endian binary PGMs, one per path, of the images that
    `blocks()` streams: each call returns a fresh iterable of tuples that
    hold the next rows of every image, top to bottom. A first pass takes
    each image's maximum, which maps to 65535 and is recorded in a comment
    line; a second scales, rounds and writes the rows. Negative samples
    clip to black. Only one block of rows per image is held at a time."""
    maxima = [[] for _ in paths]
    height = 0
    for rows in blocks():
        height, width = height + len(rows[0]), rows[0].shape[1]
        for seen, block in zip(maxima, rows):
            seen.append(block.max())
    del rows  # not held while the second pass makes its first block
    vmaxes = [float(np.max(seen)) for seen in maxima]
    scales = [65535.0 / vmax if vmax > 0 else 0.0 for vmax in vmaxes]
    if not np.all(np.isfinite(vmaxes + scales)):
        raise DomainError(f"image maxima {', '.join(map(format_float, vmaxes))} do not scale to 16 bits")
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for fh, vmax in zip(files, vmaxes):
            fh.write(f"P5\n# max={format_float(vmax)}\n{width} {height}\n65535\n".encode())
        for rows in blocks():
            for fh, block, scale in zip(files, rows, scales):
                scaled = block * scale  # block-sized temporaries only, rounded and clipped in place
                np.rint(scaled, out=scaled)
                fh.write(np.clip(scaled, 0, 65535, out=scaled).astype(">u2").tobytes())


def write_pgm(path, values) -> None:
    """`write_pgms` of one image, in blocks of about 64k pixels."""
    arr = np.asarray(values, dtype=float)
    height, width = arr.shape
    step = max(1, 65536 // width)
    write_pgms([path], lambda: ((arr[lo : lo + step],) for lo in range(0, height, step)))
