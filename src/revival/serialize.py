"""Deterministic text/binary writers shared by the output-producing
modules: CSV at 17 significant digits and 16-bit binary PGM rasters."""

from __future__ import annotations

import numpy as np


def format_float(x: float) -> str:
    """17 significant digits; round-trips float64 exactly."""
    return format(float(x), ".17g")


def write_timeseries_csv(path, times, values) -> None:
    """Columns t,re,im,abs2."""
    values = np.asarray(values)
    with open(path, "w", newline="") as fh:
        fh.write("t,re,im,abs2\n")
        for t, v in zip(times, values):
            v = complex(v)
            fh.write(
                f"{format_float(t)},{format_float(v.real)},{format_float(v.imag)},"
                f"{format_float(abs(v) ** 2)}\n"
            )


def write_grid_csv(path, axis1, axis2, values) -> None:
    """Columns <axis1>,<axis2>,value with axis1 as the outer loop."""
    with open(path, "w", newline="") as fh:
        fh.write(f"{axis1.name},{axis2.name},value\n")
        a1 = axis1.points()
        a2 = axis2.points()
        for i, x in enumerate(a1):
            for j, y in enumerate(a2):
                fh.write(f"{format_float(x)},{format_float(y)},{format_float(values[i, j].real)}\n")


def write_pgm(path, values) -> None:
    """16-bit big-endian binary PGM; the per-image maximum maps to 65535
    and is recorded in a comment line. Negative samples clip to black."""
    arr = np.asarray(values, dtype=float)
    vmax = float(arr.max())
    scale = 65535.0 / vmax if vmax > 0 else 0.0
    scaled = arr * scale  # one float temporary, rounded and clipped in place
    np.rint(scaled, out=scaled)
    pixels = np.clip(scaled, 0, 65535, out=scaled).astype(">u2")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        fh.write(f"# max={format_float(vmax)}\n".encode())
        fh.write(f"{width} {height}\n65535\n".encode())
        fh.write(pixels.tobytes())
