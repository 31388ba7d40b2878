"""Observable quantities: counting rates and intensity maps.

Every rate is a normally ordered expectation value of detector operators,
computed exactly on the sparse state: singles_rate is Glauber's G1 (one
detector, or one point of a screen); his G2 (two detectors) is read off the
pair matrices of experiments.  Rates are dimensionless (overall field
constant 1).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from typing import NamedTuple

from .fock import EPS_ZERO, FockKet, LinearForm, apply_form, norm2

BEAM_KINDS = ("plane_wave", "gaussian")

#: A beam on a grid (BeamProfile.sample): a real factor per x (carrying the
#: amplitude), one per y, and the phasor (cos p, sin p) of each x's phase p.
BeamSamples = tuple[tuple[float, ...], tuple[float, ...], tuple[tuple[float, float], ...]]

#: Default transverse wavevector: five full fringes across the unit line scan,
#: with fringe extrema landing exactly on the default grid points.
DEFAULT_TILT = 5.0 * math.pi


class AllDark(ValueError):
    """Raised when a ratio of rates that all vanish is requested: a fringe
    visibility on an identically dark map, or a correlation coefficient
    (experiments.correlation_E) from four dark coincidence rates."""


def singles_rate(ket: FockKet, form: LinearForm) -> float:
    """Single-detector rate <L^dag L>."""
    return norm2(apply_form(ket, form))


class _Beam(NamedTuple):
    kind: str
    tilt: float
    width: float | None
    phase_offset: float
    amplitude: float


class BeamProfile(_Beam):
    """Analytic transverse envelope of one overlapped beam.

    kind "plane_wave" ignores width; "gaussian" multiplies in a real
    envelope exp(-(x^2+y^2) / (2 width^2)).  tilt is the transverse
    wavevector component (radians per unit length along x).  The field at
    (x, y) is the real envelope (the amplitude, times the gaussian profile)
    times exp(i phase), phase = tilt * x + phase_offset; sample gives it on a
    grid.  Beams compare by value.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str = "plane_wave",
        tilt: float = DEFAULT_TILT,
        width: float | None = None,
        phase_offset: float = 0.0,
        amplitude: float = 1.0,
    ) -> BeamProfile:
        if kind not in BEAM_KINDS:
            raise ValueError(f"unknown beam kind {kind!r}; expected one of {BEAM_KINDS}")
        # "not >" and "not >=" also reject NaN.
        if kind == "gaussian" and (width is None or not width > 0):
            raise ValueError("gaussian beams need width > 0")
        if kind == "gaussian" and not width * width > 0.0:
            # sample() divides by 2 width^2.
            raise ValueError(f"gaussian beam width {width!r} is too small: its square underflows to 0")
        if not amplitude >= 0:
            raise ValueError("beam amplitude must be >= 0")
        return tuple.__new__(cls, (kind, tilt, width, phase_offset, amplitude))

    def sample(self, grid: ScanGrid) -> BeamSamples:
        """The beam on the grid as (ex, ey, phasors): one real factor per x,
        which carries the amplitude, one per y, and (cos p, sin p) of each
        x's phase p = tilt * x + phase_offset, (nan, nan) where p is not
        finite, so the field at (xs[i], ys[j]) is ex[i] ey[j] exp(i p).  The
        pairs are a fig3 row's only trig: the map and its closed form both
        read them, so a wrong phase would not show as a mismatch between the
        two, and the tests pin each pair."""
        kind, tilt, width, offset, amplitude = self
        xs, ys = grid
        phases = [tilt * x + offset for x in xs]
        # math.cos raises on inf.  A list, not a generator: tuple() would resume a frame per phase.
        phasors = tuple([(math.cos(p), math.sin(p)) if math.isfinite(p) else (math.nan, math.nan) for p in phases])
        if kind != "gaussian":
            return (amplitude,) * len(xs), (1.0,) * len(ys), phasors
        spread, exp = 2.0 * width * width, math.exp
        ex = tuple(amplitude * exp(-(x * x) / spread) for x in xs)
        return ex, tuple(exp(-(y * y) / spread) for y in ys), phasors


#: Equal-amplitude plane waves with opposite default tilts.
DEFAULT_BEAMS = (BeamProfile(tilt=DEFAULT_TILT), BeamProfile(tilt=-DEFAULT_TILT))


class _Grid(NamedTuple):
    xs: tuple[float, ...]
    ys: tuple[float, ...]


class ScanGrid(_Grid):
    """Rectangular lattice of detector positions."""

    __slots__ = ()

    def __new__(cls, xs: tuple[float, ...], ys: tuple[float, ...] = (0.0,)) -> ScanGrid:
        if not xs or not ys:
            raise ValueError("scan grid must contain at least one point")
        return tuple.__new__(cls, (xs, ys))


#: Unit line scan of 101 points, x = 0, 0.01, ..., 1.
DEFAULT_GRID = ScanGrid(xs=tuple(k * 0.01 for k in range(101)))


#: A map by its factors (intensity_map): cell (j, i) is r1 p + r2 q (+ r12 c), left to right, of
#: rows[j] = (r1, r2, r12) and columns[i] = (p, q, c), two or three factors each.
FactoredMap = tuple[Sequence[tuple[float, ...]], Sequence[tuple[float, ...]]]


def intensity_map(gram: tuple[float, float, complex], samples: Sequence[BeamSamples]) -> FactoredMap:
    """Overlapped-beam rate over a grid, as the factors of its len(ys) rows
    of len(xs) cells (FactoredMap).

    gram is (<u|u>, <w|w>, <u|w>) of u = f|ket> and w = g|ket>, f and g being
    the detector operators the two beams reach, and samples are the two
    beams on the grid (BeamProfile.sample).  A cell is the singles rate of
    the summed field a f + b g, a and b being the beams' envelopes ex ey
    times exp(i p), as the Gram form |a|^2 <u|u> + |b|^2 <w|w> +
    2 Re(conj(a) b <u|w>): the row factors are ey1^2 <u|u>, ey2^2 <w|w> and
    ey1 ey2, the column factors ex1^2, ex2^2 and the cross term.  This holds
    for any ket, and agrees with singles_rate cell by cell to rounding."""
    if len(samples) != 2:
        raise ValueError("intensity maps overlap exactly two beams")
    uu, ww, uw = gram
    ur, ui = uw.real, uw.imag
    (ex1, ey1, z1), (ex2, ey2, z2) = samples
    rows = list(zip([e * e * uu for e in ey1], [e * e * ww for e in ey2], map(operator.mul, ey1, ey2)))
    # Re(conj(z1) z2 <u|w>) in reals is the complex product bit for bit: x - (-y) is x + y and (-a) b is -(a b).
    # A phasor per beam: exp(i (p2 - p1)) would round p2 - p1 first and lose huge phases.
    columns = [
        (e1 * e1, e2 * e2, 2.0 * e1 * e2 * ((c1 * c2 + s1 * s2) * ur - (c1 * s2 - s1 * c2) * ui))
        for e1, e2, (c1, s1), (c2, s2) in zip(ex1, ex2, z1, z2)
    ]
    return rows, columns


def _cells(row: tuple[float, ...], columns: Sequence[tuple[float, ...]]) -> list[float]:
    """One row's cells, r1 p + r2 q (+ r12 c), left to right."""
    if len(row) == 2:
        r1, r2 = row
        return [r1 * p + r2 * q for p, q in columns]
    r1, r2, r12 = row
    return [r1 * p + r2 * q + r12 * c for p, q, c in columns]


def _row_bounds(rows: Sequence[tuple[float, ...]], columns: Sequence[tuple[float, ...]]) -> tuple[list, list] | None:
    """Each row's upper and lower bound on its cells, as two lists, or None
    where no bound holds.

    A row's bound is its cell at the column-wise maxima (minima) of the
    column factors, in the cells' own operation order.  Where every row
    factor is >= 0, rounding to nearest is monotone in each product and sum,
    so these bound every cell of the row in floating point; where all the
    column factors and bounds are also finite, no cell overflows or is NaN."""
    if not all(map(math.isfinite, itertools.chain.from_iterable(columns))):
        return None
    if not all(r >= 0.0 for row in rows for r in row):
        return None
    axes = list(zip(*columns))
    # A product is the same float in either order, so the extremes as a row times the rows as columns
    # are each row's cells at the extremes.
    uppers, lowers = _cells(tuple(map(max, axes)), rows), _cells(tuple(map(min, axes)), rows)
    return (uppers, lowers) if all(map(math.isfinite, uppers + lowers)) else None


def visibility(factored: FactoredMap) -> float:
    """Fringe visibility (max - min) / (max + min) of a factored map
    (intensity_map); NaN if any cell is NaN.

    Each row is evaluated at most once, and only while its bound
    (_row_bounds) can still hold a larger maximum or a smaller minimum: the
    rows are walked by descending upper bound for the maximum and by
    ascending lower bound for the minimum.  A map of one row, or one whose
    rows have no bound, is walked in full."""
    rows, columns = factored
    if len(rows) * len(columns) < 2:
        raise ValueError("visibility needs a grid of at least 2 points")
    bounds = _row_bounds(rows, columns) if len(rows) > 1 else None
    if bounds is None:
        cells = [cell for row in rows for cell in _cells(row, columns)]
        # Python's max/min skip a NaN unless it comes first.  A NaN cell makes the
        # sum NaN, so only a NaN sum (a NaN, or +inf with -inf) walks the cells.
        if math.isnan(sum(cells)) and any(map(math.isnan, cells)):
            return math.nan
        top, bottom = max(cells), min(cells)
    else:
        # No cell is NaN or infinite here, so max and min are exact and order-free.
        uppers, lowers = bounds
        minima: dict[int, float] = {}
        top = -math.inf
        for j in sorted(range(len(rows)), key=uppers.__getitem__, reverse=True):
            if uppers[j] <= top:
                break
            cells = _cells(rows[j], columns)
            top, minima[j] = max(top, *cells), min(cells)
        bottom = math.inf
        for j in sorted(range(len(rows)), key=lowers.__getitem__):
            if lowers[j] >= bottom:
                break
            bottom = min(bottom, minima[j] if j in minima else min(_cells(rows[j], columns)))
    if top + bottom <= EPS_ZERO:
        raise AllDark("intensity map is identically dark")
    return (top - bottom) / (top + bottom)
