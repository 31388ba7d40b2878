"""Observable quantities: counting rates and intensity maps.

Every rate is a normally ordered expectation value of detector operators,
computed exactly on the sparse state: singles_rate is Glauber's G1 (one
detector, or one point of a screen), coincidence_rate his G2 (two
detectors).  Rates are dimensionless (overall field constant 1).
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

from .fock import EPS_ZERO, FockKet, LinearForm, apply_form, inner, norm2

BEAM_KINDS = ("plane_wave", "gaussian")

#: A beam on a grid: len(ys) rows of len(xs) real envelopes, and the phase of each column.
BeamSamples = tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]

#: Default transverse wavevector: five full fringes across the unit line scan,
#: with fringe extrema landing exactly on the default grid points.
DEFAULT_TILT = 5.0 * math.pi


class AllDark(ValueError):
    """Raised when a fringe metric is requested on an identically dark map."""


def singles_rate(ket: FockKet, form: LinearForm) -> float:
    """Single-detector rate <L^dag L>."""
    return norm2(apply_form(ket, form))


def coincidence_rate(ket: FockKet, form1: LinearForm, form2: LinearForm) -> float:
    """Two-detector coincidence rate <L1^dag L2^dag L2 L1>, symmetric in the forms."""
    return norm2(apply_form(apply_form(ket, form1), form2))


@dataclass(frozen=True)
class BeamProfile:
    """Analytic transverse envelope of one overlapped beam.

    kind "plane_wave" ignores width; "gaussian" multiplies in a real
    envelope exp(-(x^2+y^2) / (2 width^2)).  tilt is the transverse
    wavevector component (radians per unit length along x).  value gives the
    field at one point; sample gives it on a whole grid, once per axis where
    a factor depends on one coordinate only.
    """

    kind: str = "plane_wave"
    tilt: float = DEFAULT_TILT
    width: float | None = None
    phase_offset: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in BEAM_KINDS:
            raise ValueError(f"unknown beam kind {self.kind!r}; expected one of {BEAM_KINDS}")
        # "not >" and "not >=" also reject NaN.
        if self.kind == "gaussian" and (self.width is None or not self.width > 0):
            raise ValueError("gaussian beams need width > 0")
        if self.kind == "gaussian" and not self.width * self.width > 0.0:
            # value() divides by width^2.
            raise ValueError(f"gaussian beam width {self.width!r} is too small: its square underflows to 0")
        if not self.amplitude >= 0:
            raise ValueError("beam amplitude must be >= 0")

    def value(self, x: float, y: float) -> complex:
        """Complex field at (x, y): the real envelope (the amplitude, times the
        gaussian profile) times exp(i phase), phase = tilt * x + phase_offset."""
        envelope = self.amplitude
        if self.kind == "gaussian":
            envelope *= math.exp(-(x * x + y * y) / (2.0 * self.width * self.width))
        return envelope * cmath.exp(1j * (self.tilt * x + self.phase_offset))

    def sample(self, grid: ScanGrid) -> BeamSamples:
        """The beam on the grid as (envelope rows, phase per x), with the float
        operations of value: len(ys) rows of len(xs) real envelopes, and the
        phase of each column, which does not depend on y.  A plane wave's
        envelope is its amplitude everywhere; a gaussian's takes x^2 once per
        column and y^2 once per row."""
        phases = tuple(self.tilt * x + self.phase_offset for x in grid.xs)
        if self.kind != "gaussian":
            return ((self.amplitude,) * len(grid.xs),) * len(grid.ys), phases
        amplitude, spread, exp = self.amplitude, 2.0 * self.width * self.width, math.exp
        squares = [x * x for x in grid.xs]
        rows = tuple(tuple(amplitude * exp(-(xx + yy) / spread) for xx in squares) for yy in [y * y for y in grid.ys])
        return rows, phases


def default_beams() -> tuple[BeamProfile, BeamProfile]:
    """Equal-amplitude plane waves with opposite default tilts."""
    return BeamProfile(tilt=DEFAULT_TILT), BeamProfile(tilt=-DEFAULT_TILT)


@dataclass(frozen=True)
class ScanGrid:
    """Rectangular lattice of detector positions."""

    xs: tuple[float, ...]
    ys: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if not self.xs or not self.ys:
            raise ValueError("scan grid must contain at least one point")


#: Unit line scan of 101 points, x = 0, 0.01, ..., 1.
DEFAULT_GRID = ScanGrid(xs=tuple(k * 0.01 for k in range(101)))


def intensity_map(
    ket: FockKet,
    channel_forms: Sequence[LinearForm],
    samples: Sequence[BeamSamples],
) -> tuple[tuple[float, ...], ...]:
    """Overlapped-beam rate over a grid, as len(ys) rows of len(xs) cells.

    channel_forms = (f, g) are the detector operators reached by the two
    beams, and samples are the two beams on the grid (BeamProfile.sample),
    which a caller can share with a closed form of the same map.

    A cell is the singles rate of the summed field a f + b g, with a and b
    each an envelope times its column's exp(i phase) (one complex exponential
    per column and beam), evaluated as the Gram form
    |a|^2 <u|u> + |b|^2 <w|w> + 2 Re(conj(a) b <u|w>) of u = f|ket> and
    w = g|ket>, which the engine computes once per map.  This holds for any
    ket, agrees with singles_rate cell by cell to rounding, and equals the
    Gram form of BeamProfile.value at every cell.
    """
    if len(channel_forms) != 2 or len(samples) != 2:
        raise ValueError("intensity maps overlap exactly two beams")
    u, w = (apply_form(ket, form) for form in channel_forms)
    uu, ww, uw = norm2(u), norm2(w), inner(u, w)
    (rows1, phases1), (rows2, phases2) = samples
    phasors1 = [cmath.exp(1j * phase) for phase in phases1]
    phasors2 = [cmath.exp(1j * phase) for phase in phases2]
    return tuple(
        tuple(
            abs(a) ** 2 * uu + abs(b) ** 2 * ww + 2.0 * (a.conjugate() * b * uw).real
            for a, b in zip(map(operator.mul, row1, phasors1), map(operator.mul, row2, phasors2))
        )
        for row1, row2 in zip(rows1, rows2)
    )


def visibility(values: Sequence[Sequence[float]]) -> float:
    """Fringe visibility (max - min) / (max + min) of a sampled map; NaN if any cell is NaN."""
    cells = [v for row in values for v in row]
    if len(cells) < 2:
        raise ValueError("visibility needs a grid of at least 2 points")
    if any(map(math.isnan, cells)):
        # Python's max/min skip a NaN unless it comes first.
        return math.nan
    top, bottom = max(cells), min(cells)
    if top + bottom <= EPS_ZERO:
        raise AllDark("intensity map is identically dark")
    return (top - bottom) / (top + bottom)
