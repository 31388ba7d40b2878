"""Observable quantities: counting rates and intensity maps.

Every rate is a normally ordered expectation value of detector operators,
computed exactly on the sparse state: singles_rate is Glauber's G1 (one
detector, or one point of a screen), coincidence_rate his G2 (two
detectors).  Rates are dimensionless (overall field constant 1).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .fock import EPS_ZERO, FockKet, LinearForm, ReplayKernel, apply_form, norm2

BEAM_KINDS = ("plane_wave", "gaussian")

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
    wavevector component (radians per unit length along x).
    """

    kind: str = "plane_wave"
    tilt: float = DEFAULT_TILT
    width: float | None = None
    phase_offset: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in BEAM_KINDS:
            raise ValueError(f"unknown beam kind {self.kind!r}; expected one of {BEAM_KINDS}")
        if self.kind == "gaussian" and (self.width is None or self.width <= 0):
            raise ValueError("gaussian beams need width > 0")
        if self.kind == "gaussian" and not self.width * self.width > 0.0:
            # value() divides by width^2.
            raise ValueError(f"gaussian beam width {self.width!r} is too small: its square underflows to 0")
        if self.amplitude < 0:
            raise ValueError("beam amplitude must be >= 0")

    def envelope(self, x: float, y: float) -> float:
        """Real envelope at (x, y): the amplitude, times the gaussian profile."""
        envelope = self.amplitude
        if self.kind == "gaussian":
            envelope *= math.exp(-(x * x + y * y) / (2.0 * self.width * self.width))
        return envelope

    def phase(self, x: float) -> float:
        """Phase at x: the tilt's linear ramp plus the offset."""
        return self.tilt * x + self.phase_offset

    def value(self, x: float, y: float) -> complex:
        """Complex field envelope(x, y) * exp(i phase(x))."""
        return self.envelope(x, y) * cmath.exp(1j * self.phase(x))


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
    beams: Sequence[BeamProfile],
    grid: ScanGrid,
) -> tuple[tuple[float, ...], ...]:
    """Overlapped-beam rate over the grid, as len(ys) rows of len(xs) cells.

    channel_forms[i] is the detector operator reached by beam i; beams[i]
    supplies its complex envelope at each point, so each cell is the
    singles rate of the summed field, computed bit for bit on a ReplayKernel
    compiled once per map.
    """
    if len(channel_forms) != 2 or len(beams) != 2:
        raise ValueError("intensity maps overlap exactly two beams")
    kernel, (beam1, beam2) = ReplayKernel(ket, [channel_forms]), beams
    return tuple(
        tuple(kernel.norm2(kernel.apply(kernel.start, kernel.form(0, beam1.value(x, y), beam2.value(x, y))))
              for x in grid.xs)
        for y in grid.ys
    )


def visibility(values: Sequence[Sequence[float]]) -> float:
    """Fringe visibility (max - min) / (max + min) of a sampled map; NaN if any cell is NaN."""
    cells = [v for row in values for v in row]
    if len(cells) < 2:
        raise ValueError("visibility needs a grid of at least 2 points")
    if any(math.isnan(v) for v in cells):
        # Python's max/min skip a NaN unless it comes first.
        return math.nan
    top, bottom = max(cells), min(cells)
    if top + bottom <= EPS_ZERO:
        raise AllDark("intensity map is identically dark")
    return (top - bottom) / (top + bottom)
