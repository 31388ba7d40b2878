"""Observable quantities: counting rates, conditional states, intensity maps.

Every rate is a normally ordered expectation value of detector operators,
computed exactly on the sparse state.  Rates are dimensionless (overall
field constant 1); converting a same-channel double rate into an event
probability (divide by 2 for a two-photon state) is left to the scenario
layer, which knows the photon number.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .fock import EPS_ZERO, FockKet, LinearForm, apply_form, norm2, normalize, zero_form
from .optics import ChannelField

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


def conditional_state(ket: FockKet, form: LinearForm, normalized: bool = False) -> FockKet:
    """State after one detection event, unnormalized by default.

    Raises ZeroState when normalization is requested but the detector
    operator annihilates the state.
    """
    out = apply_form(ket, form)
    return normalize(out) if normalized else out


def same_channel_double_rate(ket: FockKet, channel_field: ChannelField) -> float:
    """Ordered sum over both polarization components (p, p') of the channel of
    <Lp^dag Lp'^dag Lp' Lp>; for a unit-norm two-photon ket the probability of
    both photons ending up in this channel is half this value."""
    components = [channel_field.v.scale(channel_field.phase), channel_field.h.scale(channel_field.phase)]
    total = 0.0
    for first in components:
        once = apply_form(ket, first)
        for second in components:
            total += norm2(apply_form(once, second))
    return total


def intensity_at(ket: FockKet, contributions: Iterable[tuple[LinearForm, complex]]) -> float:
    """Rate of the summed field sum_i amp_i * L_i at one detector position."""
    total = zero_form()
    for form, amp in contributions:
        total = total.plus(form.scale(amp))
    return singles_rate(ket, total)


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

    def value(self, x: float, y: float) -> complex:
        envelope = self.amplitude
        if self.kind == "gaussian":
            envelope *= math.exp(-(x * x + y * y) / (2.0 * self.width * self.width))
        return envelope * cmath.exp(1j * (self.tilt * x + self.phase_offset))


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

    @classmethod
    def line(cls, n: int = 101, start: float = 0.0, stop: float = 1.0) -> "ScanGrid":
        if n < 2:
            raise ValueError("line scan needs at least 2 points")
        step = (stop - start) / (n - 1)
        return cls(xs=tuple(start + k * step for k in range(n)))


@dataclass(frozen=True)
class IntensityMap:
    """Detector rate sampled over a grid, with the beams that produced it."""

    grid: ScanGrid
    values: np.ndarray  # shape (len(ys), len(xs)), all entries >= 0
    beams: tuple[BeamProfile, BeamProfile] = field(default_factory=default_beams)


def intensity_map(
    ket: FockKet,
    channel_forms: Sequence[LinearForm],
    beams: Sequence[BeamProfile],
    grid: ScanGrid | None = None,
) -> IntensityMap:
    """Sample the overlapped-beam rate over the grid.

    channel_forms[i] is the detector operator reached by beam i; beams[i]
    supplies its complex envelope at each point.
    """
    if len(channel_forms) != 2 or len(beams) != 2:
        raise ValueError("intensity maps overlap exactly two beams")
    grid = grid or ScanGrid.line()
    values = np.empty((len(grid.ys), len(grid.xs)))
    for iy, y in enumerate(grid.ys):
        for ix, x in enumerate(grid.xs):
            contributions = [(channel_forms[i], beams[i].value(x, y)) for i in range(2)]
            values[iy, ix] = intensity_at(ket, contributions)
    return IntensityMap(grid=grid, values=values, beams=(beams[0], beams[1]))


def visibility(intensity: IntensityMap) -> float:
    """Fringe visibility (max - min) / (max + min) of a sampled map."""
    if intensity.values.size < 2:
        raise ValueError("visibility needs a grid of at least 2 points")
    top = float(intensity.values.max())
    bottom = float(intensity.values.min())
    if top + bottom <= EPS_ZERO:
        raise AllDark("intensity map is identically dark")
    return (top - bottom) / (top + bottom)
