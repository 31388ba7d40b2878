"""Named end-to-end measurement scenarios.

Each scenario builds a source state and the detector operators seen through
its optical chain, evaluates the requested observable exactly, and reports
it next to its analytic closed form.  All angles are
radians; every rate is dimensionless with the overall source constant fixed
to 1.

Scenario catalog:

  fig1          two analyzers on the split single-beam circular pair;
                coincidence law sin^2(theta1 - theta2) / 4.
  pdc           two-channel pair source, entangled (psi_e) or un-entangled
                (psi_u); same normalized sin^2 law, constants 1/2 and 1/4.
  fig2          channel 2 split once more; coincidences between the two
                half-channels separate psi_u (cos^2 law / 16) from psi_e
                (identically zero).
  fig3          the two channels overlapped on one screen; fringe visibility
                separates psi_u (1) from psi_e (0); closed form from the
                first-order interference of the two beam envelopes.
  cascade       two-color cascade pair with frequency-selective detectors;
                cos^2 law with geometry coefficients.
  chsh          four-setting correlation sum built from any of the above
                coincidence laws.
  same-channel  probabilities of both photons leaving through one channel.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from . import detection as det
from . import optics as op
from .fock import (
    _SQRT1_2,
    EPS_PRUNE,
    EPS_ZERO,
    NAMED_STATE_KINDS,
    FockKet,
    LinearForm,
    apply_form,
    combination_forms,
    named_state,
    unit_form,
)
from .modes import BEAM_H, BEAM_V, H1, H2, V1, V2, W1H, W1V, W2H, W2V

#: Upper bound on the number of points in one angle scan.
MAX_SCAN_POINTS = 1_000_000


class DarkDenominator(ValueError):
    """Raised when a correlation coefficient is requested from four rates
    that are all (near) zero."""


class ScenarioResult(NamedTuple):
    """One table row: an evaluated observable, its analytic reference and
    the largest abs error that still counts as agreement."""

    observable: str
    value: float
    closed_form: float
    tolerance: float = 1e-9

    def abs_error(self) -> float:
        return abs(self.value - self.closed_form)


@dataclass(frozen=True)
class CascadeGeometry:
    """Complex routing coefficients of the two-color source into the two
    channels; g[i][j] weights frequency j in channel i."""

    g11: complex = 1.0 + 0j
    g12: complex = 1.0 + 0j
    g21: complex = 1.0 + 0j
    g22: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        for name in ("g11", "g12", "g21", "g22"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"geometry coefficient {name} must be finite")


# --- field chains ------------------------------------------------------------


def fig1_channel_fields() -> tuple[op.ChannelField, op.ChannelField]:
    """Split the single beam on a balanced mirror, then apply the component
    phase-flip plate in channel 1 and the component-swap plate in channel 2."""
    source = op.ChannelField(unit_form(BEAM_V), unit_form(BEAM_H))
    ch1, ch2 = op.beamsplitter_5050(source, op.empty_field())
    return op.apply_jones(ch1, op.hwp(0.0)), op.apply_jones(ch2, op.hwp(math.pi / 4))


def pdc_channel_fields(kind: str) -> tuple[op.ChannelField, op.ChannelField]:
    """Detector-plane fields of the two-channel pair source.

    For psi_e each channel carries its own polarization modes at unit
    amplitude.  For psi_u the channels carry the two combination modes with
    splitter weight 1/sqrt2 and crossed roles.
    """
    if kind == "psi_e":
        return (
            op.ChannelField(unit_form(V1), unit_form(H1)),
            op.ChannelField(unit_form(V2), unit_form(H2)),
        )
    if kind == "psi_u":
        first, second = combination_forms()
        return (
            op.ChannelField(first.scale(_SQRT1_2), second.scale(-_SQRT1_2)),
            op.ChannelField(second.scale(_SQRT1_2), first.scale(_SQRT1_2)),
        )
    raise ValueError(f"no two-channel pair fields for state {kind!r}")


def cascade_channel_fields(geom: CascadeGeometry) -> tuple[op.ChannelField, op.ChannelField]:
    """Both frequencies reach both channels, weighted by the geometry."""
    w1_v, w1_h = unit_form(W1V), unit_form(W1H)
    w2_v, w2_h = unit_form(W2V), unit_form(W2H)
    ch1 = op.ChannelField(
        w1_v.scale(geom.g11).plus(w2_v.scale(geom.g12)),
        w1_h.scale(geom.g11).plus(w2_h.scale(geom.g12)),
    )
    ch2 = op.ChannelField(
        w1_v.scale(geom.g21).plus(w2_v.scale(geom.g22)),
        w1_h.scale(geom.g21).plus(w2_h.scale(geom.g22)),
    )
    return ch1, ch2


@dataclass(frozen=True, eq=False)
class Source:
    """A two-photon state seen through two analyzer arms.

    The coincidence rate at analyzer angles (t1, t2) is the normally ordered
    <L1^dag L2^dag L2 L1> of the two polarizer operators (Glauber's G2),
    read off the two-photon amplitude matrix K, with closed form
    peak * law(t1 - t2) ** 2, law being math.sin or math.cos.
    """

    ket: FockKet
    arm1: op.ChannelField
    arm2: op.ChannelField
    peak: float
    law: Callable[[float], float]

    @functools.cached_property
    def K(self) -> tuple[tuple[complex, complex], tuple[complex, complex]] | None:
        """Two-photon amplitude matrix K[i][j] = <0| arm2[j] arm1[i] |ket>,
        i and j over the (v, h) components, computed once by the engine; None
        when the ket has a term that is not two-photon or K is not finite.

        L2 L1 of a two-photon ket is a multiple of the vacuum, and a
        polarizer at t is cos(t) v + sin(t) h, so the coincidence amplitude
        is c1^T K c2 with c = (cos t, sin t) (Rubin, Klyshko, Shih and
        Sergienko, PRA 50, 5122 (1994)).
        """
        if any(sum(n for _, n in occ) != 2 for occ, _ in self.ket.items()):
            return None
        arm1, arm2 = (self.arm1.v, self.arm1.h), (self.arm2.v, self.arm2.h)
        K = tuple(tuple(apply_form(apply_form(self.ket, f), g).amplitude(()) for g in arm2) for f in arm1)
        return K if all(cmath.isfinite(k) for row in K for k in row) else None


def source(kind: str, geometry: CascadeGeometry = CascadeGeometry(), split: bool = False) -> Source:
    """Build a named state and both analyzer arms of its coincidence
    measurement once.  The kind picks the channel fields: fig1 for
    circular_pair, pdc for psi_e and psi_u, and the cascade for psi_u_prime,
    whose analyzers see only the first color in channel 1 and the second in
    channel 2; the geometry only enters the cascade.  split is fig2: channel
    2 is split once more and its two halves are analyzed (not the cascade).
    """
    ket = named_state(kind)
    if kind == "psi_u_prime" and not split:
        ch1, ch2 = cascade_channel_fields(geometry)
        arm1, arm2 = op.frequency_component(ch1, "w1"), op.frequency_component(ch2, "w2")
        return Source(ket, arm1, arm2, 0.5 * abs(geometry.g11 * geometry.g22) ** 2, math.cos)
    ch1, ch2 = fig1_channel_fields() if kind == "circular_pair" else pdc_channel_fields(kind)
    if split:
        ch3, ch4 = op.beamsplitter_5050(ch2, op.empty_field())
        return Source(ket, ch3, ch4, 0.0 if kind == "psi_e" else 0.0625, math.cos)
    return Source(ket, ch1, ch2, 0.5 if kind == "psi_e" else 0.25, math.sin)


def coincidence(src: Source, t1: float, t2: float) -> ScenarioResult:
    """Coincidence rate of the two analyzers at angles t1, t2: the squared
    modulus of the amplitude c1^T K c2 (Source.K), or 0 as the engine prunes
    it where that modulus is <= EPS_PRUNE.  It agrees with
    det.coincidence_rate(src.ket, op.polarizer(src.arm1, t1),
    op.polarizer(src.arm2, t2)) to rounding, and is that engine value where
    K is None.  The closed form is NaN where t1 - t2 is not finite."""
    K = src.K
    if K is None:
        value = det.coincidence_rate(src.ket, op.polarizer(src.arm1, t1), op.polarizer(src.arm2, t2))
    else:
        (kvv, kvh), (khv, khh) = K
        c1, s1, c2, s2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
        amp = abs((c1 * kvv + s1 * khv) * c2 + (c1 * kvh + s1 * khh) * s2)
        value = 0 if amp <= EPS_PRUNE else amp ** 2
    delta = t1 - t2
    closed = src.peak * src.law(delta) ** 2 if math.isfinite(delta) else math.nan
    return ScenarioResult("coincidence_rate", value, closed)


# --- single-point scenarios -----------------------------------------------------


def fig1_conditional_check(src: Source, theta1: float) -> float:
    """Detection rate of the photon left behind by the first analyzer of the
    fig1 source (source("circular_pair")).

    The leftover state is kept unnormalized (detection probability folded
    in), so the bare analyzer operator sees it with rate one half for every
    angle.
    """
    leftover = apply_form(src.ket, op.polarizer(src.arm1, theta1))
    bare_analyzer = LinearForm({BEAM_V: math.cos(theta1), BEAM_H: -math.sin(theta1)})
    return det.singles_rate(leftover, bare_analyzer)


def _fig3_closed_form(kind: str, samples: Sequence[det.BeamSamples]) -> float:
    """Visibility of the first-order interference of the two beam envelopes
    e and phases p: e1^2 + e2^2 + 2 e1 e2 cos(p1 - p2) for psi_u (one
    combination mode reaches the screen through both beams) and
    (e1^2 + e2^2) / 2 for psi_e (H1 and V2 add incoherently, occupation 1/2
    each), from the beams' BeamProfile.sample."""
    (rows1, phases1), (rows2, phases2) = samples
    if kind == "psi_e":
        return det.visibility(
            tuple(tuple((e1 * e1 + e2 * e2) / 2.0 for e1, e2 in zip(row1, row2)) for row1, row2 in zip(rows1, rows2))
        )
    # math.cos raises on inf; the engine's map is NaN there too.
    cosines = [math.cos(d) if math.isfinite(d) else math.nan for d in map(operator.sub, phases1, phases2)]
    return det.visibility(
        tuple(
            tuple(e1 * e1 + e2 * e2 + 2.0 * e1 * e2 * c for e1, e2, c in zip(row1, row2, cosines))
            for row1, row2 in zip(rows1, rows2)
        )
    )


def fig3_visibility(
    kind: str,
    beams: Sequence[det.BeamProfile] | None = None,
    grid: det.ScanGrid | None = None,
) -> ScenarioResult:
    """Fringe visibility of the two overlapped channels on one screen.

    Channel 1 is analyzed horizontally and rotated to vertical, channel 2 is
    analyzed vertically, so both beams hit the screen in the same
    polarization and only the state decides whether they interfere.  Each
    beam is sampled once, and the engine's map and the closed form share
    the samples.
    """
    grid = grid or det.DEFAULT_GRID
    beams = tuple(beams) if beams is not None else det.default_beams()
    if kind == "psi_e":
        screen_forms = [unit_form(H1), unit_form(V2)]
    elif kind == "psi_u":
        _, second = combination_forms()
        screen_forms = [second, second]
    else:
        raise ValueError(f"no overlap scenario for state {kind!r}")
    samples = [beam.sample(grid) for beam in beams]
    fringe_map = det.intensity_map(named_state(kind), screen_forms, samples)
    return ScenarioResult(
        observable="visibility",
        value=det.visibility(fringe_map),
        closed_form=_fig3_closed_form(kind, samples),
    )


# --- channel statistics -----------------------------------------------------------


def _arm_pair_rate(ket: FockKet, a: op.ChannelField, b: op.ChannelField) -> float:
    """Coincidence rate of arms a and b summed over the (v, h) components of
    each; with a is b it counts both photons in one arm twice (ordered pairs)."""
    total = 0.0
    for first in (a.v, a.h):
        for second in (b.v, b.h):
            total += det.coincidence_rate(ket, first, second)
    return total


def same_channel_probability(src: Source, channel: int) -> float:
    """Probability that both photons of the pair leave through one channel:
    half the ordered double rate, the pair having two photons."""
    if channel not in (1, 2):
        raise ValueError("channel must be 1 or 2")
    arm = src.arm1 if channel == 1 else src.arm2
    return _arm_pair_rate(src.ket, arm, arm) / 2.0


def split_probability(src: Source) -> float:
    """Probability of one photon in each channel, summed over polarizations."""
    return _arm_pair_rate(src.ket, src.arm1, src.arm2)


#: Closed-form outcome probabilities (both in 1, both in 2, one in each) of
#: every state kind with a channel decomposition.
SAME_CHANNEL_CLOSED_FORMS = {
    "circular_pair": (0.25, 0.25, 0.5),
    "psi_e": (0.0, 0.0, 1.0),
    "psi_u": (0.25, 0.25, 0.5),
}


def same_channel_table(kind: str) -> list[ScenarioResult]:
    """Outcome probabilities {both in 1, both in 2, one in each}."""
    src = source(kind)
    values = (same_channel_probability(src, 1), same_channel_probability(src, 2), split_probability(src))
    names = ("both_ch1", "both_ch2", "split")
    return [ScenarioResult(*row) for row in zip(names, values, SAME_CHANNEL_CLOSED_FORMS[kind])]


# --- correlation coefficients -------------------------------------------------------


def correlation_E(src: Source, theta1: float, theta2: float) -> float:
    """Two-channel correlation coefficient estimated from four analyzer
    settings (each angle also rotated by pi/2)."""
    t1p = theta1 + math.pi / 2
    t2p = theta2 + math.pi / 2

    def rate(t1: float, t2: float) -> float:
        return coincidence(src, t1, t2).value

    same = rate(theta1, theta2) + rate(t1p, t2p)
    cross = rate(theta1, t2p) + rate(t1p, theta2)
    total = same + cross
    if total <= EPS_ZERO:
        raise DarkDenominator("all four coincidence rates vanish at these analyzer angles")
    return (same - cross) / total


def analytic_correlation_E(src: Source, theta1: float, theta2: float) -> float:
    """Closed form of correlation_E: -cos 2(t1-t2) for the sin^2-law sources,
    +cos 2(t1-t2) for the cos^2 law."""
    sign = 1.0 if src.law is math.cos else -1.0
    return sign * math.cos(2.0 * (theta1 - theta2))


def chsh_S(
    src: Source, a: float, ap: float, b: float, bp: float, E: Callable[[Source, float, float], float] = correlation_E
) -> float:
    """Four-setting correlation sum E(a,b) - E(a,b') + E(a',b) + E(a',b');
    E=analytic_correlation_E gives its closed form."""
    return E(src, a, b) - E(src, a, bp) + E(src, ap, b) + E(src, ap, bp)


# --- experiment registry and scans ------------------------------------------------------

#: One scan point: the experiment's angles in radians, positionally in Experiment.angles order -> result rows.
Point = Callable[..., list[ScenarioResult]]


@dataclass(frozen=True)
class Experiment:
    """Everything the scenario layer knows about one named experiment.

    prepare(state, geometry, beams) builds the scenario once and returns the
    Point that evaluates one point of it.
    """

    angles: dict[str, float]  # parameter name -> default, in degrees
    states: tuple[str, ...]
    default_state: str
    prepare: Callable[[str, CascadeGeometry, Sequence[det.BeamProfile]], Point]


def _pair_experiment(names: tuple[str, str], states: tuple[str, ...], default: str, split: bool = False) -> Experiment:
    def prepare(state: str, geometry: CascadeGeometry, beams) -> Point:
        src = source(state, geometry, split)
        return lambda t1, t2: [coincidence(src, t1, t2)]

    return Experiment(dict.fromkeys(names, 0.0), states, default, prepare)


def _prepare_chsh(state: str, geometry: CascadeGeometry, beams) -> Point:
    src = source(state)

    def point(a: float, ap: float, b: float, bp: float) -> list[ScenarioResult]:
        value = abs(chsh_S(src, a, ap, b, bp))
        closed = abs(chsh_S(src, a, ap, b, bp, E=analytic_correlation_E))
        return [ScenarioResult("abs_S", value, closed)]

    return point


EXPERIMENTS: dict[str, Experiment] = {
    "fig1": _pair_experiment(("theta1", "theta2"), ("circular_pair",), "circular_pair"),
    "pdc": _pair_experiment(("theta1", "theta2"), ("psi_e", "psi_u"), "psi_u"),
    "fig2": _pair_experiment(("theta3", "theta4"), ("psi_e", "psi_u"), "psi_u", split=True),
    "fig3": Experiment(
        {}, ("psi_e", "psi_u"), "psi_u", lambda state, geometry, beams: lambda: [fig3_visibility(state, beams)]
    ),
    "cascade": _pair_experiment(("theta1", "theta2"), ("psi_u_prime",), "psi_u_prime"),
    "chsh": Experiment(
        {"a": 0.0, "ap": 45.0, "b": 22.5, "bp": 67.5}, NAMED_STATE_KINDS, "circular_pair", _prepare_chsh
    ),
    "same-channel": Experiment(
        {}, tuple(SAME_CHANNEL_CLOSED_FORMS), "psi_u", lambda state, geometry, beams: lambda: same_channel_table(state)
    ),
}

#: Analyzer settings that maximize the four-setting correlation sum.
CANONICAL_CHSH_ANGLES = {name: math.radians(deg) for name, deg in EXPERIMENTS["chsh"].angles.items()}


def scan_count(start: float, stop: float, step: float) -> int:
    """Number of points in the inclusive grid start, start + step, ..., stop,
    computed without building the grid; at most MAX_SCAN_POINTS."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("scan bounds and step must be finite")
    if step <= 0.0:
        raise ValueError("scan step must be > 0")
    if stop < start:
        raise ValueError("scan range is empty (to < from)")
    limit = stop + 1e-9 * step
    # Floor estimate of the last index, corrected against the inclusive test.
    last = int(min((stop - start) / step, MAX_SCAN_POINTS))
    while last > 0 and start + last * step > limit:
        last -= 1
    while last < MAX_SCAN_POINTS and start + (last + 1) * step <= limit:
        last += 1
    if last >= MAX_SCAN_POINTS:
        raise ValueError(f"scan has more than {MAX_SCAN_POINTS} points")
    return last + 1


def scan_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid start, start + step, ..., stop."""
    return [start + k * step for k in range(scan_count(start, stop, step))]
