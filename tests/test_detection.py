"""Counting rates, intensity maps, visibility."""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np
import pytest

import oracle
from biphoton import detection as det
from biphoton import fock as fk
from biphoton.modes import BEAM_H, BEAM_V, H1, H2, V1, V2
from biphoton.optics import ChannelField
from support import coincidence_rate, normalized

SQRT1_2 = math.sqrt(0.5)


def beam_analyzer(theta: float, scaled: bool = True) -> fk.LinearForm:
    pref = SQRT1_2 if scaled else 1.0
    return fk.LinearForm({BEAM_V: pref * math.cos(theta), BEAM_H: -pref * math.sin(theta)})


def swapped_beam_analyzer(theta: float, scaled: bool = True) -> fk.LinearForm:
    pref = SQRT1_2 if scaled else 1.0
    return fk.LinearForm({BEAM_H: pref * math.cos(theta), BEAM_V: pref * math.sin(theta)})


def entangled_channel_field(channel: int) -> ChannelField:
    v, h = (V1, H1) if channel == 1 else (V2, H2)
    return ChannelField(fk.unit_form(v), fk.unit_form(h))


def unentangled_channel_field(channel: int) -> ChannelField:
    b1, b2 = fk.combination_forms()
    if channel == 1:
        return ChannelField(b1.scale(SQRT1_2), b2.scale(-SQRT1_2))
    return ChannelField(b2.scale(SQRT1_2), b1.scale(SQRT1_2))


def same_channel_double_rate(ket: fk.FockKet, field: ChannelField) -> float:
    """Ordered coincidence sum over both polarization components of one channel."""
    return sum(coincidence_rate(ket, first, second) for first in (field.v, field.h) for second in (field.v, field.h))


def screen_rate(ket: fk.FockKet, contributions) -> float:
    """Singles rate of the summed field sum_i amp_i * L_i."""
    total = fk.LinearForm()
    for form, amp in contributions:
        total = total.plus(form.scale(amp))
    return det.singles_rate(ket, total)


# --- singles ----------------------------------------------------------------


def test_singles_rate_on_conditional_state_is_half():
    """After one detection, the bare analyzer sees the leftover photon with
    rate one half, independent of the analyzer angle."""
    pair = fk.named_state("circular_pair")
    for theta in (0.0, math.pi / 3, 1.234):
        leftover = fk.apply_form(pair, beam_analyzer(theta))
        assert det.singles_rate(leftover, beam_analyzer(theta, scaled=False)) == pytest.approx(0.5, abs=1e-14)


def test_singles_rate_vacuum_is_zero():
    assert det.singles_rate(fk.vacuum(), beam_analyzer(0.3)) == 0.0


def test_singles_rate_single_photon_unit_form():
    ket = fk.FockKet({fk.occupation({V1: 1}): 1.0})
    assert det.singles_rate(ket, fk.unit_form(V1)) == pytest.approx(1.0)


# --- coincidences -------------------------------------------------------------


@pytest.mark.parametrize("t1,t2", [(0.0, math.pi / 2), (0.4, -0.9), (1.1, 1.1)])
def test_circular_pair_coincidence_sine_law(t1, t2):
    rate = coincidence_rate(fk.named_state("circular_pair"), beam_analyzer(t1), swapped_beam_analyzer(t2))
    assert rate == pytest.approx(0.25 * math.sin(t1 - t2) ** 2, abs=1e-14)


def test_entangled_pair_coincidence_half_sine_law():
    psi = fk.named_state("psi_e")
    for t1, t2 in [(0.0, math.pi / 2), (0.7, 0.1)]:
        l1 = fk.LinearForm({V1: math.cos(t1), H1: math.sin(t1)})
        l2 = fk.LinearForm({V2: math.cos(t2), H2: math.sin(t2)})
        assert coincidence_rate(psi, l1, l2) == pytest.approx(0.5 * math.sin(t1 - t2) ** 2, abs=1e-14)


def test_coincidence_zero_forms():
    assert coincidence_rate(fk.named_state("psi_e"), fk.LinearForm(), fk.LinearForm()) == 0.0


def test_coincidence_symmetric_in_forms():
    rng = np.random.default_rng(17)
    from support import random_form, random_ket

    for _ in range(25):
        ket = random_ket(rng)
        f1, f2 = random_form(rng), random_form(rng)
        assert coincidence_rate(ket, f1, f2) == pytest.approx(coincidence_rate(ket, f2, f1), abs=1e-12)


def test_rates_are_nonnegative_on_random_inputs():
    rng = np.random.default_rng(29)
    from support import random_form, random_ket

    for _ in range(50):
        ket = random_ket(rng)
        assert det.singles_rate(ket, random_form(rng)) >= -1e-14
        assert coincidence_rate(ket, random_form(rng), random_form(rng)) >= -1e-14


# --- conditional states ---------------------------------------------------------


def test_conditional_state_amplitudes_unnormalized():
    theta = 0.8
    out = fk.apply_form(fk.named_state("circular_pair"), beam_analyzer(theta))
    assert out.amplitude(fk.occupation({BEAM_V: 1})) == pytest.approx(SQRT1_2 * math.cos(theta), abs=1e-14)
    assert out.amplitude(fk.occupation({BEAM_H: 1})) == pytest.approx(-SQRT1_2 * math.sin(theta), abs=1e-14)


def test_conditional_state_normalized_flag():
    out = normalized(fk.apply_form(fk.named_state("circular_pair"), beam_analyzer(0.8)))
    assert fk.norm2(out) == pytest.approx(1.0, abs=1e-14)


# --- same-channel double detections ----------------------------------------------


def test_entangled_pair_never_doubles_in_one_channel():
    psi = fk.named_state("psi_e")
    assert same_channel_double_rate(psi, entangled_channel_field(1)) == pytest.approx(0.0, abs=1e-14)
    assert same_channel_double_rate(psi, entangled_channel_field(2)) == pytest.approx(0.0, abs=1e-14)


def test_unentangled_pair_doubles_with_rate_half():
    psi = fk.named_state("psi_u")
    assert same_channel_double_rate(psi, unentangled_channel_field(1)) == pytest.approx(0.5, abs=1e-14)
    assert same_channel_double_rate(psi, unentangled_channel_field(2)) == pytest.approx(0.5, abs=1e-14)


def test_circular_pair_outcome_probabilities_sum_to_one():
    pair = fk.named_state("circular_pair")
    ch1 = ChannelField(fk.unit_form(BEAM_V).scale(SQRT1_2), fk.unit_form(BEAM_H).scale(-SQRT1_2))
    ch2 = ChannelField(fk.unit_form(BEAM_H).scale(SQRT1_2), fk.unit_form(BEAM_V).scale(SQRT1_2))
    p_both_1 = same_channel_double_rate(pair, ch1) / 2.0
    p_both_2 = same_channel_double_rate(pair, ch2) / 2.0
    p_split = sum(
        coincidence_rate(pair, first, second)
        for first in (ch1.v, ch1.h)
        for second in (ch2.v, ch2.h)
    )
    assert p_both_1 == pytest.approx(0.25, abs=1e-14)
    assert p_both_2 == pytest.approx(0.25, abs=1e-14)
    assert p_split == pytest.approx(0.5, abs=1e-14)
    assert p_both_1 + p_both_2 + p_split == pytest.approx(1.0, abs=1e-14)


# --- intensities -------------------------------------------------------------------


def test_intensity_entangled_adds_incoherently():
    psi = fk.named_state("psi_e")
    f1, f2 = 0.6 + 0.3j, -0.2 + 0.9j
    value = screen_rate(psi, [(fk.unit_form(H1), f1), (fk.unit_form(V2), f2)])
    assert value == pytest.approx(0.5 * (abs(f1) ** 2 + abs(f2) ** 2), abs=1e-14)


def test_intensity_unentangled_adds_coherently():
    psi = fk.named_state("psi_u")
    _, b2 = fk.combination_forms()
    f1, f2 = 0.8, -0.8
    value = screen_rate(psi, [(b2, f1), (b2, f2)])
    assert value == pytest.approx(abs(f1 + f2) ** 2, abs=1e-14)
    f1, f2 = 0.5 + 0.5j, 0.5 - 0.25j
    value = screen_rate(psi, [(b2, f1), (b2, f2)])
    assert value == pytest.approx(abs(f1 + f2) ** 2, abs=1e-14)


def test_intensity_zero_amplitudes():
    psi = fk.named_state("psi_e")
    assert screen_rate(psi, [(fk.unit_form(H1), 0.0), (fk.unit_form(V2), 0.0)]) == 0.0


def test_unentangled_map_has_full_visibility():
    psi = fk.named_state("psi_u")
    _, b2 = fk.combination_forms()
    fringe_map = det.intensity_map(psi, [b2, b2], [b.sample(det.DEFAULT_GRID) for b in det.DEFAULT_BEAMS])
    assert len(fringe_map) == 1
    assert all(len(row) == len(det.DEFAULT_GRID.xs) for row in fringe_map)
    assert det.visibility(fringe_map) == pytest.approx(1.0, abs=1e-9)
    assert min(v for row in fringe_map for v in row) >= 0.0


def test_entangled_map_is_flat():
    psi = fk.named_state("psi_e")
    samples = [b.sample(det.DEFAULT_GRID) for b in det.DEFAULT_BEAMS]
    flat_map = det.intensity_map(psi, [fk.unit_form(H1), fk.unit_form(V2)], samples)
    assert det.visibility(flat_map) == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(flat_map, 1.0, atol=1e-12)


def test_single_beam_cannot_fringe():
    psi = fk.named_state("psi_u")
    _, b2 = fk.combination_forms()
    beams = (det.BeamProfile(tilt=det.DEFAULT_TILT), det.BeamProfile(tilt=-det.DEFAULT_TILT, amplitude=0.0))
    lonely = det.intensity_map(psi, [b2, b2], [b.sample(det.DEFAULT_GRID) for b in beams])
    assert det.visibility(lonely) == pytest.approx(0.0, abs=1e-12)


def test_gaussian_beam_envelope_applies():
    beam = det.BeamProfile(kind="gaussian", tilt=0.0, width=0.5)
    assert abs(oracle.beam_value(beam, 0.0, 0.0)) == pytest.approx(1.0)
    assert abs(oracle.beam_value(beam, 0.5, 0.0)) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_beam_validation():
    with pytest.raises(ValueError, match="width"):
        det.BeamProfile(kind="gaussian", width=0.0)
    with pytest.raises(ValueError, match="kind"):
        det.BeamProfile(kind="bessel")
    with pytest.raises(ValueError, match="amplitude"):
        det.BeamProfile(amplitude=-1.0)
    with pytest.raises(ValueError, match="amplitude must be >= 0"):
        det.BeamProfile(amplitude=math.nan)
    with pytest.raises(ValueError, match="need width > 0"):
        det.BeamProfile(kind="gaussian", width=math.nan)


@pytest.mark.parametrize("kind", det.BEAM_KINDS)
def test_beam_sample_is_value_on_the_grid(kind):
    rng = np.random.default_rng(12)
    for _ in range(20):
        beam = det.BeamProfile(
            kind=kind,
            tilt=float(rng.uniform(-20.0, 20.0)),
            width=float(rng.uniform(0.2, 2.0)),
            phase_offset=float(rng.uniform(-7.0, 7.0)),
            amplitude=float(rng.uniform(0.0, 3.0)),
        )
        grid = det.ScanGrid(tuple(map(float, rng.uniform(-2, 2, 5))), tuple(map(float, rng.uniform(-2, 2, 3))))
        ex, ey, phases = beam.sample(grid)
        assert (len(ex), len(ey), len(phases)) == (len(grid.xs), len(grid.ys), len(grid.xs))
        for y, fy in zip(grid.ys, ey):
            for x, fx, phase in zip(grid.xs, ex, phases):
                assert fx * fy * cmath.exp(1j * phase) == oracle.beam_value(beam, x, y)


def test_a_factored_gaussian_is_the_gaussian_of_the_summed_square():
    # exp turns an absolute error d of its argument into a relative error d,
    # and z = (x^2 + y^2) / s carries about 2 z 2^-53 of rounding, either way:
    # with the exps' own rounding, the two factors and the one exp differ by
    # at most 2 (z + 2) 2^-52 relative.
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(200):
        width = float(rng.uniform(0.05, 3.0))
        grid = det.ScanGrid(tuple(map(float, rng.uniform(-3, 3, 15))), tuple(map(float, rng.uniform(-3, 3, 15))))
        ex, ey, _ = det.BeamProfile(kind="gaussian", tilt=0.0, width=width).sample(grid)
        spread = 2.0 * width * width
        for y, fy in zip(grid.ys, ey):
            for x, fx in zip(grid.xs, ex):
                z = (x * x + y * y) / spread
                want = math.exp(-z)
                if min(want, fx * fy) < sys.float_info.min:
                    continue
                assert abs(fx * fy - want) <= 2.0 * (z + 2.0) * 2.0**-52 * want, (width, x, y)
                checked += 1
    assert checked > 10_000


def test_visibility_edge_cases():
    assert det.visibility(((2.0, 2.0),)) == 0.0
    assert det.visibility(((0.0, 3.0),)) == 1.0
    with pytest.raises(det.AllDark):
        det.visibility(((0.0, 0.0),))
    # A NaN cell first or last, and +inf with -inf (a NaN sum with no NaN cell).
    assert repr(det.visibility(((math.nan, 1.0), (2.0, 3.0)))) == "nan"
    assert repr(det.visibility(((1.0, 2.0), (3.0, math.nan)))) == "nan"
    assert repr(det.visibility(((math.inf, 1.0), (2.0, -math.inf)))) == "nan"
    assert repr(det.visibility(((math.inf, 1.0), (2.0, 3.0)))) == "nan"


@pytest.mark.parametrize("cells", [(1.0, 3.0, 2.0, 0.5, 4.0, 1.5), (0.0,) * 6], ids=["lit", "dark"])
@pytest.mark.parametrize("where", [0, 3, 5], ids=["first", "middle", "last"])
def test_visibility_is_nan_when_any_cell_is_nan(cells, where):
    # max/min alone would skip a NaN that is not the first cell; a dark map
    # with a NaN cell is NaN, not AllDark.
    cells = list(cells)
    cells[where] = math.nan
    assert math.isnan(det.visibility((tuple(cells[:3]), tuple(cells[3:]))))


def test_grid_validation():
    with pytest.raises(ValueError):
        det.ScanGrid(xs=())
