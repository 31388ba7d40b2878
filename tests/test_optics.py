"""Channel fields, the vacuum-port splitter (experiments) and the tests' analyzer
(support.polarizer): field-level checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from biphoton import experiments as ex
from biphoton import fock as fk
from biphoton.fock import _SQRT1_2 as S
from biphoton.modes import BEAM_H, BEAM_V
from support import polarizer


def forms_repr(*fields: ex.ChannelField) -> list[str]:
    """Each component form of the fields, by the repr of its items in order."""
    return [repr(list(form.items())) for field in fields for form in field]


def coeff_energy(field: ex.ChannelField) -> float:
    return sum(abs(c) ** 2 for form in field for _, c in form.items())


CHANNELS = {
    f"{name}-ch{i}": field
    for name, fields in (
        ("fig1", ex.fig1_channel_fields()),
        ("psi_e", ex.pdc_channel_fields("psi_e")),
        ("psi_u", ex.pdc_channel_fields("psi_u")),
        ("cascade", ex.cascade_channel_fields(ex.CascadeGeometry())),
    )
    for i, field in enumerate(fields, 1)
}


# --- beam splitter --------------------------------------------------------------


def test_splitter_with_vacuum_port_halves_both_outputs():
    beam = ex.ChannelField(fk.unit_form(BEAM_V), fk.unit_form(BEAM_H))
    assert forms_repr(ex.vacuum_split(beam)) == [repr([(BEAM_V, S + 0j)]), repr([(BEAM_H, S + 0j)])]


@pytest.mark.parametrize("name", CHANNELS)
def test_vacuum_split_scales_each_coefficient_and_keeps_the_energy(name):
    """Each mode keeps its place with its coefficient times 1/sqrt2, and the
    two outputs together carry the input's coefficient energy."""
    field = CHANNELS[name]
    half = ex.vacuum_split(field)
    want = [[(mode, c * S) for mode, c in form.items()] for form in field]
    assert forms_repr(half) == list(map(repr, want))
    assert 2.0 * coeff_energy(half) == pytest.approx(coeff_energy(field), rel=1e-15)


def test_vacuum_split_of_a_dark_channel_is_dark():
    half = ex.vacuum_split(ex.ChannelField(fk.LinearForm(), fk.LinearForm()))
    assert (len(half.v), len(half.h)) == (0, 0)


def test_splitter_reconstructs_two_channel_field_with_plates():
    """The single beam split on the balanced mirror, then the two plates:
    (bv, -bh)/sqrt2 in channel 1 and (bh, bv)/sqrt2 in channel 2, exactly."""
    want = [[(BEAM_V, S + 0j)], [(BEAM_H, -S + 0j)], [(BEAM_H, S + 0j)], [(BEAM_V, S + 0j)]]
    assert forms_repr(*ex.fig1_channel_fields()) == list(map(repr, want))


@pytest.mark.parametrize("kind", ["circular_pair", "psi_e", "psi_u"])
def test_both_fig2_arms_are_channel_2_over_sqrt2(kind):
    channel2 = ex.source(kind).arm2
    src = ex.source(kind, split=True)
    want = [[(mode, c * S) for mode, c in form.items()] for form in channel2]
    assert forms_repr(src.arm1, src.arm2) == list(map(repr, want + want))


# --- analyzers ------------------------------------------------------------------


def test_polarizer_on_first_channel_field():
    ch1, _ = ex.fig1_channel_fields()
    theta = 0.8
    form = polarizer(ch1, theta)
    assert form.coeff(BEAM_V) == pytest.approx(S * math.cos(theta))
    assert form.coeff(BEAM_H) == pytest.approx(-S * math.sin(theta))


def test_polarizer_on_swapped_channel_field():
    _, ch2 = ex.fig1_channel_fields()
    theta = -0.4
    form = polarizer(ch2, theta)
    assert form.coeff(BEAM_H) == pytest.approx(S * math.cos(theta))
    assert form.coeff(BEAM_V) == pytest.approx(S * math.sin(theta))


@pytest.mark.parametrize("theta", np.linspace(0.0, math.pi, 32))
def test_fig1_analyzers_see_unitary_plates_at_every_angle(theta):
    """Behind either plate the analyzer at theta passes half the beam
    ([L, L^dag] = 1/2), the one at theta + pi/2 is orthogonal to it, and the
    analyzers of the two channels overlap by sin(t2 - t1)/2."""
    ch1, ch2 = ex.fig1_channel_fields()
    for ch in (ch1, ch2):
        here, across = polarizer(ch, theta), polarizer(ch, theta + math.pi / 2)
        assert fk.form_commutator(here, here) == pytest.approx(0.5, abs=1e-15)
        assert fk.form_commutator(here, across) == pytest.approx(0.0, abs=1e-15)
    t2 = 0.5
    overlap = fk.form_commutator(polarizer(ch1, theta), polarizer(ch2, t2))
    assert overlap == pytest.approx(0.5 * math.sin(t2 - theta), abs=1e-15)


def test_polarizer_blocks_orthogonal_component():
    f = ex.ChannelField(fk.LinearForm(), fk.unit_form(BEAM_H))
    assert len(polarizer(f, 0.0)) == 0


def test_polarizer_idempotent_on_already_polarized_field():
    base = fk.LinearForm({BEAM_V: 0.3 + 0.1j, BEAM_H: -0.2j})
    theta = 0.6
    f = ex.ChannelField(base.scale(math.cos(theta)), base.scale(math.sin(theta)))
    again = polarizer(f, theta)
    diff = max(abs(again.coeff(m) - base.coeff(m)) for m, _ in base.items())
    assert diff < 1e-14
