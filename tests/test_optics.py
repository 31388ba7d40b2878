"""Wave plates, beam splitter, analyzers: field-level checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from biphoton import fock as fk
from biphoton import optics as op
from biphoton.modes import BEAM_H, BEAM_V

SQRT1_2 = math.sqrt(0.5)


def source_field() -> op.ChannelField:
    return op.ChannelField(fk.unit_form(BEAM_V), fk.unit_form(BEAM_H))


def total_coeff_energy(*fields: op.ChannelField) -> float:
    return sum(abs(c) ** 2 for f in fields for form in (f.v, f.h) for _, c in form.items())


def form_coeffs(form: fk.LinearForm) -> dict:
    return dict(form.items())


# --- wave plates ---------------------------------------------------------------


def test_hwp_at_zero_is_component_phase_flip():
    np.testing.assert_allclose(op.hwp(0.0), np.diag([1.0, -1.0]), atol=1e-15)


def test_hwp_at_quarter_turn_swaps_components():
    np.testing.assert_allclose(op.hwp(math.pi / 4), np.array([[0, 1], [1, 0]]), atol=1e-15)


def matmul2(a, b) -> list[list[complex]]:
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]


@pytest.mark.parametrize("theta", np.linspace(0.0, math.pi, 32))
def test_hwp_unitary_and_involutive(theta):
    j = op.hwp(theta)
    dagger = [[j[c][r].conjugate() for c in range(2)] for r in range(2)]
    np.testing.assert_allclose(matmul2(j, dagger), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(matmul2(j, j), np.eye(2), atol=1e-12)


def test_apply_identity_jones_is_noop():
    f = source_field()
    out = op.apply_jones(f, np.eye(2, dtype=complex))
    assert fk.form_commutator(out.v, f.v) == pytest.approx(1.0)
    assert fk.form_commutator(out.h, f.h) == pytest.approx(1.0)


def test_hwp_zero_flips_h_component_sign():
    f = op.ChannelField(fk.unit_form(BEAM_V).scale(SQRT1_2), fk.unit_form(BEAM_H).scale(SQRT1_2))
    out = op.apply_jones(f, op.hwp(0.0))
    assert out.v.coeff(BEAM_V) == pytest.approx(SQRT1_2)
    assert out.h.coeff(BEAM_H) == pytest.approx(-SQRT1_2)


def test_hwp_quarter_swaps_v_and_h():
    f = op.ChannelField(fk.unit_form(BEAM_V).scale(SQRT1_2), fk.unit_form(BEAM_H).scale(SQRT1_2))
    out = op.apply_jones(f, op.hwp(math.pi / 4))
    assert out.v.coeff(BEAM_H) == pytest.approx(SQRT1_2)
    assert out.h.coeff(BEAM_V) == pytest.approx(SQRT1_2)
    assert not out.v.coeff(BEAM_V) and not out.h.coeff(BEAM_H)


# --- beam splitter --------------------------------------------------------------


def test_splitter_with_vacuum_port_halves_both_outputs():
    out1, out2 = op.beamsplitter_5050(source_field(), op.empty_field())
    for out in (out1, out2):
        assert out.v.coeff(BEAM_V) == pytest.approx(SQRT1_2)
        assert out.h.coeff(BEAM_H) == pytest.approx(SQRT1_2)


def test_splitter_reconstructs_two_channel_field_with_plates():
    """Splitting the single-beam source then applying the two plates yields
    the expected pair of channel fields: (bv, -bh)/sqrt2 and (bh, bv)/sqrt2."""
    ch1, ch2 = op.beamsplitter_5050(source_field(), op.empty_field())
    ch1 = op.apply_jones(ch1, op.hwp(0.0))
    ch2 = op.apply_jones(ch2, op.hwp(math.pi / 4))
    assert form_coeffs(ch1.v) == pytest.approx({BEAM_V: SQRT1_2})
    assert form_coeffs(ch1.h) == pytest.approx({BEAM_H: -SQRT1_2})
    assert form_coeffs(ch2.v) == pytest.approx({BEAM_H: SQRT1_2})
    assert form_coeffs(ch2.h) == pytest.approx({BEAM_V: SQRT1_2})


def test_splitter_destructive_arm():
    out1, out2 = op.beamsplitter_5050(source_field(), source_field())
    assert len(out2.v) == 0 and len(out2.h) == 0
    assert out1.v.coeff(BEAM_V) == pytest.approx(math.sqrt(2.0))


def test_splitter_preserves_coefficient_energy():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = op.ChannelField(
            fk.LinearForm({BEAM_V: complex(rng.normal(), rng.normal())}),
            fk.LinearForm({BEAM_H: complex(rng.normal(), rng.normal())}),
        )
        b = op.ChannelField(
            fk.LinearForm({BEAM_V: complex(rng.normal(), rng.normal())}),
            fk.LinearForm({BEAM_H: complex(rng.normal(), rng.normal())}),
        )
        outs = op.beamsplitter_5050(a, b)
        assert total_coeff_energy(*outs) == pytest.approx(total_coeff_energy(a, b), rel=1e-12)


# --- analyzers ------------------------------------------------------------------


def test_polarizer_on_first_channel_field():
    ch1, _ = op.beamsplitter_5050(source_field(), op.empty_field())
    ch1 = op.apply_jones(ch1, op.hwp(0.0))
    theta = 0.8
    form = op.polarizer(ch1, theta)
    assert form.coeff(BEAM_V) == pytest.approx(SQRT1_2 * math.cos(theta))
    assert form.coeff(BEAM_H) == pytest.approx(-SQRT1_2 * math.sin(theta))


def test_polarizer_on_swapped_channel_field():
    _, ch2 = op.beamsplitter_5050(source_field(), op.empty_field())
    ch2 = op.apply_jones(ch2, op.hwp(math.pi / 4))
    theta = -0.4
    form = op.polarizer(ch2, theta)
    assert form.coeff(BEAM_H) == pytest.approx(SQRT1_2 * math.cos(theta))
    assert form.coeff(BEAM_V) == pytest.approx(SQRT1_2 * math.sin(theta))


def test_polarizer_blocks_orthogonal_component():
    f = op.ChannelField(fk.LinearForm(), fk.unit_form(BEAM_H))
    assert len(op.polarizer(f, 0.0)) == 0


def test_polarizer_idempotent_on_already_polarized_field():
    base = fk.LinearForm({BEAM_V: 0.3 + 0.1j, BEAM_H: -0.2j})
    theta = 0.6
    f = op.ChannelField(base.scale(math.cos(theta)), base.scale(math.sin(theta)))
    again = op.polarizer(f, theta)
    diff = max(abs(again.coeff(m) - base.coeff(m)) for m, _ in base.items())
    assert diff < 1e-14
