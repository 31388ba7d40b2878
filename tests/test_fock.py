"""Fock-space algebra: ladder operators, forms, inner products, named states."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from biphoton import fock as fk
from biphoton.modes import BEAM_H, BEAM_V, H1, H2, V1, V2, W1H, W1V, W2H, W2V, ModeId

SQRT1_2 = math.sqrt(0.5)


def circular_pair_by_ladder() -> fk.FockKet:
    """0.5 * (bv^dag bv^dag + bh^dag bh^dag) |0> built one rung at a time."""
    vac = fk.vacuum()
    double_v = fk.apply_form_dagger(fk.apply_form_dagger(vac, fk.unit_form(BEAM_V)), fk.unit_form(BEAM_V))
    double_h = fk.apply_form_dagger(fk.apply_form_dagger(vac, fk.unit_form(BEAM_H)), fk.unit_form(BEAM_H))
    return fk.add(double_v, double_h, 0.5, 0.5)


def analyzer_form(theta: float, prefactor: float = 1.0) -> fk.LinearForm:
    """Single-beam analyzer cos(t) b_v - sin(t) b_h, optionally field-scaled."""
    return fk.LinearForm({BEAM_V: prefactor * math.cos(theta), BEAM_H: -prefactor * math.sin(theta)})


def swapped_analyzer_form(theta: float, prefactor: float = 1.0) -> fk.LinearForm:
    """Analyzer behind the component-swapping plate: cos(t) b_h + sin(t) b_v."""
    return fk.LinearForm({BEAM_H: prefactor * math.cos(theta), BEAM_V: prefactor * math.sin(theta)})


# --- vacuum / create / annihilate -------------------------------------------


def test_vacuum_is_unit_norm():
    assert fk.norm2(fk.vacuum()) == pytest.approx(1.0, abs=1e-15)


def test_annihilate_vacuum_is_zero_ket():
    assert len(fk.apply_form(fk.vacuum(), fk.unit_form(BEAM_V))) == 0


def test_create_on_vacuum_single_photon():
    ket = fk.apply_form_dagger(fk.vacuum(), fk.unit_form(BEAM_V))
    assert ket.amplitude(fk.occupation({BEAM_V: 1})) == pytest.approx(1.0)
    assert len(ket) == 1


def test_double_create_ladder_factor():
    once = fk.apply_form_dagger(fk.vacuum(), fk.unit_form(BEAM_V))
    ket = fk.apply_form_dagger(once, fk.unit_form(BEAM_V))
    assert ket.amplitude(fk.occupation({BEAM_V: 2})) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_double_create_norm_matches_factorial_oracle():
    once = fk.apply_form_dagger(fk.vacuum(), fk.unit_form(BEAM_V))
    ket = fk.apply_form_dagger(once, fk.unit_form(BEAM_V))
    ref = oracle.o_create(oracle.o_create(oracle.o_vacuum(), BEAM_V), BEAM_V)
    assert fk.norm2(ket) == pytest.approx(2.0, abs=1e-14)
    assert fk.norm2(ket) == pytest.approx(oracle.o_norm2(ref), abs=1e-14)


def test_create_on_zero_ket_stays_zero():
    assert len(fk.apply_form_dagger(fk.FockKet(), fk.unit_form(BEAM_V))) == 0


def test_annihilate_inverts_single_create():
    ket = fk.apply_form(fk.apply_form_dagger(fk.vacuum(), fk.unit_form(BEAM_V)), fk.unit_form(BEAM_V))
    assert fk.max_amplitude_diff(ket, fk.vacuum()) < 1e-15


def test_annihilate_circular_pair_leaves_unit_norm():
    ket = fk.apply_form(circular_pair_by_ladder(), fk.unit_form(BEAM_V))
    assert fk.norm2(ket) == pytest.approx(1.0, abs=1e-14)


def test_factorial_law_up_to_six():
    for n in range(7):
        ket = fk.vacuum()
        for _ in range(n):
            ket = fk.apply_form_dagger(ket, fk.unit_form(BEAM_H))
        assert fk.norm2(ket) == pytest.approx(math.factorial(n), rel=1e-13)


# --- forms -------------------------------------------------------------------


def test_apply_field_scaled_analyzer_to_circular_pair():
    theta = 0.7
    ket = fk.apply_form(fk.named_state("circular_pair"), analyzer_form(theta, SQRT1_2))
    assert ket.amplitude(fk.occupation({BEAM_V: 1})) == pytest.approx(SQRT1_2 * math.cos(theta), abs=1e-14)
    assert ket.amplitude(fk.occupation({BEAM_H: 1})) == pytest.approx(-SQRT1_2 * math.sin(theta), abs=1e-14)
    assert fk.norm2(ket) == pytest.approx(0.5, abs=1e-14)


def test_apply_zero_form_gives_zero_ket():
    assert len(fk.apply_form(fk.named_state("psi_e"), fk.LinearForm())) == 0


def test_apply_bare_analyzer_is_unit_norm():
    ket = fk.apply_form(fk.named_state("circular_pair"), analyzer_form(1.1))
    assert fk.norm2(ket) == pytest.approx(1.0, abs=1e-14)


def test_dagger_chain_builds_circular_pair():
    left = fk.LinearForm({BEAM_V: 1.0, BEAM_H: 1j})
    right = fk.LinearForm({BEAM_V: 1.0, BEAM_H: -1j})
    pair = fk.apply_form_dagger(fk.apply_form_dagger(fk.vacuum(), right), left)
    ket = fk.FockKet({occ: a * 0.5 for occ, a in pair.items()})
    assert fk.norm2(ket) == pytest.approx(1.0, abs=1e-14)
    assert fk.max_amplitude_diff(ket, fk.named_state("circular_pair")) < 1e-14


def test_pair_factor_daggers_reconstruct_unentangled_state():
    factor_a, factor_b = fk.pair_factor_forms()
    ket = fk.apply_form_dagger(fk.apply_form_dagger(fk.vacuum(), factor_b), factor_a)
    assert fk.max_amplitude_diff(ket, fk.named_state("psi_u")) < 1e-14


def test_pair_factor_annihilator_commutes_with_other_creator():
    factor_a, factor_b = fk.pair_factor_forms()
    assert abs(fk.form_commutator(factor_a.conjugated(), factor_b.conjugated())) < 1e-14


def test_form_commutator_unit_and_disjoint():
    f = fk.unit_form(V1)
    assert fk.form_commutator(f, f) == pytest.approx(1.0)
    assert fk.form_commutator(fk.unit_form(V1), fk.unit_form(H1)) == 0


def test_form_commutator_general_value():
    f = fk.LinearForm({V1: 2.0, H1: 1j})
    g = fk.LinearForm({V1: 0.5j, H1: 3.0})
    assert fk.form_commutator(f, g) == pytest.approx(2.0 * (-0.5j) + 1j * 3.0)


# --- inner products / norms ---------------------------------------------------


def test_inner_vacuum():
    assert fk.inner(fk.vacuum(), fk.vacuum()) == pytest.approx(1.0)


def test_inner_orthogonal_basis_kets():
    a = fk.FockKet({fk.occupation({V1: 1}): 1.0})
    b = fk.FockKet({fk.occupation({H1: 1}): 1.0})
    assert fk.inner(a, b) == 0


def test_inner_entangled_with_unentangled():
    value = fk.inner(fk.named_state("psi_e"), fk.named_state("psi_u"))
    assert value == pytest.approx(SQRT1_2, abs=1e-14)


def test_inner_conjugate_linear_first_argument():
    rng = np.random.default_rng(7)
    a = fk.FockKet({fk.occupation({V1: 1}): 0.3 + 0.4j, fk.occupation({H2: 2}): -0.1j})
    b = fk.FockKet({fk.occupation({V1: 1}): 1.0, fk.occupation({H2: 2}): 0.25 + 0.5j})
    c = complex(rng.normal(), rng.normal())
    ca = fk.FockKet({occ: amp * c for occ, amp in a.items()})
    assert fk.inner(ca, b) == pytest.approx(c.conjugate() * fk.inner(a, b), abs=1e-13)
    assert fk.inner(a, a).imag == pytest.approx(0.0, abs=1e-15)
    assert fk.inner(a, a).real >= 0


def test_norm2_of_unentangled_state_is_one():
    assert fk.norm2(fk.named_state("psi_u")) == pytest.approx(1.0, abs=1e-14)


def test_add_cancels_to_zero_ket():
    psi = fk.named_state("psi_e")
    assert len(fk.add(psi, psi, 1.0, -1.0)) == 0


def test_tiny_amplitudes_are_pruned():
    pruned = fk.FockKet({fk.occupation({V1: 1}): 1e-15})
    assert len(pruned) == 0
    # Truthiness follows the support: empty kets and forms are falsy.
    assert not pruned and not fk.FockKet() and not fk.LinearForm()
    assert fk.vacuum() and fk.unit_form(V1)


MODES = (BEAM_V, BEAM_H, V1, H1, V2, H2, W1V, W1H, W2V, W2H)
#: Amplitudes at the edges of the prune: NaN parts, -0.0 parts, and moduli at,
#: just below and just above EPS_PRUNE.
EDGE_AMPLITUDES = (
    complex("nan"), complex(1.0, math.nan), complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0),
    complex(fk.EPS_PRUNE, 0.0), complex(-1e-15, 1e-15), complex(0.0, -1.5e-14), complex(-3.0, 0.5),
)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(
    st.dictionaries(
        st.dictionaries(st.sampled_from(MODES), st.integers(0, 3), max_size=4).map(fk.occupation),
        st.one_of(st.complex_numbers(), st.sampled_from(EDGE_AMPLITUDES)),
        max_size=8,
    )
)
def test_constructor_keeps_input_order_and_prunes_at_EPS_PRUNE(amplitudes):
    ket = fk.FockKet(amplitudes)
    kept = [(occ, 0j + a) for occ, a in amplitudes.items() if math.isnan(abs(a)) or abs(a) > fk.EPS_PRUNE]
    # repr of the items shows a -0.0 part and the item order.
    assert repr(list(ket.items())) == repr(kept)
    assert not any(x == 0.0 and math.copysign(1.0, x) < 0 for _, a in ket.items() for x in (a.real, a.imag))


def test_nan_amplitudes_are_kept():
    ket = fk.FockKet({fk.occupation({V1: 1}): complex("nan")})
    assert len(ket) == 1 and math.isnan(fk.norm2(ket))
    form = fk.LinearForm({V1: float("nan"), H1: 1e-15})
    assert len(form) == 1 and math.isnan(abs(form.coeff(V1)))


# --- normally ordered expectations -------------------------------------------


@pytest.mark.parametrize("t1,t2", [(0.0, 1.0), (0.3, -0.2), (1.2, 0.4), (2.0, 2.0)])
def test_two_analyzer_expectation_field_scaled(t1, t2):
    once = fk.apply_form(fk.named_state("circular_pair"), analyzer_form(t1, SQRT1_2))
    rate = fk.norm2(fk.apply_form(once, swapped_analyzer_form(t2, SQRT1_2)))
    assert rate == pytest.approx(0.25 * math.sin(t1 - t2) ** 2, abs=1e-14)


def test_two_analyzer_expectation_bare():
    t1, t2 = 0.9, 0.1
    once = fk.apply_form(fk.named_state("circular_pair"), analyzer_form(t1))
    rate = fk.norm2(fk.apply_form(once, swapped_analyzer_form(t2)))
    assert rate == pytest.approx(math.sin(t1 - t2) ** 2, abs=1e-14)


def test_expectation_vanishes_at_equal_angles():
    once = fk.apply_form(fk.named_state("circular_pair"), analyzer_form(0.6, SQRT1_2))
    assert fk.norm2(fk.apply_form(once, swapped_analyzer_form(0.6, SQRT1_2))) == pytest.approx(0.0, abs=1e-15)


def test_expectation_invariant_under_form_permutation():
    rng = np.random.default_rng(11)
    from support import random_form, random_ket

    for _ in range(20):
        ket = random_ket(rng)
        f, g = random_form(rng), random_form(rng)
        fwd = fk.norm2(fk.apply_form(fk.apply_form(ket, f), g))
        rev = fk.norm2(fk.apply_form(fk.apply_form(ket, g), f))
        assert fwd == pytest.approx(rev, abs=1e-12)


def test_apply_form_order_commutes_amplitudewise():
    rng = np.random.default_rng(3)
    from support import random_form, random_ket

    for _ in range(20):
        ket = random_ket(rng, total=3, n_terms=5)
        f, g = random_form(rng), random_form(rng)
        ab = fk.apply_form(fk.apply_form(ket, f), g)
        ba = fk.apply_form(fk.apply_form(ket, g), f)
        assert fk.max_amplitude_diff(ab, ba) < 1e-12


def test_ladder_adjoint_consistency():
    rng = np.random.default_rng(5)
    from support import random_ket

    modes = [V1, H1, V2, H2]
    for _ in range(25):
        x = random_ket(rng, modes=modes, total=2)
        y = random_ket(rng, modes=modes, total=3, n_terms=5)
        mode = modes[int(rng.integers(4))]
        lhs = fk.inner(fk.apply_form_dagger(x, fk.unit_form(mode)), y)
        rhs = fk.inner(x, fk.apply_form(y, fk.unit_form(mode)))
        assert lhs == pytest.approx(rhs, abs=1e-12)


# --- named states -------------------------------------------------------------


def test_named_states_are_unit_norm():
    for kind in fk.NAMED_STATE_KINDS:
        assert fk.norm2(fk.named_state(kind)) == pytest.approx(1.0, abs=1e-12)


def test_entangled_state_amplitudes():
    psi = fk.named_state("psi_e")
    assert psi.amplitude(fk.occupation({V1: 1, H2: 1})) == pytest.approx(SQRT1_2)
    assert psi.amplitude(fk.occupation({V2: 1, H1: 1})) == pytest.approx(-SQRT1_2)
    assert len(psi) == 2


def test_circular_pair_amplitudes_match_ladder_construction():
    assert fk.max_amplitude_diff(fk.named_state("circular_pair"), circular_pair_by_ladder()) < 1e-14


def test_unknown_named_state_rejected():
    with pytest.raises(ValueError, match="unknown named state"):
        fk.named_state("bell")


def test_unentangled_state_decomposition():
    """psi_u minus its entangled component leaves only double occupations of
    squared norm one half."""
    psi_u = fk.named_state("psi_u")
    psi_e = fk.named_state("psi_e")
    rest = fk.add(psi_u, psi_e, 1.0, -SQRT1_2)
    for occ, _ in rest.items():
        assert len(occ) == 2 and occ[0] == occ[1], f"mixed occupation {occ} survived"
    assert fk.norm2(rest) == pytest.approx(0.5, abs=1e-14)


def test_composite_representation_is_isomorphic():
    """The two-combination-mode form of psi_u gives the same analyzer algebra
    as its four-mode expansion.  The abstract ket doubly occupies either of
    two spare modes standing for the combination modes."""
    first, second = ModeId(3, "V"), ModeId(4, "V")
    psi_abs = fk.FockKet({fk.occupation({first: 2}): SQRT1_2, fk.occupation({second: 2}): SQRT1_2})
    assert fk.norm2(psi_abs) == pytest.approx(1.0, abs=1e-12)
    psi_phys = fk.named_state("psi_u")
    b1, b2 = fk.combination_forms()
    for t1, t2 in [(0.0, 0.5), (0.9, -0.3)]:
        abstract = [
            fk.LinearForm({first: SQRT1_2 * math.cos(t1), second: -SQRT1_2 * math.sin(t1)}),
            fk.LinearForm({second: SQRT1_2 * math.cos(t2), first: SQRT1_2 * math.sin(t2)}),
        ]
        physical = [
            b1.scale(SQRT1_2 * math.cos(t1)).plus(b2.scale(-SQRT1_2 * math.sin(t1))),
            b2.scale(SQRT1_2 * math.cos(t2)).plus(b1.scale(SQRT1_2 * math.sin(t2))),
        ]
        abstract_rate = fk.norm2(fk.apply_form(fk.apply_form(psi_abs, abstract[0]), abstract[1]))
        physical_rate = fk.norm2(fk.apply_form(fk.apply_form(psi_phys, physical[0]), physical[1]))
        assert abstract_rate == pytest.approx(physical_rate, abs=1e-14)


# --- modes ---------------------------------------------------------------------


def test_mode_equality_and_ordering():
    assert V1 == ModeId(1, "V") != V2
    modes = [V2, H1, V1, H2, ModeId(3, "V")]
    ordered = sorted(modes)
    assert ordered.index(V1) < ordered.index(V2)
    constants = [W2V, H2, BEAM_V, W1H, V1, V2, BEAM_H, W2H, H1, W1V]
    assert [str(m) for m in sorted(constants)] == [
        "ch0:H", "ch0:w1:H", "ch0:w2:H", "ch0:V", "ch0:w1:V", "ch0:w2:V", "ch1:H", "ch1:V", "ch2:H", "ch2:V",
    ]


def test_occupation_rejects_negative_counts():
    with pytest.raises(ValueError):
        fk.occupation({V1: -1})


def test_occupation_canonical_form_is_unique():
    assert fk.occupation({H2: 1, V1: 1, V2: 0}) == fk.occupation({V1: 1, H2: 1}) == (V1, H2)
    assert fk.occupation({H2: 1, V1: 2}) == (V1, V1, H2)
    assert fk.occupation({}) == ()
