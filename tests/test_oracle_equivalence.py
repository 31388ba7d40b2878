"""Sparse engine vs naive polynomial reference on randomized inputs."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

import oracle
from biphoton import fock as fk
from biphoton.detection import singles_rate
from biphoton.modes import H1, H2, V1, V2, ModeId
from support import (
    EIGHT_MODES,
    coincidence_rate,
    form_dict,
    oracle_amplitudes,
    random_form,
    random_ket,
    run_randomized_rate_equivalence,
    to_oracle,
)

SQRT1_2 = math.sqrt(0.5)


# --- oracle self-checks (independent of the engine) -----------------------------


def test_oracle_factorial_norms():
    mode = ModeId(1, "V")
    state = oracle.o_vacuum()
    for n in range(1, 7):
        state = oracle.o_create(state, mode)
        assert oracle.o_norm2(state) == pytest.approx(math.factorial(n))
        # polynomial coefficient stays exactly 1, photons accumulate in the key
        assert state == {((mode, n),): 1.0 + 0j}


def test_oracle_annihilate_is_derivative():
    mode = ModeId(1, "V")
    cubed = {((mode, 3),): 2.0 + 0j}
    assert oracle.o_annihilate(cubed, mode) == {((mode, 2),): 6.0 + 0j}


def test_oracle_inner_uses_factorial_weights():
    mode = ModeId(1, "V")
    two = {((mode, 2),): 1.0 + 0j}
    assert oracle.o_inner(two, two) == pytest.approx(2.0)


def test_oracle_amplitude_bridge_round_trip():
    amplitudes = {oracle.canon({V1: 2}): 0.5 + 0.25j, oracle.canon({V1: 1, H2: 1}): -0.75j}
    state = oracle.from_amplitudes(amplitudes)
    back = oracle.to_amplitudes(state)
    for occ, amp in amplitudes.items():
        assert back[occ] == pytest.approx(amp)


# --- dense-vector equivalence on every operation ----------------------------------


def _dense_from_ket(ket: fk.FockKet, modes, cap: int) -> np.ndarray:
    return oracle.dense_vector(oracle_amplitudes(ket.items()), modes, cap)


def _dense_from_oracle(state: oracle.State, modes, cap: int) -> np.ndarray:
    return oracle.dense_vector(oracle.to_amplitudes(state), modes, cap)


def one_photon_apart(occ: tuple, sources: list[tuple], step: int) -> bool:
    """occ is one photon more (step 1) or fewer (step -1) than one of the source keys."""
    counts = Counter(occ)
    return any(
        len(occ) == len(src) + step and (Counter(src) <= counts if step > 0 else counts <= Counter(src))
        for src in sources
    )


def test_ladder_operations_match_oracle_densely():
    rng = np.random.default_rng(101)
    modes = EIGHT_MODES
    for _ in range(25):
        ket = random_ket(rng, n_terms=int(rng.integers(1, 6)))
        ref = to_oracle(ket)
        mode = modes[int(rng.integers(len(modes)))]
        pairs = [
            (fk.apply_form_dagger(ket, fk.unit_form(mode)), oracle.o_create(ref, mode), 1),
            (fk.apply_form(ket, fk.unit_form(mode)), oracle.o_annihilate(ref, mode), -1),
        ]
        form = random_form(rng)
        pairs.append((fk.apply_form(ket, form), oracle.o_apply_form(ref, form_dict(form)), -1))
        pairs.append((fk.apply_form_dagger(ket, form), oracle.o_apply_dagger(ref, form_dict(form)), 1))
        sources = [occ for occ, _ in ket.items()]
        for engine_ket, oracle_state, step in pairs:
            for occ, _ in engine_ket.items():
                assert occ == tuple(sorted(occ)) and one_photon_apart(occ, sources, step), (occ, sources, step)
            got = _dense_from_ket(engine_ket, modes, 3)
            want = _dense_from_oracle(oracle_state, modes, 3)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_linear_combinations_match_oracle_densely():
    rng = np.random.default_rng(55)
    for _ in range(10):
        a, b = random_ket(rng), random_ket(rng)
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        combo = fk.add(a, b, alpha, beta)
        ref = {
            occ: alpha * c for occ, c in to_oracle(a).items()
        }
        for occ, c in to_oracle(b).items():
            ref[occ] = ref.get(occ, 0j) + beta * c
        np.testing.assert_allclose(
            _dense_from_ket(combo, EIGHT_MODES, 2), _dense_from_oracle(ref, EIGHT_MODES, 2), atol=1e-12
        )


def test_inner_and_norm_match_oracle():
    rng = np.random.default_rng(77)
    for _ in range(25):
        a, b = random_ket(rng), random_ket(rng)
        assert fk.inner(a, b) == pytest.approx(oracle.o_inner(to_oracle(a), to_oracle(b)), abs=1e-12)
        assert fk.norm2(a) == pytest.approx(oracle.o_norm2(to_oracle(a)), abs=1e-12)


def test_inner_of_kets_of_unequal_length():
    rng = np.random.default_rng(78)
    for _ in range(25):
        a, b = random_ket(rng, n_terms=2), random_ket(rng, n_terms=8)
        assert len(a) < len(b)
        want = oracle.o_inner(to_oracle(a), to_oracle(b))
        for value in (fk.inner(a, b), fk.inner(b, a).conjugate()):
            assert value == pytest.approx(want, abs=1e-12)
        assert fk.inner(a, b) == pytest.approx(fk.inner(b, a).conjugate(), abs=1e-14)


def test_randomized_rate_equivalence_small():
    assert run_randomized_rate_equivalence(60, seed=7) <= 1e-12


# --- oracle confirmation of the scenario constants ---------------------------------


def _pdc_forms(kind: str, t1: float, t2: float) -> tuple[dict, dict]:
    if kind == "psi_e":
        first = {V1: math.cos(t1), H1: math.sin(t1)}
        second = {V2: math.cos(t2), H2: math.sin(t2)}
        return first, second
    b1 = {V1: SQRT1_2, H2: SQRT1_2}
    b2 = {V2: SQRT1_2, H1: -SQRT1_2}
    first = {m: SQRT1_2 * (math.cos(t1) * b1.get(m, 0) - math.sin(t1) * b2.get(m, 0)) for m in (V1, H1, V2, H2)}
    second = {m: SQRT1_2 * (math.cos(t2) * b2.get(m, 0) + math.sin(t2) * b1.get(m, 0)) for m in (V1, H1, V2, H2)}
    return first, second


@pytest.mark.parametrize("kind,peak", [("psi_e", 0.5), ("psi_u", 0.25)])
def test_pdc_constants_confirmed_by_oracle(kind, peak):
    ref = to_oracle(fk.named_state(kind))
    for t1, t2 in [(0.0, math.pi / 2), (0.3, 1.0)]:
        first, second = _pdc_forms(kind, t1, t2)
        want = oracle.o_expectation(ref, [first, second])
        assert want == pytest.approx(peak * math.sin(t1 - t2) ** 2, abs=1e-13)
        engine = coincidence_rate(fk.named_state(kind), fk.LinearForm(first), fk.LinearForm(second))
        assert engine == pytest.approx(want, abs=1e-12)


def test_split_channel_double_rate_confirmed_by_oracle():
    b1 = {V1: SQRT1_2, H2: SQRT1_2}
    b2 = {V2: SQRT1_2, H1: -SQRT1_2}
    ref = to_oracle(fk.named_state("psi_u"))
    # channel-1 field components carry weight 1/sqrt2 each
    comp_v = {m: SQRT1_2 * c for m, c in b1.items()}
    comp_h = {m: -SQRT1_2 * c for m, c in b2.items()}
    want = sum(
        oracle.o_expectation(ref, [first, second])
        for first in (comp_v, comp_h)
        for second in (comp_v, comp_h)
    )
    assert want == pytest.approx(0.5, abs=1e-13)
    components = (fk.LinearForm(comp_v), fk.LinearForm(comp_h))
    engine = sum(
        coincidence_rate(fk.named_state("psi_u"), first, second) for first in components for second in components
    )
    assert engine == pytest.approx(want, abs=1e-12)


def test_overlap_intensity_confirmed_by_oracle():
    ref = to_oracle(fk.named_state("psi_e"))
    f1, f2 = 0.8 + 0.1j, -0.3 + 0.6j
    combined = {H1: f1, V2: f2}
    want = oracle.o_expectation(ref, [combined])
    assert want == pytest.approx(0.5 * (abs(f1) ** 2 + abs(f2) ** 2), abs=1e-13)
    engine = singles_rate(fk.named_state("psi_e"), fk.LinearForm(combined))
    assert engine == pytest.approx(want, abs=1e-12)
