"""Built-in verification table.

Recomputes every analytic guarantee the package makes (coincidence laws,
discriminators, visibility dichotomy, state decomposition, correlation
sums, channel statistics) and reports each as one row with its expected
value and tolerance.  The CLI renders these rows and turns any violation
into a nonzero exit code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import experiments as ex
from .fock import (
    _SQRT1_2,
    add,
    apply_form_dagger,
    form_commutator,
    inner,
    max_amplitude_diff,
    named_state,
    norm2,
    pair_factor_forms,
    vacuum,
)

_GRID_73 = [k * (math.pi / 72) for k in range(72)] + [math.pi]  # bit for bit linspace(0, pi, 73); k * pi / 72 is not
#: The 16 draws of default_rng(16).uniform(-pi, pi, 16), pinned.
_UNIFORM_16 = (
    0.4204508988497304, -0.43514736749223326, -2.5505093756597654, -0.9545443365606707, 0.7634638046430053,
    -3.005530255765259, 2.3538846527011525, 2.224558814503899, -2.863221055902728, 1.9001669504621521,
    -1.980490410097747, 1.229141307823796, -2.1676973296087447, 1.2039824353593982, 2.88168134871945, 3.0472505492331425,
)


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float
    expected: float
    tolerance: float


def _sine_law_rows() -> list[CheckRow]:
    src = ex.source("circular_pair")
    worst = max(ex.coincidence(src, 0.0, d).abs_error() for d in _GRID_73)
    conditional = max(abs(ex.fig1_conditional_check(src, t) - 0.5) for t in _UNIFORM_16)
    return [
        CheckRow("fig1_sin2_max_abs_err", worst, 0.0, 1e-12),
        CheckRow("fig1_conditional_max_dev", conditional, 0.0, 1e-12),
    ]


def _pdc_rows() -> list[CheckRow]:
    src_e, src_u = ex.source("psi_e"), ex.source("psi_u")
    curve_e = [ex.coincidence(src_e, 0.0, d).value for d in _GRID_73]
    curve_u = [ex.coincidence(src_u, 0.0, d).value for d in _GRID_73]
    top_e, top_u = max(curve_e), max(curve_u)
    shape_dev = max(abs(e / top_e - u / top_u) for e, u in zip(curve_e, curve_u))
    return [
        CheckRow("pdc_shape_max_dev", shape_dev, 0.0, 1e-9),
        CheckRow("pdc_peak_psi_e", ex.coincidence(src_e, 0.0, math.pi / 2).value, 0.5, 1e-12),
        CheckRow("pdc_peak_psi_u", ex.coincidence(src_u, 0.0, math.pi / 2).value, 0.25, 1e-12),
    ]


def _cascade_row() -> CheckRow:
    src = ex.source("psi_u_prime")
    worst = max(ex.coincidence(src, 0.0, d).abs_error() for d in _GRID_73)
    return CheckRow("cascade_cos2_max_abs_err", worst, 0.0, 1e-12)


def _fig2_rows() -> list[CheckRow]:
    src_u, src_e = ex.source("psi_u", split=True), ex.source("psi_e", split=True)
    worst_u = max(ex.coincidence(src_u, d, 0.0).abs_error() for d in _GRID_73)
    worst_e = max(ex.coincidence(src_e, d, 0.0).value for d in _GRID_73)
    return [
        CheckRow("fig2_psi_u_max_abs_err", worst_u, 0.0, 1e-12),
        CheckRow("fig2_psi_e_max_rate", worst_e, 0.0, 1e-12),
    ]


def _fig3_rows() -> list[CheckRow]:
    return [
        CheckRow("fig3_visibility_psi_u", ex.fig3_visibility("psi_u").value, 1.0, 1e-12),
        CheckRow("fig3_visibility_psi_e", ex.fig3_visibility("psi_e").value, 0.0, 1e-12),
    ]


def _decomposition_rows() -> list[CheckRow]:
    psi_e = named_state("psi_e")
    psi_u = named_state("psi_u")
    overlap = inner(psi_e, psi_u)
    remainder = add(psi_u, psi_e, 1.0, -_SQRT1_2)
    return [
        CheckRow("overlap_entangled_component", overlap.real, _SQRT1_2, 1e-12),
        CheckRow("overlap_imaginary_part", overlap.imag, 0.0, 1e-12),
        CheckRow("remainder_norm2", norm2(remainder), 0.5, 1e-12),
    ]


def _factorization_rows() -> list[CheckRow]:
    factor_a, factor_b = pair_factor_forms()
    rebuilt = apply_form_dagger(apply_form_dagger(vacuum(), factor_b), factor_a)
    amp_diff = max_amplitude_diff(rebuilt, named_state("psi_u"))
    commutator = abs(form_commutator(factor_a.conjugated(), factor_b.conjugated()))
    return [
        CheckRow("factorization_max_amp_diff", amp_diff, 0.0, 1e-12),
        CheckRow("factor_commutator_abs", commutator, 0.0, 1e-14),
    ]


def _chsh_rows() -> list[CheckRow]:
    angles = ex.CANONICAL_CHSH_ANGLES
    values = {kind: abs(ex.chsh_S(ex.source(kind), **angles)) for kind in ("circular_pair", "psi_e", "psi_u")}
    bound = 2.0 * math.sqrt(2.0)
    rows = [CheckRow(f"chsh_abs_{kind}", value, bound, 1e-9) for kind, value in values.items()]
    rows.append(CheckRow("chsh_psi_e_minus_psi_u", values["psi_e"] - values["psi_u"], 0.0, 1e-9))
    return rows


def _channel_rows() -> list[CheckRow]:
    both1_u, both2_u, _ = (r.value for r in ex.same_channel_table("psi_u"))
    both1_e, both2_e, _ = (r.value for r in ex.same_channel_table("psi_e"))
    both1_c, both2_c, split_c = (r.value for r in ex.same_channel_table("circular_pair"))
    return [
        CheckRow("same_channel_psi_u_ch1", both1_u, 0.25, 1e-12),
        CheckRow("same_channel_psi_u_ch2", both2_u, 0.25, 1e-12),
        CheckRow("same_channel_psi_e_ch1", both1_e, 0.0, 1e-12),
        CheckRow("same_channel_psi_e_ch2", both2_e, 0.0, 1e-12),
        CheckRow("circular_outcome_total", both1_c + both2_c + split_c, 1.0, 1e-12),
    ]


def selfcheck_rows() -> list[CheckRow]:
    """All verification rows, in a fixed order."""
    rows: list[CheckRow] = []
    rows.extend(_sine_law_rows())
    rows.extend(_pdc_rows())
    rows.append(_cascade_row())
    rows.extend(_fig2_rows())
    rows.extend(_fig3_rows())
    rows.extend(_decomposition_rows())
    rows.extend(_factorization_rows())
    rows.extend(_chsh_rows())
    rows.extend(_channel_rows())
    return rows
