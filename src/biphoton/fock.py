"""Sparse Fock-space algebra for few-photon states.

States are finite complex combinations of occupation-number basis kets,
stored as a mapping from occupation vectors to amplitudes.  An occupation
vector is the sorted tuple of its photons' modes, a mode holding n photons
appearing n times, and () is the vacuum.  The amplitudes are number-basis
amplitudes, i.e. ladder factors are already included: applying a creation
operator multiplies by sqrt(n+1), an annihilation operator by sqrt(n).

Detector and field operators are linear forms sum_m c_m b_m over mode
annihilators.  By convention the coefficients carry the full field
amplitude, including any 1/sqrt(2) splitter factors, so that every
counting rate comes out in the same dimensionless units (overall field
constant fixed to 1).

Amplitudes with magnitude <= EPS_PRUNE are dropped after each operation (a
NaN is kept); a total rate <= EPS_ZERO counts as dark.

apply_form, norm2 and inner are the reference engine.  A two-photon ket
turns two detector forms into one complex number, so each two-photon count
is read off a 2x2 pair matrix <0| b[j] a[i] |psi> of two arms: a
coincidence off K (experiments.Source.K), a same-channel count off one
arm's with itself.  A screen cell, the singles rate of a f + b g, is the
Gram form of u = f|psi> and w = g|psi> (detection.intensity_map).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Mapping

from .modes import BEAM_H, BEAM_V, H1, H2, V1, V2, W1H, W1V, W2H, W2V, ModeId

EPS_PRUNE = 1e-14
EPS_ZERO = 1e-12

_SQRT1_2 = math.sqrt(0.5)

#: Occupation vector: the modes of its photons, sorted, one entry per photon.
Occupation = tuple[ModeId, ...]

NAMED_STATE_KINDS = ("circular_pair", "psi_e", "psi_u", "psi_u_prime")


def occupation(counts: Mapping[ModeId, int]) -> Occupation:
    """The occupation vector of a mode -> photon count mapping; rejects negatives."""
    for mode, n in counts.items():
        if n < 0:
            raise ValueError(f"negative occupation {n} for mode {mode}")
    return tuple(sorted(Counter(counts).elements()))


class FockKet:
    """Finite sparse mapping occupation vector -> complex amplitude."""

    __slots__ = ("_amp",)

    def __init__(self, amplitudes: Mapping[Occupation, complex] | None = None):
        """amplitudes is keyed by occupation vectors, as occupation() and the
        items of a ket give them; no key is re-sorted."""
        # 0j + a turns a -0.0 part into 0.0; "not <=" keeps a NaN amplitude,
        # so it shows in every rate instead of reading as 0.
        self._amp = {occ: 0j + a for occ, a in (amplitudes or {}).items() if not abs(a) <= EPS_PRUNE}

    def items(self):
        return self._amp.items()

    def amplitude(self, occ: Occupation) -> complex:
        return self._amp.get(occ, 0j)

    def __len__(self) -> int:
        return len(self._amp)

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{a:.4g} * |{' '.join(f'{m}:{n}' for m, n in Counter(occ).items()) or 'vac'}>"
            for occ, a in sorted(self._amp.items(), key=lambda kv: tuple(Counter(kv[0])))
        )
        return f"FockKet({terms or '0'})"


class LinearForm:
    """Complex combination sum_m c_m b_m of mode annihilators."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[ModeId, complex] | None = None):
        self._coeffs = {m: complex(c) for m, c in (coeffs or {}).items() if not abs(c) <= EPS_PRUNE}

    def items(self):
        return self._coeffs.items()

    def coeff(self, mode: ModeId) -> complex:
        return self._coeffs.get(mode, 0j)

    def scale(self, factor: complex) -> "LinearForm":
        return LinearForm({m: c * factor for m, c in self._coeffs.items()})

    def plus(self, other: "LinearForm") -> "LinearForm":
        coeffs = dict(self._coeffs)
        for m, c in other.items():
            coeffs[m] = coeffs.get(m, 0j) + c
        return LinearForm(coeffs)

    def conjugated(self) -> "LinearForm":
        return LinearForm({m: c.conjugate() for m, c in self._coeffs.items()})

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self) -> str:
        terms = " + ".join(f"({c:.4g})*b[{m}]" for m, c in sorted(self._coeffs.items(), key=lambda kv: kv[0]))
        return f"LinearForm({terms or '0'})"


def unit_form(mode: ModeId) -> LinearForm:
    return LinearForm({mode: 1.0})


def vacuum() -> FockKet:
    return FockKet({(): 1.0})


def apply_form(ket: FockKet, form: LinearForm) -> FockKet:
    """Apply sum_m c_m b_m; linear in both the ket and the form."""
    out: dict[Occupation, complex] = {}
    for occ, a in ket.items():
        for mode, c in form.items():
            n = occ.count(mode)
            if n:
                i = occ.index(mode)
                key = occ[:i] + occ[i + 1 :]
                out[key] = out.get(key, 0j) + a * c * math.sqrt(n)
    return FockKet(out)


def apply_form_dagger(ket: FockKet, form: LinearForm) -> FockKet:
    """Apply sum_m c_m b_m^dag, with the coefficients used as given.

    Callers that need the adjoint of an annihilator form must pass the
    conjugated coefficients themselves.
    """
    out: dict[Occupation, complex] = {}
    for occ, a in ket.items():
        for mode, c in form.items():
            n = occ.count(mode)
            key = tuple(sorted((*occ, mode)))
            out[key] = out.get(key, 0j) + a * c * math.sqrt(n + 1)
    return FockKet(out)


def inner(a: FockKet, b: FockKet) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    if len(b) < len(a):
        return inner(b, a).conjugate()
    return sum((a.amplitude(occ).conjugate() * amp for occ, amp in b.items()), 0j)


def norm2(ket: FockKet) -> float:
    return sum(abs(a) ** 2 for _, a in ket.items())


def add(a: FockKet, b: FockKet, alpha: complex = 1.0, beta: complex = 1.0) -> FockKet:
    """Linear combination alpha*a + beta*b."""
    out: dict[Occupation, complex] = {occ: alpha * amp for occ, amp in a.items()}
    for occ, amp in b.items():
        out[occ] = out.get(occ, 0j) + beta * amp
    return FockKet(out)


def form_commutator(f: LinearForm, g: LinearForm) -> complex:
    """Commutator [sum f_m b_m, sum conj(g_m) b_m^dag] = sum_m f_m conj(g_m)."""
    return sum((c * g.coeff(m).conjugate() for m, c in f.items()), 0j)


def max_amplitude_diff(a: FockKet, b: FockKet) -> float:
    """Largest amplitude difference between two kets over their joint support."""
    occs = set(dict(a.items())) | set(dict(b.items()))
    return max((abs(a.amplitude(occ) - b.amplitude(occ)) for occ in occs), default=0.0)


def combination_forms() -> tuple[LinearForm, LinearForm]:
    """Annihilators of the two orthonormal combination modes underlying the
    un-entangled pair state, written over the four channel/polarization modes."""
    first = LinearForm({V1: _SQRT1_2, H2: _SQRT1_2})
    second = LinearForm({V2: _SQRT1_2, H1: -_SQRT1_2})
    return first, second


def pair_factor_forms() -> tuple[LinearForm, LinearForm]:
    """Creation coefficients of the two commuting single-photon factors whose
    product over vacuum reconstructs the un-entangled pair state.

    Intended for apply_form_dagger; the matching annihilator forms are the
    conjugates.
    """
    first, second = combination_forms()
    factor_a = first.scale(_SQRT1_2).plus(second.scale(1j * _SQRT1_2))
    factor_b = first.scale(_SQRT1_2).plus(second.scale(-1j * _SQRT1_2))
    return factor_a, factor_b


@functools.cache
def named_state(kind: str) -> FockKet:
    """Unit-norm two-photon source states, each built once per process and
    shared (FockKet has no mutator).

    circular_pair: one left- and one right-circular photon in a single beam,
        equal superposition of double-V and double-H occupation.
    psi_e: polarization-entangled pair across channels 1 and 2 (singlet-like).
    psi_u: un-entangled pair of the two combination modes, expanded over the
        four channel/polarization modes.
    psi_u_prime: two-color cascade pair with matched polarizations.
    """
    if kind == "circular_pair":
        return FockKet({
            occupation({BEAM_V: 2}): _SQRT1_2,
            occupation({BEAM_H: 2}): _SQRT1_2,
        })
    if kind == "psi_e":
        return FockKet({
            occupation({V1: 1, H2: 1}): _SQRT1_2,
            occupation({V2: 1, H1: 1}): -_SQRT1_2,
        })
    if kind == "psi_u":
        quarter = 0.25 * math.sqrt(2.0)
        return FockKet({
            occupation({V1: 1, H2: 1}): 0.5,
            occupation({V2: 1, H1: 1}): -0.5,
            occupation({V1: 2}): quarter,
            occupation({H2: 2}): quarter,
            occupation({V2: 2}): quarter,
            occupation({H1: 2}): quarter,
        })
    if kind == "psi_u_prime":
        return FockKet({
            occupation({W1H: 1, W2H: 1}): _SQRT1_2,
            occupation({W1V: 1, W2V: 1}): _SQRT1_2,
        })
    raise ValueError(f"unknown named state {kind!r}; expected one of {NAMED_STATE_KINDS}")

