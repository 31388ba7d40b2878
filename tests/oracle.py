"""Naive reference implementation used only by the tests.

States are polynomials in commuting creation symbols: a key is a canonical
occupation tuple and its value is the polynomial coefficient, not the
number-basis amplitude.  All ladder arithmetic is integer combinatorics:

    create      -> multiply by the symbol (coefficient unchanged)
    annihilate  -> formal derivative (coefficient times current power)
    <P|Q>       -> sum over monomials of conj(p) * q * prod(n_i!)

Number-basis amplitudes relate to coefficients by amp = coeff * sqrt(prod n_i!),
which is the only bridge between this module and the engine under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from biphoton.modes import ModeId

State = dict  # occupation tuple -> complex polynomial coefficient
Form = dict   # ModeId -> complex coefficient


def canon(counts) -> tuple:
    items = counts.items() if isinstance(counts, dict) else counts
    return tuple(sorted((m, n) for m, n in items if n))


def o_vacuum() -> State:
    return {(): 1.0 + 0j}


def _power(occ: tuple, mode: ModeId) -> int:
    for m, n in occ:
        if m == mode:
            return n
    return 0


def _with_power(occ: tuple, mode: ModeId, n: int) -> tuple:
    pairs = [(m, c) for m, c in occ if m != mode]
    if n:
        pairs.append((mode, n))
    return canon(pairs)


def o_create(state: State, mode: ModeId) -> State:
    out: State = {}
    for occ, c in state.items():
        key = _with_power(occ, mode, _power(occ, mode) + 1)
        out[key] = out.get(key, 0j) + c
    return out


def o_annihilate(state: State, mode: ModeId) -> State:
    out: State = {}
    for occ, c in state.items():
        n = _power(occ, mode)
        if n:
            key = _with_power(occ, mode, n - 1)
            out[key] = out.get(key, 0j) + c * n
    return out


def o_apply_form(state: State, form: Form) -> State:
    out: State = {}
    for mode, coeff in form.items():
        for occ, c in o_annihilate(state, mode).items():
            out[occ] = out.get(occ, 0j) + coeff * c
    return out


def o_apply_dagger(state: State, form: Form) -> State:
    out: State = {}
    for mode, coeff in form.items():
        for occ, c in o_create(state, mode).items():
            out[occ] = out.get(occ, 0j) + coeff * c
    return out


def _weight(occ: tuple) -> int:
    w = 1
    for _, n in occ:
        w *= math.factorial(n)
    return w


def o_inner(a: State, b: State) -> complex:
    return sum(a[occ].conjugate() * c * _weight(occ) for occ, c in b.items() if occ in a) or 0j


def o_norm2(state: State) -> float:
    return float(sum(abs(c) ** 2 * _weight(occ) for occ, c in state.items()).real)


def o_expectation(state: State, forms) -> float:
    cur = state
    for form in forms:
        cur = o_apply_form(cur, form)
    return o_norm2(cur)


def from_amplitudes(amplitudes: dict) -> State:
    """Build an oracle state from number-basis amplitudes."""
    return {canon(occ): a / math.sqrt(_weight(canon(occ))) for occ, a in amplitudes.items()}


def to_amplitudes(state: State) -> dict:
    """Number-basis amplitudes of an oracle state."""
    return {occ: c * math.sqrt(_weight(occ)) for occ, c in state.items()}


def all_occupations(modes, max_total: int) -> list[tuple]:
    """Every occupation vector over the given modes with total <= max_total."""
    modes = sorted(modes)
    occs = []
    for counts in itertools.product(range(max_total + 1), repeat=len(modes)):
        if sum(counts) <= max_total:
            occs.append(canon(zip(modes, counts)))
    return occs


def dense_vector(amplitudes: dict, modes, max_total: int) -> np.ndarray:
    """Number-basis amplitudes laid out as a dense vector over all occupations."""
    table = {occ: complex(a) for occ, a in amplitudes.items()}
    return np.array([table.get(occ, 0j) for occ in all_occupations(modes, max_total)])


# --- fig3: the envelope closed form, one point at a time -------------------------


def fig3_intensity(kind: str, beams, x: float, y: float) -> float:
    """Screen intensity at (x, y) of the first-order interference of two beam
    envelopes e and phases p: e1^2 + e2^2 + 2 e1 e2 cos(p1 - p2) for psi_u and
    (e1^2 + e2^2) / 2 for psi_e, NaN where p1 - p2 is not finite."""
    e1, e2 = (
        beam.amplitude * math.exp(-(x * x + y * y) / (2.0 * beam.width * beam.width))
        if beam.kind == "gaussian"
        else beam.amplitude
        for beam in beams
    )
    if kind == "psi_e":
        return (e1 * e1 + e2 * e2) / 2.0
    delta = (beams[0].tilt * x + beams[0].phase_offset) - (beams[1].tilt * x + beams[1].phase_offset)
    return e1 * e1 + e2 * e2 + 2.0 * e1 * e2 * (math.cos(delta) if math.isfinite(delta) else math.nan)


def fig3_closed_form(kind: str, beams, xs, ys) -> float:
    """Visibility (max - min) / (max + min) of fig3_intensity over the grid, NaN
    if any point is NaN."""
    cells = [fig3_intensity(kind, beams, x, y) for y in ys for x in xs]
    if any(math.isnan(c) for c in cells):
        return math.nan
    return (max(cells) - min(cells)) / (max(cells) + min(cells))
