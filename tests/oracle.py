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
