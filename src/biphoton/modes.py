"""Bosonic mode labels.

A mode is identified by a small tuple of tags: the channel (beam line) it
belongs to, a polarization letter, an optional frequency tag for two-color
sources, and an optional index for synthetic combination modes.  Equality of
all tags is the only identity criterion, and a canonical total order over
modes keeps occupation-vector keys deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

POLARIZATIONS = ("V", "H")
FREQUENCIES = ("w1", "w2")


@dataclass(frozen=True)
class ModeId:
    """Opaque label for one bosonic mode.

    channel:   small integer beam tag (0 marks a source mode that is not
               assigned to a particular output beam).
    pol:       "V" or "H", or None for modes without a polarization meaning.
    freq:      "w1" or "w2" for two-color sources, else None.
    composite: index of a synthetic combination mode, else None.
    """

    channel: int = 0
    pol: str | None = None
    freq: str | None = None
    composite: int | None = None

    def __post_init__(self) -> None:
        if self.pol is not None and self.pol not in POLARIZATIONS:
            raise ValueError(f"unknown polarization tag {self.pol!r}")
        if self.freq is not None and self.freq not in FREQUENCIES:
            raise ValueError(f"unknown frequency tag {self.freq!r}")

    def sort_key(self) -> tuple:
        return (
            self.channel,
            self.pol or "",
            self.freq or "",
            -1 if self.composite is None else self.composite,
        )

    def __str__(self) -> str:
        parts = [f"ch{self.channel}"]
        if self.freq is not None:
            parts.append(self.freq)
        if self.pol is not None:
            parts.append(self.pol)
        if self.composite is not None:
            parts.append(f"c{self.composite}")
        return ":".join(parts)


def pol_mode(channel: int, pol: str) -> ModeId:
    """Polarized mode in a numbered beam channel."""
    return ModeId(channel=channel, pol=pol)


def freq_mode(freq: str, pol: str) -> ModeId:
    """Polarized source mode carrying a frequency tag (two-color emission)."""
    return ModeId(channel=0, pol=pol, freq=freq)


def composite_mode(index: int) -> ModeId:
    """Synthetic combination mode (an orthonormal mixture of source modes)."""
    return ModeId(channel=0, composite=index)


# Single-beam source modes (circularly polarized pair source).
BEAM_V = pol_mode(0, "V")
BEAM_H = pol_mode(0, "H")

# Two-channel down-conversion modes.
V1 = pol_mode(1, "V")
H1 = pol_mode(1, "H")
V2 = pol_mode(2, "V")
H2 = pol_mode(2, "H")

# Two-color cascade source modes.
W1V = freq_mode("w1", "V")
W1H = freq_mode("w1", "H")
W2V = freq_mode("w2", "V")
W2H = freq_mode("w2", "H")
