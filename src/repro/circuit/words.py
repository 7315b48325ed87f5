"""Word-level metadata attached to circuits.

BLASYS evaluates quality of result on *numbers*, not raw bits (Eq. 1 and 2 of
the paper interpret circuit outputs as integers).  A :class:`WordSpec`
records which primary outputs (or inputs) form one machine word and how to
interpret it; benchmark generators attach these specs to
``circuit.attrs["words"]`` / ``circuit.attrs["input_words"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import SimulationError
from .simulate import MAX_DECODE_BITS


@dataclass(frozen=True)
class WordSpec:
    """A group of port bits interpreted as one integer.

    Attributes:
        name: Word name (e.g. ``"sum"``).
        indices: Port positions forming the word, least-significant first.
            For output words these index ``circuit.outputs``; for input words
            they index ``circuit.inputs``.
        signed: Two's-complement interpretation when True.
    """

    name: str
    indices: Tuple[int, ...]
    signed: bool = False

    @property
    def width(self) -> int:
        return len(self.indices)

    def check_width(self) -> None:
        """Raise unless the word's integers fit int64.

        Raises:
            SimulationError: for a word wider than
                :data:`~repro.circuit.simulate.MAX_DECODE_BITS` bits, whose
                high bits would otherwise shift out silently.
        """
        if self.width > MAX_DECODE_BITS:
            raise SimulationError(
                f"word {self.name!r} is {self.width} bits wide; integer "
                f"interpretation supports at most {MAX_DECODE_BITS} bits"
            )

    def to_ints(self, bit_rows: np.ndarray) -> np.ndarray:
        """Interpret ``bit_rows[:, self.indices]`` as integers.

        Args:
            bit_rows: 0/1 matrix of shape ``(n, n_ports)``.

        Returns:
            int64 vector of length ``n``.

        Raises:
            SimulationError: for a word wider than 63 bits.
        """
        self.check_width()
        bits = np.asarray(bit_rows, dtype=np.int64)[:, list(self.indices)]
        weights = np.int64(1) << np.arange(self.width, dtype=np.int64)
        vals = bits @ weights
        if self.signed and self.width:
            sign = np.int64(1) << np.int64(self.width - 1)
            vals = np.where(bits[:, -1] > 0, vals - (sign << 1), vals)
        return vals

    @property
    def max_abs(self) -> int:
        """Largest representable magnitude (used to normalize errors)."""
        if self.signed:
            return 1 << (self.width - 1) if self.width else 0
        return (1 << self.width) - 1


def words_from_attrs(attrs: dict, key: str = "words") -> List[WordSpec]:
    """Fetch word specs from a circuit attribute dict (empty if absent)."""
    specs = attrs.get(key, [])
    return list(specs)


def default_output_word(n_outputs: int, signed: bool = False) -> List[WordSpec]:
    """Fallback interpretation: all outputs form one unsigned word."""
    return [WordSpec("out", tuple(range(n_outputs)), signed)]
