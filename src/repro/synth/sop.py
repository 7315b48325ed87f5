"""Sum-of-products covers in positional-cube notation.

A :class:`Cube` over ``k`` inputs is a pair of integer bitmasks:

* ``mask`` — bit ``i`` set means input ``i`` appears as a literal;
* ``value`` — for masked positions, the required input polarity.

A cube covers minterm ``r`` iff ``(r & mask) == value``.  A :class:`Cover`
is a list of cubes implementing the union of their minterm sets; it is the
exchange format between the two-level minimizers (:mod:`repro.synth.quine`,
:mod:`repro.synth.espresso`) and gate-level construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import SynthesisError


@dataclass(frozen=True)
class Cube:
    """One product term; see module docstring for encoding."""

    mask: int
    value: int

    def __post_init__(self) -> None:
        if self.value & ~self.mask:
            raise SynthesisError(
                f"cube value {self.value:#x} sets bits outside mask {self.mask:#x}"
            )

    @property
    def n_literals(self) -> int:
        return bin(self.mask).count("1")

    def covers(self, minterms: np.ndarray) -> np.ndarray:
        """Boolean mask over a minterm index array."""
        m = np.asarray(minterms)
        return (m & self.mask) == self.value

    def covers_one(self, minterm: int) -> bool:
        return (minterm & self.mask) == self.value

    def contains_cube(self, other: "Cube") -> bool:
        """True if every minterm of ``other`` is covered by ``self``."""
        if self.mask & ~other.mask:
            return False  # self constrains an input other leaves free
        return (other.value & self.mask) == self.value

    def without_literal(self, i: int) -> "Cube":
        """Copy of the cube with input ``i``'s literal raised (removed)."""
        bit = 1 << i
        return Cube(self.mask & ~bit, self.value & ~bit)

    def literals(self) -> List[Tuple[int, bool]]:
        """(input index, polarity) pairs; polarity True = positive literal."""
        out = []
        m = self.mask
        i = 0
        while m:
            if m & 1:
                out.append((i, bool((self.value >> i) & 1)))
            m >>= 1
            i += 1
        return out

    def to_string(self, k: int) -> str:
        """Espresso-style text (input 0 leftmost): '1', '0' or '-' per input."""
        chars = []
        for i in range(k):
            if not (self.mask >> i) & 1:
                chars.append("-")
            else:
                chars.append("1" if (self.value >> i) & 1 else "0")
        return "".join(chars)

    @staticmethod
    def from_string(text: str) -> "Cube":
        mask = value = 0
        for i, ch in enumerate(text):
            if ch == "-":
                continue
            mask |= 1 << i
            if ch == "1":
                value |= 1 << i
            elif ch != "0":
                raise SynthesisError(f"bad cube character {ch!r}")
        return Cube(mask, value)

    @staticmethod
    def from_minterm(minterm: int, k: int) -> "Cube":
        full = (1 << k) - 1
        return Cube(full, minterm & full)


class Cover:
    """An ordered list of cubes over ``k`` inputs."""

    def __init__(self, k: int, cubes: Iterable[Cube] = ()) -> None:
        if k < 0:
            raise SynthesisError("negative input count")
        self.k = k
        self.cubes: List[Cube] = list(cubes)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    @property
    def n_literals(self) -> int:
        """Total literal count — the classic two-level cost function."""
        return sum(c.n_literals for c in self.cubes)

    def covers(self, minterms: np.ndarray) -> np.ndarray:
        """Boolean coverage mask over a minterm index array."""
        m = np.asarray(minterms)
        out = np.zeros(m.shape, dtype=bool)
        for cube in self.cubes:
            out |= cube.covers(m)
        return out

    def evaluate(self) -> np.ndarray:
        """Explicit truth table (length ``2**k``) of the cover."""
        idx = np.arange(1 << self.k, dtype=np.int64)
        return self.covers(idx)

    def implements(self, on_set: np.ndarray, dc_set: np.ndarray = None) -> bool:
        """Check the cover equals ``on_set`` outside the optional DC set."""
        table = self.evaluate()
        on = np.asarray(on_set, dtype=bool)
        if dc_set is None:
            return bool(np.array_equal(table, on))
        dc = np.asarray(dc_set, dtype=bool)
        return bool(np.array_equal(table[~dc], on[~dc]))

    def to_strings(self) -> List[str]:
        return [c.to_string(self.k) for c in self.cubes]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cover(k={self.k}, cubes={len(self.cubes)}, lits={self.n_literals})"


def cover_from_minterms(k: int, minterms: Sequence[int]) -> Cover:
    """The trivial cover: one full cube per minterm."""
    return Cover(k, [Cube.from_minterm(m, k) for m in minterms])


def on_off_dc_split(
    table: np.ndarray, dc: np.ndarray = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a single-output truth table into (ON, OFF, DC) minterm indices."""
    table = np.asarray(table, dtype=bool)
    n = table.shape[0]
    dc_mask = (
        np.zeros(n, dtype=bool) if dc is None else np.asarray(dc, dtype=bool)
    )
    idx = np.arange(n, dtype=np.int64)
    on = idx[table & ~dc_mask]
    off = idx[~table & ~dc_mask]
    dcs = idx[dc_mask]
    return on, off, dcs


def cover_literal_bound(table: np.ndarray) -> int:
    """Lower bound on the literal count of any cover of ``table``'s ON-set.

    Let ``deg(x)`` be the number of ON minterms at Hamming distance 1 from
    ON minterm ``x``.  A cube of dimension ``d`` inside the ON-set that
    contains ``x`` has ``d <= deg(x)``; it has ``k - d`` literals over
    ``2**d`` minterms.  Charging each minterm its share, which shrinks as
    ``d`` grows, gives ``L >= sum_x (k - deg x) * 2**(k - deg x) / 2**k``.
    No don't-cares: every cube of the cover lies inside the ON-set.
    """
    table = np.asarray(table, dtype=bool)
    n = table.shape[0]
    k = n.bit_length() - 1
    deg = np.zeros(n, dtype=np.int64)
    for i in range(k):
        # row r's neighbour across input i, as the bit-i-swapped view
        deg += table.reshape(-1, 2, 1 << i)[:, ::-1, :].reshape(-1)
    t = k - deg[table]
    total = int((t << t).sum())
    return -(-total >> k)  # ceil(total / 2**k)
