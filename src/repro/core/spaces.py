"""Parameter spaces: the DSE decision variables and their restrictions.

The paper's formulation is integer-only (Section III-B1): every dimension
is an integer variable, booleans ride along as {0, 1}, and designers can
restrict a dimension — most prominently to powers of two — which both
shrinks the explored volume and "enforc[es] meaningful solutions only".

A :class:`ParameterSpace` maps between the optimizer's integer vectors
(the *encoded* space the GA mutates) and HDL parameter assignments (the
*decoded* values the tool consumes).  A power-of-two dimension encodes the
exponent, so the GA explores a dense integer range while the design sees
2^e.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import InvalidSpaceError

__all__ = ["Dimension", "IntRange", "PowerOfTwoRange", "BoolParam", "ParameterSpace"]


@dataclass(frozen=True)
class Dimension:
    """Base: one named integer dimension with encoded inclusive bounds."""

    name: str
    low: int
    high: int

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise InvalidSpaceError(
                f"{self.name}: inverted bounds [{self.low}, {self.high}]"
            )

    def decode(self, encoded: int) -> int:
        return int(encoded)

    def encode(self, value: int) -> int:
        return int(value)

    def cardinality(self) -> int:
        return self.high - self.low + 1

    def values(self) -> list[int]:
        return [self.decode(e) for e in range(self.low, self.high + 1)]

    def validate_round_trip(self) -> None:
        """Check encode(decode(e)) == e at both range boundaries.

        A dimension whose codec does not round-trip silently corrupts the
        GA's view of the space (clipping and masks key on encoded values),
        so :class:`ParameterSpace` refuses to be built around one.
        """
        for encoded in (self.low, self.high):
            decoded = self.decode(encoded)
            back = self.encode(decoded)
            if back != encoded:
                raise InvalidSpaceError(
                    f"{self.name}: encode/decode round-trip broken at "
                    f"boundary {encoded}: decode({encoded}) = {decoded}, "
                    f"encode({decoded}) = {back}"
                )


class IntRange(Dimension):
    """A plain integer range (identity encoding)."""


@dataclass(frozen=True)
class PowerOfTwoRange(Dimension):
    """Values 2^low … 2^high; the encoded variable is the exponent."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.low < 0:
            raise InvalidSpaceError(f"{self.name}: negative exponent {self.low}")

    @classmethod
    def over_values(cls, name: str, min_value: int, max_value: int) -> "PowerOfTwoRange":
        """Build from value bounds (must be powers of two, at least 1)."""
        if min_value < 1:
            raise InvalidSpaceError(
                f"{name}: minimum value {min_value} is below 1 — "
                "power-of-two dimensions start at 2**0 = 1"
            )
        for v in (min_value, max_value):
            if v & (v - 1):
                raise InvalidSpaceError(f"{name}: {v} is not a power of two")
        return cls(name, min_value.bit_length() - 1, max_value.bit_length() - 1)

    def decode(self, encoded: int) -> int:
        return 1 << int(encoded)

    def encode(self, value: int) -> int:
        value = int(value)
        if value < 1 or value & (value - 1):
            raise InvalidSpaceError(f"{self.name}: {value} is not a power of two")
        return value.bit_length() - 1


class BoolParam(Dimension):
    """A boolean parameter as the integer range {0, 1}."""

    def __init__(self, name: str) -> None:
        super().__init__(name=name, low=0, high=1)


class ParameterSpace:
    """An ordered collection of dimensions with encode/decode helpers."""

    def __init__(self, dimensions: Sequence[Dimension]) -> None:
        if not dimensions:
            raise InvalidSpaceError("parameter space has no dimensions")
        names = [d.name.lower() for d in dimensions]
        if len(set(names)) != len(names):
            raise InvalidSpaceError("duplicate dimension names")
        for d in dimensions:
            d.validate_round_trip()
        self.dimensions = tuple(dimensions)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.dimensions)

    def __iter__(self):
        return iter(self.dimensions)

    def names(self) -> list[str]:
        return [d.name for d in self.dimensions]

    def lows(self) -> np.ndarray:
        return np.array([d.low for d in self.dimensions], dtype=np.int64)

    def highs(self) -> np.ndarray:
        return np.array([d.high for d in self.dimensions], dtype=np.int64)

    def cardinality(self) -> int:
        out = 1
        for d in self.dimensions:
            out *= d.cardinality()
        return out

    def dimension(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name.lower() == name.lower():
                return d
        raise KeyError(f"space has no dimension {name!r}")

    # ------------------------------------------------------------------

    def decode(self, encoded: Sequence[int] | np.ndarray) -> dict[str, int]:
        """Encoded GA vector → HDL parameter assignment."""
        encoded = np.asarray(encoded).ravel()
        if encoded.size != len(self.dimensions):
            raise InvalidSpaceError(
                f"vector has {encoded.size} entries, space has {len(self.dimensions)}"
            )
        # Clamp-then-truncate as np.clip did, on Python scalars: NaN
        # survives both comparisons and int() raises ValueError on it.
        return {
            d.name: d.decode(int(min(max(e, d.low), d.high)))
            for d, e in zip(self.dimensions, encoded.tolist())
        }

    def encode(self, params: Mapping[str, int]) -> np.ndarray:
        """HDL parameter assignment → encoded GA vector."""
        out = np.empty(len(self.dimensions), dtype=np.int64)
        for i, d in enumerate(self.dimensions):
            match = None
            for key, value in params.items():
                if key.lower() == d.name.lower():
                    match = value
                    break
            if match is None:
                raise InvalidSpaceError(f"assignment missing dimension {d.name!r}")
            out[i] = d.encode(match)
        return out

    def decode_many(self, X: np.ndarray) -> list[dict[str, int]]:
        return [self.decode(row) for row in np.atleast_2d(X)]

    # ------------------------------------------------------------------

    @classmethod
    def from_design(cls, design, names: Iterable[str] | None = None) -> "ParameterSpace":
        """Build the canonical space of a case-study design generator.

        ``design`` is a :class:`repro.designs.base.DesignGenerator`;
        ``names`` optionally restricts/reorders the dimensions.
        """
        infos = list(design.params)
        if names is not None:
            infos = [design.param(n) for n in names]
        dims: list[Dimension] = []
        for info in infos:
            if info.power_of_two:
                dims.append(PowerOfTwoRange(info.name, info.low, info.high))
            elif (info.low, info.high) == (0, 1):
                dims.append(BoolParam(info.name))
            else:
                dims.append(IntRange(info.name, info.low, info.high))
        return cls(dims)
