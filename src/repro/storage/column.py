"""Typed storage columns.

Three column types cover everything the document encoding needs:

* :class:`VoidColumn` — Monet's ``void`` (virtual oid) type: the contiguous
  sequence ``offset, offset+1, ...`` materialising nothing.  The ``pre``
  column of the ``doc`` table is void, which is what makes ``doc[i]`` a
  positional lookup rather than a search (Section 4.1).
* :class:`IntColumn` — a dense numpy ``int64`` vector (``post``, ``level``,
  ``parent``, ``kind``).
* :class:`StringColumn` — dictionary-encoded strings: a dense ``int32`` code
  vector plus a shared code↔string dictionary (``tag`` names; XMark uses a
  few dozen distinct tags over millions of nodes, so this is the natural
  representation and makes name tests integer comparisons).

Columns are immutable after construction; builders collect Python values and
freeze them into columns.  That split keeps the hot query path allocation
free and lets hypothesis tests treat columns as values.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Union

import numpy as np

from repro.errors import StorageError

__all__ = ["Column", "VoidColumn", "IntColumn", "StringColumn"]


class Column:
    """Abstract base: a fixed-length, positionally indexed vector."""

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def __getitem__(self, index):  # pragma: no cover - abstract
        raise NotImplementedError

    def __iter__(self) -> Iterator:
        for i in range(len(self)):
            yield self[i]

    def to_numpy(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class VoidColumn(Column):
    """The contiguous sequence ``offset, offset+1, ..., offset+length-1``.

    Only the offset and length are stored.  ``to_numpy`` materialises the
    sequence on demand (used by vectorised kernels); positional access is
    pure arithmetic.
    """

    __slots__ = ("offset", "length")

    def __init__(self, length: int, offset: int = 0):
        if length < 0:
            raise StorageError("VoidColumn length must be non-negative")
        self.offset = offset
        self.length = length

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.length)
            if step != 1:
                raise StorageError("VoidColumn slices must be contiguous")
            return VoidColumn(max(0, stop - start), offset=self.offset + start)
        if index < 0:
            index += self.length
        if not 0 <= index < self.length:
            raise IndexError(f"void index {index} out of range [0, {self.length})")
        return self.offset + index

    def to_numpy(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.length, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VoidColumn(offset={self.offset}, length={self.length})"


class IntColumn(Column):
    """A dense vector of 64-bit integers backed by numpy."""

    __slots__ = ("values",)

    def __init__(self, values: Union[Sequence[int], np.ndarray]):
        array = np.asarray(values, dtype=np.int64)
        if array.ndim != 1:
            raise StorageError("IntColumn requires a one-dimensional sequence")
        self.values = array

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return IntColumn(self.values[index])
        return int(self.values[index])

    def to_numpy(self) -> np.ndarray:
        return self.values

    def max(self) -> int:
        if len(self) == 0:
            raise StorageError("max() of an empty IntColumn")
        return int(self.values.max())

    def min(self) -> int:
        if len(self) == 0:
            raise StorageError("min() of an empty IntColumn")
        return int(self.values.min())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IntColumn(len={len(self)})"


class StringColumn(Column):
    """Dictionary-encoded string vector.

    ``codes`` is a dense ``int32`` vector; ``dictionary`` maps code → string.
    Lookups by string go through ``code_of``; a name test then becomes a
    single integer comparison per node, exactly as in Monet where the tag
    BAT holds integer object identifiers.
    """

    __slots__ = ("codes", "dictionary", "_index")

    def __init__(
        self,
        codes: Union[Sequence[int], np.ndarray],
        dictionary: List[str],
        validate: bool = True,
    ):
        self.codes = np.asarray(codes, dtype=np.int32)
        if self.codes.ndim != 1:
            raise StorageError("StringColumn requires a one-dimensional code vector")
        self.dictionary = list(dictionary)
        if validate and len(self.codes) and (
            self.codes.min() < 0 or self.codes.max() >= len(self.dictionary)
        ):
            raise StorageError("StringColumn code out of dictionary range")
        self._index: Dict[str, int] = {s: i for i, s in enumerate(self.dictionary)}
        if len(self._index) != len(self.dictionary):
            raise StorageError("StringColumn dictionary contains duplicates")

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "StringColumn":
        """Build a column (and its dictionary) from raw strings."""
        index: Dict[str, int] = {}
        codes: List[int] = []
        for s in strings:
            code = index.get(s)
            if code is None:
                code = len(index)
                index[s] = code
            codes.append(code)
        dictionary = [""] * len(index)
        for s, code in index.items():
            dictionary[code] = s
        return cls(np.asarray(codes, dtype=np.int32), dictionary)

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return StringColumn(self.codes[index], self.dictionary)
        return self.dictionary[int(self.codes[index])]

    def to_numpy(self) -> np.ndarray:
        """The raw code vector (not the strings)."""
        return self.codes

    def code_of(self, value: str) -> int:
        """Return the dictionary code for ``value``, or ``-1`` if absent.

        A ``-1`` sentinel (never a valid code) lets name tests on tags that
        do not occur in the document short-circuit to an empty result.
        """
        return self._index.get(value, -1)

    def code_at(self, index: int) -> int:
        """The integer code at ``index`` (no string materialisation)."""
        return int(self.codes[index])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StringColumn(len={len(self)}, dict={len(self.dictionary)})"
