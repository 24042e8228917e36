"""Exception types shared across the package; `_int_in`, the one test of a
count or index read from outside; and `_Value`, the base of its immutable
partitions, families and tensors."""


class NcprobError(Exception):
    """Base class for all library errors."""


class LimitExceeded(NcprobError):
    """A requested size, or a value to write out, is above a configured limit."""


class InvalidPartition(NcprobError):
    """Blocks do not form a valid (non-crossing) partition of the ground set."""


class InvalidFamily(NcprobError):
    """Serialized family or tensor data is malformed."""


class SizeMismatch(NcprobError):
    """Two partitions live on ground sets of different sizes."""


class NotComparable(NcprobError):
    """The two partitions are not comparable in the required order."""


class NotInner(NcprobError):
    """The indicated block is not an inner block."""


class IsBlockMax(NcprobError):
    """The element is the maximum of its block, so the block cannot be cut there."""


class NotLLOne(NcprobError):
    """The partition does not have a unique outer block containing 1 and n."""


class NotOuter(NcprobError):
    """A block required to be outer is not an outer block of the partition."""


class EmptySubset(NcprobError):
    """A non-empty position subset is required."""


class PositionOutOfRange(NcprobError):
    """A position index falls outside the word."""


class ShapeMismatch(NcprobError):
    """Families disagree in number of generators or truncation degree."""


class DegreeTooLow(NcprobError):
    """The family is not truncated deep enough for the requested operation."""


class DimMismatch(NcprobError):
    """Family and tensor are built over spaces of different dimension."""


class DegreeMismatch(NcprobError):
    """Two families that must share a truncation degree do not."""


class NotTracial(NcprobError):
    """The operation requires a tracial family."""


def _int_in(value, lo: int, hi: int | None = None) -> bool:
    """True iff value is an int, not a bool, with lo <= value <= hi (no upper
    bound when hi is None)."""
    return type(value) is int and lo <= value and (hi is None or value <= hi)


class _Value:
    """An immutable value, equal to another of its type with an equal `_key()`
    and hashed by it; `_fill` sets its `__slots__` in order, and a subclass
    that derives a slot from its fields overrides it."""

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *fields):
        """The value filled from the fields, unchecked."""
        self = object.__new__(cls)
        self._fill(*fields)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())
