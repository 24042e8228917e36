"""Truncated families of multilinear functionals with exact rational values.

A family of degree N over k generators holds one rational per word of
length 1..N with letters in {1..k}, as its layers, the format the kernels
of `cumulants` read and write: layer n is the tuple of the values of the
words of length n in rank order (`words_of_length`).  Moment families,
every brand of cumulants and the derivative-style functionals all share
this one representation; the `kind` tag records which role a table plays
and fixes the implied degree-0 normalization (1 for moment-like kinds, 0
for the infinitesimal ones).

Degree bookkeeping matters throughout the package: a family of degree N
answers only words of length <= N, and the one degree-consuming operation
(the cyclic one-slot comultiplication in `deltastar`) turns degree N+1
input into degree N output.  Nothing is ever zero-padded.

The seeded random families and tensors are defined by randint draws,
Fraction(randint(-9, 9), randint(1, 4)) per word (-2..2 over 1..2 per
tensor entry), from a `random.Random` seeded by a string of the recipe,
the shape and the seed.  `_draw_layer` makes the same draws through
`getrandbits` with randint's rejection rule and reads each value from a
table of prebuilt Fractions; `tests/test_families.py` pins its values and
the generator state it leaves against the randint recipe.
"""

import itertools
import random as _random
import sys
from collections.abc import Mapping
from contextlib import suppress
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DegreeTooLow,
    DimMismatch,
    EmptySubset,
    InvalidFamily,
    LimitExceeded,
    PositionOutOfRange,
    ShapeMismatch,
    _int_in,
    _Value,
)

Word = tuple[int, ...]

KINDS = (
    "moment",
    "free-cumulant",
    "boolean-cumulant",
    "cfree-cumulant",
    "cc-cumulant",
    "infinitesimal",
    "infinitesimal-cumulant",
)
_UNIT_ZERO_KINDS = ("infinitesimal", "infinitesimal-cumulant")
# What parsing JSON-decoded data of the wrong shape or content can raise.
_MALFORMED = (
    AttributeError, KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError)


def _fraction(value) -> Fraction:
    """A value given in Python, a float at its exact binary value;
    InvalidFamily for a bool or anything else Fraction cannot read."""
    if type(value) is not bool:
        with suppress(*_MALFORMED):
            return _read_fraction(value)
    raise InvalidFamily(f"value {value!r} is not a number")


def _json_fraction(value) -> Fraction:
    """A value read from JSON, where `true` and `false` are no numbers and a
    float is read through its shortest decimal, so that 0.1 is 1/10."""
    return _read_fraction(str(value) if type(value) in (bool, float) else value)


def _read_fraction(value) -> Fraction:
    """Fraction(value), a Decimal read through its text, first refusing a decimal
    text whose mantissa length plus exponent size, a bound on its digits, is
    above the int-to-str digit limit."""
    value = str(value) if isinstance(value, Decimal) else value
    if isinstance(value, str) and "/" not in value:
        mantissa, _, exp = value.strip().lower().partition("e")
        limit = sys.get_int_max_str_digits()
        if limit and len(mantissa.lstrip("+-")) + abs(int(exp or 0)) > limit:
            raise InvalidFamily("a value has too many digits to read in")
    return value if isinstance(value, Fraction) else Fraction(value)


@lru_cache(maxsize=None)
def words_of_length(k: int, n: int) -> tuple[Word, ...]:
    return tuple(itertools.product(range(1, k + 1), repeat=n))


@lru_cache(maxsize=None)
def _ranks(k: int, n: int, positions: tuple[int, ...]) -> tuple[int, ...]:
    """For the words w of length n in rank order, the rank of w|positions,
    the letters at the given 0-based positions in the order given, in its
    own layer: that layer gathered at these ranks reads it on every w|positions."""
    weight = {i: k ** e for e, i in enumerate(reversed(positions))}
    ranks = [0]
    for i in range(n):
        step = weight.get(i, 0)
        ranks = [r + d * step for r in ranks for d in range(k)]
    return tuple(ranks)


def _word_count(k: int, N: int, stop: int) -> int:
    """The words of length 1..N over k letters, counted no further than past stop."""
    words = n = 0
    while n < N and words <= stop:
        n += 1
        words += k ** n
    return words


def all_words(k: int, max_n: int):
    """Every word of length 1..max_n over {1..k}, shortest first."""
    for n in range(1, max_n + 1):
        yield from words_of_length(k, n)


def _check_shape(k: int, N: int, kind: str) -> None:
    if not (_int_in(k, 1) and _int_in(N, 1)):
        raise ShapeMismatch(f"k and N must be positive, got k={k!r}, N={N!r}")
    if kind not in KINDS:
        raise InvalidFamily(f"unknown kind {kind!r}")


class MultilinearFamily(_Value):
    """Exact rationals on the words of length 1..N, as layers 0..N with
    layers[0] = (); `_trusted` takes each layer as Fractions in rank order."""

    __slots__ = ("k", "N", "kind", "unit", "_layers")

    def __init__(self, k: int, N: int, values, kind: str = "moment") -> None:
        _check_shape(k, N, kind)
        if not isinstance(values, Mapping):
            raise InvalidFamily(f"values must map words to values, got {type(values).__name__}")
        if _word_count(k, N, len(values)) > len(values):  # counted before any word is listed
            raise ShapeMismatch(f"fewer values than words of length 1..{N} over 1..{k}")
        layers = [[] for _ in range(N + 1)]
        for w in all_words(k, N):
            try:
                v = values[w]
            except KeyError:
                raise ShapeMismatch(f"missing value for word {w}") from None
            layers[len(w)].append(_fraction(v))
        self._fill(k, N, tuple(map(tuple, layers)), kind)

    def _fill(self, k: int, N: int, layers: tuple, kind: str) -> None:
        super()._fill(k, N, kind, "zero" if kind in _UNIT_ZERO_KINDS else "one", layers)

    def _key(self):
        return self.k, self.N, self._layers

    def __call__(self, word) -> Fraction:
        w = tuple(word)
        if len(w) > self.N:
            raise DegreeTooLow(
                f"word of length {len(w)} beyond truncation degree {self.N}"
            )
        k = self.k
        if not w or not all(_int_in(x, 1, k) for x in w):
            raise PositionOutOfRange(f"letters of {w} outside 1..{k}")
        rank = 0
        for x in w:
            rank = rank * k + x - 1
        return self._layers[len(w)][rank]

    @property
    def values(self) -> dict[Word, Fraction]:
        """A fresh word -> value dict, in `all_words` order."""
        return dict(zip(all_words(self.k, self.N), itertools.chain(*self._layers)))

    def __repr__(self):
        return f"MultilinearFamily(k={self.k}, N={self.N}, kind={self.kind!r})"

    def to_json_dict(self) -> dict:
        try:
            values = {",".join(map(str, w)): str(v) for w, v in self.values.items()}
        except ValueError:  # an int past the interpreter's int-to-str digit limit
            raise LimitExceeded("a value has too many digits to write out") from None
        return {"k": self.k, "N": self.N, "kind": self.kind, "unit": self.unit, "values": values}

    @classmethod
    def from_json_dict(cls, data) -> "MultilinearFamily":
        try:
            k, N, kind, named = data["k"], data["N"], data.get("kind", "moment"), data["values"]
            _check_shape(k, N, kind)
            # counted before any word is listed, so a huge k costs nothing
            if _word_count(k, N, len(named)) != len(named):
                raise InvalidFamily(
                    f"values must name each word of length 1..{N} over 1..{k} exactly once")
            values = {
                tuple(int(t) for t in key.split(",")): _json_fraction(val)
                for key, val in named.items()
            }
            fam = cls(k, N, values, kind=kind)
        except _MALFORMED as exc:
            raise InvalidFamily(f"malformed family data: {exc!r}") from None
        if "unit" in data and data["unit"] != fam.unit:
            raise ShapeMismatch(
                f"unit {data['unit']!r} inconsistent with kind {fam.kind!r}"
            )
        return fam


def build_family(k: int, N: int, fn, kind: str = "moment") -> MultilinearFamily:
    """Family whose value on each word is fn(word)."""
    return MultilinearFamily(k, N, {w: fn(w) for w in all_words(k, N)}, kind=kind)


def zero_family(k: int, N: int, kind: str = "infinitesimal") -> MultilinearFamily:
    return build_family(k, N, lambda w: Fraction(0), kind=kind)


def truncate(f: MultilinearFamily, N: int, kind: str | None = None) -> MultilinearFamily:
    """Drop all words longer than N."""
    kind = kind if kind is not None else f.kind
    _check_shape(f.k, N, kind)
    if N > f.N:
        raise DegreeTooLow(f"cannot extend degree {f.N} family to {N}")
    return MultilinearFamily._trusted(f.k, N, f._layers[:N + 1], kind)


def restrict(f: MultilinearFamily, word, positions) -> Fraction:
    """Value of f on the subword picked out by a set of 1-based positions,
    always taken in increasing order."""
    w = tuple(word)
    pos = set(positions)
    if not pos:
        raise EmptySubset("position subset must be non-empty")
    if not all(_int_in(p, 1, len(w)) for p in pos):
        shown = sorted(pos, key=lambda p: (type(p) is not int, p if type(p) is int else repr(p)))
        raise PositionOutOfRange(f"positions {shown} outside 1..{len(w)}")
    return f(tuple(w[p - 1] for p in sorted(pos)))


def is_tracial(f: MultilinearFamily) -> bool:
    """True iff every word's value is invariant under cyclic rotation: each
    layer equals its gather through the rank map of the rotation by one."""
    return all(layer == tuple([layer[r] for r in _ranks(f.k, n, (*range(1, n), 0))])
               for n, layer in enumerate(f._layers[1:], 1))


@lru_cache(maxsize=None)
def _grid(top: int, most: int) -> tuple[Fraction, ...]:
    """Fraction(a, b) for a in -top..top and b in 1..most, at index
    (a + top) * most + b - 1."""
    return tuple(Fraction(a, b) for a in range(-top, top + 1) for b in range(1, most + 1))


def _draw_layer(rng: _random.Random, count: int, top: int = 9, most: int = 4) -> list:
    """count draws of Fraction(rng.randint(-top, top), rng.randint(1, most)),
    the same values leaving rng in the same state: randint draws below n by
    calling getrandbits(n.bit_length()) until the result is below n, and the
    value is read from `_grid`."""
    values, span = _grid(top, most), 2 * top + 1
    nbits, dbits = span.bit_length(), most.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        a = bits(nbits)
        while a >= span:
            a = bits(nbits)
        b = bits(dbits)
        while b >= most:
            b = bits(dbits)
        out.append(values[a * most + b])
    return out


def random_family(k: int, N: int, seed: int, kind: str = "moment") -> MultilinearFamily:
    """Seeded family with small rational entries; deterministic per seed.
    The words draw in `all_words` order, layer by layer in rank order."""
    _check_shape(k, N, kind)
    rng = _random.Random(("family", k, N, seed).__repr__())
    layers = ((), *(tuple(_draw_layer(rng, k ** n)) for n in range(1, N + 1)))
    return MultilinearFamily._trusted(k, N, layers, kind)


@lru_cache(maxsize=None)
def _rotation_classes(k: int, n: int) -> tuple[int, tuple[int, ...]]:
    """(the number of cyclic classes of the words of length n, the class of
    each word in rank order): classes are numbered in the order of their
    least ranks, each spread along its orbit under the rank map of the
    rotation by one."""
    step = _ranks(k, n, (*range(1, n), 0))
    ids = [None] * k ** n
    count = 0
    for r in range(k ** n):
        if ids[r] is None:
            while ids[r] is None:
                ids[r], r = count, step[r]
            count += 1
    return count, tuple(ids)


def random_tracial(k: int, N: int, seed: int, kind: str = "moment") -> MultilinearFamily:
    """Seeded family constant on cyclic classes of words, hence tracial:
    each class draws once, in the order of `_rotation_classes`, and each
    word reads its class's value."""
    _check_shape(k, N, kind)
    rng = _random.Random(("tracial", k, N, seed).__repr__())
    layers = [()]
    for n in range(1, N + 1):
        count, ids = _rotation_classes(k, n)
        layers.append(tuple(map(_draw_layer(rng, count).__getitem__, ids)))
    return MultilinearFamily._trusted(k, N, tuple(layers), kind)


def relabel(f: MultilinearFamily, offset: int) -> MultilinearFamily:
    """Shift the generators up by `offset`; unshifted letters get value 0."""
    if not _int_in(offset, 0):
        raise ShapeMismatch(f"offset must be >= 0, got {offset!r}")
    if offset == 0:
        return f
    k2 = f.k + offset

    def fn(w: Word) -> Fraction:
        if all(letter > offset for letter in w):
            return f(tuple(letter - offset for letter in w))
        return Fraction(0)

    return build_family(k2, f.N, fn, kind=f.kind)


class DeltaTensor(_Value):
    """A linear map V -> V (x) V on a fixed basis, as a sparse rational
    rank-3 table: entry (i, j, l) is the coefficient of e_j (x) e_l in the
    image of e_i, j the first factor; `_trusted` takes nonzero Fractions."""

    __slots__ = ("k", "_entries")

    def __init__(self, k: int, entries) -> None:
        if not _int_in(k, 1):
            raise DimMismatch(f"k must be positive, got {k!r}")
        table: dict[tuple[int, int, int], Fraction] = {}
        try:
            entries = dict(entries)
        except (TypeError, ValueError):
            raise InvalidFamily(f"entries must pair triples with values, got {entries!r}") from None
        for key, v in entries.items():
            if not (isinstance(key, tuple) and len(key) == 3):
                raise DimMismatch(f"index {key!r} is not a triple (i, j, l)")
            i, j, l = key
            if not (_int_in(i, 1, k) and _int_in(j, 1, k) and _int_in(l, 1, k)):
                raise DimMismatch(f"index ({i!r},{j!r},{l!r}) outside 1..{k}")
            q = _fraction(v)
            if q != 0:
                table[(i, j, l)] = q
        self._fill(k, table)

    def _key(self):
        return self.k, tuple(sorted(self._entries.items()))

    def __repr__(self):
        return f"DeltaTensor(k={self.k}, nnz={len(self._entries)})"

    def expand(self, i: int) -> tuple[tuple[int, int, Fraction], ...]:
        """The nonzero (j, l, coefficient) triples of the image of e_i."""
        if not _int_in(i, 1, self.k):
            raise DimMismatch(f"index {i!r} outside 1..{self.k}")
        return tuple((j, l, v) for (ii, j, l), v in sorted(self._entries.items()) if ii == i)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "entries": [
                {"i": i, "j": j, "l": l, "value": str(v)}
                for (i, j, l), v in sorted(self._entries.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "DeltaTensor":
        try:
            entries = {
                (e["i"], e["j"], e["l"]): _json_fraction(e["value"])
                for e in data["entries"]
            }
            return cls(data["k"], entries)
        except _MALFORMED as exc:
            raise InvalidFamily(f"malformed tensor data: {exc!r}") from None


def _require_same_shape(f: MultilinearFamily, *others: MultilinearFamily) -> None:
    """ShapeMismatch unless every family shares f's k and N."""
    for g in others:
        if g.k != f.k or g.N != f.N:
            raise ShapeMismatch(f"families disagree: (k={f.k}, N={f.N}) vs (k={g.k}, N={g.N})")


def _require_dim(delta: DeltaTensor, *families: MultilinearFamily) -> None:
    """DimMismatch unless every family is over the tensor's k letters."""
    for f in families:
        if f.k != delta.k:
            raise DimMismatch(f"family over k={f.k} but tensor over k={delta.k}")


def diagonal_delta(k: int) -> DeltaTensor:
    """The comultiplication e_i -> e_i (x) e_i."""
    return DeltaTensor(k, {(i, i, i): Fraction(1) for i in range(1, k + 1)})


def random_delta(k: int, seed: int) -> DeltaTensor:
    """Seeded dense tensor with small rational entries."""
    rng = _random.Random(("delta", k, seed).__repr__())
    keys = itertools.product(range(1, k + 1), repeat=3)
    return DeltaTensor(k, zip(keys, _draw_layer(rng, k ** 3, top=2, most=2)))
