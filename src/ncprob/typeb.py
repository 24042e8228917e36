"""Symmetric non-crossing partitions of {+-1..+-n}.

Two circular label orders are supported: type B places the labels as
(1,..,n,-1,..,-n) around the circle, the opposite variant as
(1,..,n,-n,..,-1).  A partition must be non-crossing for the chosen order
and closed under negation; a block equal to its own negation is a
zero-block.  Every entry reads its flavor, a `Flavor` or its value, through
`_flavor`.  The constructor refuses labels that are not ints and checks
crossings with `nc.is_noncrossing` on the labels' positions in the flavor's
order; only the enumerations build through the unchecked `_trusted`.

Both lattices have comb(2n, n) elements.  The opposite order is built from
its bijection with the pairs (pi in NC(n), a set of outer blocks of pi)
(`from_pair`).  Type B is built as the partitions of 2n circle positions
that the half-turn maps to themselves, by the block of the first position
(`_half_turn_span`); it reads neither that bijection nor outer blocks, so
its count is an independent check of comb(2n, n).  Each lattice is one
table of canonical block rows (`_signed_blocks`): the CLI prints it, the
kernel tables of `cumulants` read it, and only the enumerations wrap it in
partition objects (`_signed_objects`).
"""

import itertools
from enum import Enum
from functools import lru_cache
from math import comb

from .errors import InvalidPartition, NotOuter, _int_in, _Value
from .nc import (
    Blocks,
    NcPartition,
    _block_text,
    _blocks_from_text,
    _check_size,
    _int_blocks,
    _nc_span,
    _outer,
    is_noncrossing,
    outer_blocks,
)

DEFAULT_SIGNED_LIMIT = 8


class Flavor(Enum):
    B = "B"
    B_OPP = "B-opp"


def _position(label: int, n: int, flavor: Flavor) -> int:
    """0-based position of a signed label in the flavor's circular order."""
    if label > 0:
        return label - 1
    if flavor is Flavor.B:
        return n - label - 1          # -i sits at position n+i-1
    return 2 * n + label              # -i sits at position 2n-i


def _block_key(block: tuple[int, ...]):
    m = min(abs(x) for x in block)
    return (m, 0 if m in block else 1)


def _sort_block(block) -> tuple[int, ...]:
    pos = sorted(x for x in block if x > 0)
    neg = sorted((x for x in block if x < 0), key=abs)
    return tuple(pos + neg)


def _flavor(tag) -> Flavor:
    try:
        return Flavor(tag)
    except ValueError:
        raise InvalidPartition(f"unknown flavor {tag!r}") from None


class SignedNcPartition(_Value):
    """Canonical symmetric non-crossing partition of {+-1..+-n}; `_trusted`
    takes blocks canonical, symmetric and non-crossing in the flavor's order."""

    __slots__ = ("n", "flavor", "blocks")

    def __init__(self, n: int, flavor: Flavor | str, blocks) -> None:
        if not _int_in(n, 1):
            raise InvalidPartition(f"n must be positive, got {n!r}")
        blocks = _int_blocks(blocks)
        if not all(blocks):
            raise InvalidPartition("empty block")
        canon = tuple(sorted(map(_sort_block, blocks), key=_block_key))
        flavor = _flavor(flavor)
        self._fill(n, flavor, canon)
        elems = sorted(x for b in canon for x in b)  # counted before +-1..+-n is built
        if len(elems) != 2 * n or elems != [*range(-n, 0), *range(1, n + 1)]:
            raise InvalidPartition(f"blocks do not partition +-1..+-{n}")
        block_sets = [frozenset(b) for b in canon]
        universe = set(block_sets)
        for s in block_sets:
            if frozenset(-x for x in s) not in universe:
                raise InvalidPartition(f"not closed under negation: {sorted(s)}")
        if not is_noncrossing([[_position(x, n, flavor) + 1 for x in b] for b in canon], 2 * n):
            raise InvalidPartition(f"crossing blocks in {flavor.value} order: {canon}")

    def _key(self):
        return self.n, self.flavor, self.blocks

    def __lt__(self, other):
        return self.blocks < other.blocks

    def __repr__(self):
        return f"SignedNcPartition({self.n}, {self.flavor}, {list(map(list, self.blocks))})"

    def __str__(self):
        return self.to_text(tagged=True)

    def to_text(self, tagged: bool = False) -> str:
        body = "".join(map(_block_text, self.blocks))
        return f"{self.flavor.value}:{body}" if tagged else body

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "flavor": self.flavor.value,
            "blocks": [list(b) for b in self.blocks],
        }

    @classmethod
    def from_json(cls, data) -> "SignedNcPartition":
        try:
            return cls(data["n"], _flavor(data["flavor"]), [tuple(b) for b in data["blocks"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidPartition(f"malformed signed partition data: {exc!r}") from None

    @classmethod
    def from_text(cls, text: str, flavor: Flavor | str | None = None) -> "SignedNcPartition":
        if not isinstance(text, str):
            raise InvalidPartition(f"cannot parse partition text: {text!r}")
        flavor, body = text.split(":", 1) if ":" in text else (flavor, text)
        if flavor is None:
            raise InvalidPartition("flavor tag required")
        flavor = _flavor(flavor)
        blocks = _blocks_from_text(body)
        n = sum(len(b) for b in blocks) // 2
        return cls(n, flavor, blocks)


def zero_blocks(sigma: SignedNcPartition) -> tuple[int, ...]:
    """Indices of the blocks fixed by negation: a block that meets its
    negation is its negation, so those holding the negative of their first
    label."""
    return tuple(i for i, b in enumerate(sigma.blocks) if -b[0] in b)


def _abs_block(block: tuple[int, ...]) -> tuple[int, ...]:
    """Abs(U): the sorted absolute values of a signed block."""
    return tuple(sorted({abs(x) for x in block}))


def abs_partition(sigma: SignedNcPartition) -> NcPartition:
    """The partition {Abs(U)} of {1..n}; blocks U and -U collapse to one."""
    return NcPartition(sigma.n, list(dict.fromkeys(map(_abs_block, sigma.blocks))))


def from_pair(pi: NcPartition, s) -> SignedNcPartition:
    """Build the opposite-order partition from pi and a set of its outer blocks.

    Blocks in s become zero-blocks W u (-W); every other block contributes
    the pair V, -V.
    """
    try:
        chosen = {tuple(sorted(b)) for b in s}
    except TypeError:
        raise NotOuter(f"{s!r} does not list blocks of {pi}") from None
    outer = {pi.blocks[i] for i in outer_blocks(pi)}
    for b in chosen:
        if b not in outer:
            raise NotOuter(f"{b} is not an outer block of {pi}")
    return SignedNcPartition(pi.n, Flavor.B_OPP, _pair_blocks(pi.blocks, chosen))


def _pair_blocks(blocks: Blocks, chosen) -> Blocks:
    """The blocks of from_pair on the blocks of pi, unchecked; canonical as
    built, since each block V of pi gives V, -V or V u (-V) in turn."""
    out = []
    for b in blocks:
        neg = _negated(b)
        out += [b + neg] if b in chosen else [b, neg]
    return tuple(out)


@lru_cache(maxsize=None)
def _negated(block: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in block)


def to_pair(sigma: SignedNcPartition) -> tuple[NcPartition, tuple[tuple[int, ...], ...]]:
    """Inverse of from_pair: the absolute-value partition plus the set of
    outer blocks coming from zero-blocks."""
    zero = (sigma.blocks[i] for i in zero_blocks(sigma))
    return abs_partition(sigma), tuple(sorted(map(_abs_block, zero)))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _half_turn_span(m: int) -> tuple[Blocks, ...]:
    """All non-crossing partitions of the positions 0..2m-1 around a circle
    that the half-turn p -> p+m maps to themselves, each block ascending.

    Recursive construction by the block B of position 0, as `_nc_span`
    builds NC(n).  Either B is its own half-turn, B = S u (S+m) for a set S
    in [0, m) holding 0; or B+m lies in one gap of B, so B fits in an arc of
    at most m positions and B = S - t (mod 2m) for such an S and a t in S.
    Each gap between neighbours in S holds any non-crossing partition, and
    the gap's half-turn its mirror image.  In the second case the two arcs
    after S and after S+m together hold one instance of size m-1-max S.
    Only `_signed_blocks` puts blocks and partitions in canonical order.
    """
    if m == 0:
        return ((),)

    def turned(blocks):
        return tuple(tuple(p + m for p in b) for b in blocks)

    @lru_cache(maxsize=None)
    def rotated(block, t):
        return tuple(sorted((p - t) % (2 * m) for p in block))

    out: list[Blocks] = []
    for mask in range(1 << (m - 1)):
        s = (0,) + tuple(i + 1 for i in range(m - 1) if mask >> i & 1)
        turn = tuple(p + m for p in s)
        hi = s[-1]
        place = (*range(hi + 1, m), *range(hi + 1 + m, 2 * m))
        lasts = [last + turned(last) for last in _nc_span(hi + 1, m)]
        rests = [tuple(tuple(place[i] for i in b) for b in rest)
                 for rest in _half_turn_span(m - 1 - hi)]
        for combo in itertools.product(*[_nc_span(a + 1, b) for a, b in zip(s, s[1:])]):
            inner = sum(combo, ())
            inner += turned(inner)
            out += ((s + turn,) + inner + last for last in lasts)
            for rest in rests:
                body = (s, turn) + inner + rest
                out += (tuple(map(rotated, body, itertools.repeat(t))) for t in s)
    return tuple(out)


@lru_cache(maxsize=None)
def _signed_blocks(n: int, flavor: Flavor) -> tuple[Blocks, ...]:
    """The canonical blocks of every partition of the flavor's lattice, in
    canonical order: the one table both enumerations and the CLI read.
    B-opp pairs each row of NC(n) with each set of its outer blocks.  Type B
    labels the ascending position blocks of `_half_turn_span(n)`, which
    makes them canonical, and orders them by `_block_key`.
    """
    if flavor is Flavor.B_OPP:
        rows = []
        for blocks in _nc_span(1, n + 1):
            outer = [blocks[i] for i in _outer(blocks)]
            for mask in range(1 << len(outer)):
                rows.append(_pair_blocks(blocks, {b for i, b in enumerate(outer) if mask >> i & 1}))
    else:
        label = (*range(1, n + 1), *range(-1, -n - 1, -1))   # inverse of _position

        @lru_cache(maxsize=None)
        def keyed(block):
            signed = tuple(label[p] for p in block)
            return _block_key(signed), signed

        rows = (tuple(b for _, b in sorted(map(keyed, blocks))) for blocks in _half_turn_span(n))
    return tuple(sorted(rows))


def _signed_rows(n: int, flavor: Flavor) -> tuple[Blocks, ...]:
    """The rows of enumerate_signed(n, flavor), under its default limit, as blocks."""
    _check_size(n, DEFAULT_SIGNED_LIMIT, "signed enumeration")
    return _signed_blocks(n, flavor)


@lru_cache(maxsize=None)
def _signed_objects(n: int, flavor: Flavor) -> tuple[SignedNcPartition, ...]:
    return tuple(SignedNcPartition._trusted(n, flavor, b) for b in _signed_blocks(n, flavor))


def enumerate_signed(
    n: int, flavor: Flavor | str, limit: int | None = None
) -> tuple[SignedNcPartition, ...]:
    """All symmetric non-crossing partitions for the flavor, canonically
    ordered; both flavors are counted by comb(2n, n)."""
    _check_size(n, DEFAULT_SIGNED_LIMIT if limit is None else limit, "signed enumeration")
    return _signed_objects(n, _flavor(flavor))


def signed_count(n: int) -> int:
    """comb(2n, n), the common cardinality of both lattices."""
    return comb(2 * n, n)
