"""Non-crossing partitions of {1..n}.

Enumeration, the partial orders (reverse refinement, the min/max-capture
order and the interval refinement order), Kreweras complementation, Moebius
values, block nesting and the cut/attach/cyclic-merge surgeries.

All values are immutable after construction and every operation is a pure
function, so everything here can be shared freely between threads.  The
enumeration caches are populated behind ``functools.lru_cache``.  NC(n) is
one generator of canonical block rows (`_nc_iter`), which the CLI streams,
and its table (`_nc_span`), which the transforms read and `enumerate_nc`
wraps in partition objects.  Kreweras complementation, each surgery and
`f_nm` run one core on such rows, which the `lemma210` and `lemma67`
checks walk directly; the public functions check their arguments and, as
the enumerations do, wrap the result with the unchecked `_Value._trusted`.
A partition's block-owner table, `_owner`, is built on its first read.
One stack scan, `is_noncrossing`, tests crossings, and the validating
constructor reads its core; both refuse labels that are not ints, and
every count or index passes `errors._int_in`.

Degenerate case: on a one-point ground set the discrete and the one-block
partition coincide, and all order predicates hold reflexively.
"""

import itertools
import re
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

from .errors import (
    InvalidPartition,
    IsBlockMax,
    LimitExceeded,
    NotComparable,
    NotInner,
    NotLLOne,
    SizeMismatch,
    _int_in,
    _Value,
)

DEFAULT_ENUM_LIMIT = 12
ORACLE_LIMIT = 8

Blocks = tuple[tuple[int, ...], ...]


def catalan(m: int) -> int:
    """The m-th Catalan number, with catalan(0) == 1."""
    return comb(2 * m, m) // (m + 1)


class BlockRole(Enum):
    INNER = "inner"
    OUTER = "outer"


class NcPartition(_Value):
    """A canonical non-crossing set partition of {1..n}.

    Blocks are stored with elements ascending and blocks ordered by their
    minimum, which makes equality, hashing and the serialized forms
    unambiguous.  `_trusted(n, blocks)` takes blocks canonical and non-crossing.
    `block_of` and the order predicates read `_owner`, built on its first read.
    """

    __slots__ = ("n", "blocks", "_owner_table")

    def __init__(self, n: int, blocks) -> None:
        if not _int_in(n, 1):
            raise InvalidPartition(f"ground-set size must be positive, got {n!r}")
        canon = tuple(sorted(tuple(sorted(b)) for b in _int_blocks(blocks)))
        if () in canon:
            raise InvalidPartition("empty block")
        if not _noncrossing(canon, n):
            raise InvalidPartition(f"partition is crossing: {canon}")
        self._fill(n, canon)

    def _fill(self, n: int, blocks: Blocks) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)

    @property
    def _owner(self) -> tuple[int, ...]:
        """Each element's block index, -1 at 0; racing first reads store equal tuples."""
        try:
            return self._owner_table
        except AttributeError:
            owner = [-1] * (self.n + 1)
            for i, b in enumerate(self.blocks):
                for x in b:
                    owner[x] = i
            object.__setattr__(self, "_owner_table", tuple(owner))
            return self._owner_table

    def _key(self):
        return self.n, self.blocks

    def __lt__(self, other):
        return self.blocks < other.blocks

    def __len__(self):
        return len(self.blocks)

    def __repr__(self):
        return f"NcPartition({self.n}, {list(map(list, self.blocks))})"

    def __str__(self):
        return self.to_text()

    def block_of(self, x: int) -> int:
        """Index of the block containing element x."""
        if not _int_in(x, 1, self.n):
            raise InvalidPartition(f"element {x!r} outside 1..{self.n}")
        return self._owner[x]

    def to_text(self) -> str:
        """Canonical text form, e.g. ``{1,5,6}{2,4}{3}``."""
        return "".join(map(_block_text, self.blocks))

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    @classmethod
    def from_json(cls, data) -> "NcPartition":
        try:
            blocks = [tuple(b) for b in data]
            return cls(sum(map(len, blocks)), blocks)
        except (TypeError, ValueError) as exc:
            raise InvalidPartition(f"malformed partition data: {exc!r}") from None

    @classmethod
    def from_text(cls, text: str) -> "NcPartition":
        blocks = _blocks_from_text(text)
        return cls(sum(map(len, blocks)), blocks)


@lru_cache(maxsize=None)
def _block_text(block: tuple[int, ...]) -> str:
    return "{" + ",".join(map(str, block)) + "}"


_PARTITION_TEXT = re.compile(r"(\s*\{\s*-?\d+\s*(,\s*-?\d+\s*)*\})+\s*")


def _blocks_from_text(text: str) -> list[tuple[int, ...]]:
    """The integer blocks of a text form such as ``{1,3}{2}``; anything but
    braced comma-separated integers raises InvalidPartition."""
    if not (isinstance(text, str) and _PARTITION_TEXT.fullmatch(text)):
        raise InvalidPartition(f"cannot parse partition text: {text!r}")
    return [tuple(map(int, p.split(","))) for p in re.findall(r"\{([^}]*)\}", text)]


def zero_partition(n: int) -> NcPartition:
    """0_n, the partition into singletons."""
    return NcPartition(n, [(i,) for i in range(1, n + 1)])


def one_partition(n: int) -> NcPartition:
    """1_n, the one-block partition."""
    return NcPartition(n, [tuple(range(1, n + 1))])


def _int_blocks(blocks) -> list[tuple[int, ...]]:
    """The blocks as tuples; InvalidPartition for a label that is not an int."""
    try:
        blocks = [tuple(b) for b in blocks]
    except TypeError:
        raise InvalidPartition(f"blocks {blocks!r} are not lists of labels") from None
    for b in blocks:
        for x in b:
            if type(x) is not int:
                raise InvalidPartition(f"label {x!r} is not an int")
    return blocks


def is_noncrossing(blocks, n: int | None = None) -> bool:
    """Crossing test for a raw set partition of {1..n}.

    One stack scan over the points: a block is pushed at its first point and
    popped at its last, and the blocks cross exactly when a point that opens
    no block finds another block on top.  Raises InvalidPartition when the
    blocks do not partition the ground set; returns False when they cross.
    """
    blocks = tuple(tuple(sorted(b)) for b in _int_blocks(blocks))
    return _noncrossing(blocks, sum(map(len, blocks)) if n is None else n)


def _noncrossing(blocks: Blocks, n: int) -> bool:
    """is_noncrossing on blocks of int labels, each ascending."""
    elems = sorted(x for b in blocks for x in b)  # counted before 1..n is built
    if not (_int_in(n, 0) and len(elems) == n and elems == list(range(1, n + 1))):
        raise InvalidPartition(f"blocks do not partition 1..{n!r}: {blocks}")
    owner = [()] * (n + 1)
    for b in blocks:
        for x in b:
            owner[x] = b
    stack: list = []
    for x in range(1, n + 1):
        b = owner[x]
        if x == b[0]:
            stack.append(b)
        elif stack[-1] is not b:
            return False
        if x == b[-1]:
            stack.pop()
    return True


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _nc_iter(lo: int, hi: int):
    """All non-crossing partitions of {lo..hi-1}, yielded in canonical order.

    Recursive construction by the block of the minimum element: that block is
    an arbitrary subset containing lo, and the leftover elements fall into
    independent contiguous gaps between its members, each read from the
    cached table of its own span, so no sub-partition is ever shifted.
    Taking the blocks of lo in lexicographic order and each gap's partitions
    in their own order lists the span canonically, with no sort of partitions.
    """
    if lo == hi:  # and no block below
        yield ()
    rest = range(lo + 1, hi)
    for block in sorted((lo, *c) for r in range(hi - lo) for c in itertools.combinations(rest, r)):
        gaps = [_nc_span(a + 1, b) for a, b in zip(block, block[1:] + (hi,)) if b > a + 1]
        for combo in itertools.product(*gaps):
            yield (block,) + sum(combo, ())


@lru_cache(maxsize=None)
def _nc_span(lo: int, hi: int) -> tuple[Blocks, ...]:
    """The table of `_nc_iter(lo, hi)`, through a list: a tuple grown from
    a generator is tracked anew, and rescanned by the collector, per resize."""
    return tuple([*_nc_iter(lo, hi)])


@lru_cache(maxsize=None)
def _nc_objects(n: int) -> tuple[NcPartition, ...]:
    return tuple(NcPartition._trusted(n, blocks) for blocks in _nc_span(1, n + 1))


def _check_size(n: int, limit: int, what: str) -> None:
    """Refuse an n that is not an int from 1 to the limit, or a limit not an int from 0."""
    if not _int_in(n, 1):
        raise InvalidPartition(f"n must be positive, got {n!r}")
    if not _int_in(limit, 0):
        raise InvalidPartition(f"{what} limit must be a non-negative int, got {limit!r}")
    if n > limit:
        raise LimitExceeded(f"n={n} above {what} limit {limit}")


def _nc_rows(n: int):
    """The rows of enumerate_nc(n) one at a time; its default limit is checked first."""
    _check_size(n, DEFAULT_ENUM_LIMIT, "enumeration")
    return _nc_iter(1, n + 1)


def enumerate_nc(n: int, limit: int | None = None) -> tuple[NcPartition, ...]:
    """All of NC(n) in lexicographic order on the canonical form."""
    _check_size(n, DEFAULT_ENUM_LIMIT if limit is None else limit, "enumeration")
    return _nc_objects(n)


@lru_cache(maxsize=None)
def _interval_range(m: int) -> tuple[Blocks, ...]:
    """All interval partitions of {0..m-1}, 0-based, sorted canonically: one
    per subset of the m-1 gaps at which a new block starts."""
    out = []
    for mask in range(1 << (m - 1)):
        starts = [0] + [x for x in range(1, m) if mask >> (x - 1) & 1] + [m]
        out.append(tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:])))
    return tuple(sorted(out))


def interval_partitions(n: int, limit: int | None = None) -> tuple[NcPartition, ...]:
    """All interval partitions of {1..n} (one per composition of n)."""
    _check_size(n, DEFAULT_ENUM_LIMIT if limit is None else limit, "enumeration")
    return tuple(
        NcPartition._trusted(n, tuple(tuple(x + 1 for x in b) for b in blocks))
        for blocks in _interval_range(n)
    )


def is_interval(pi: NcPartition) -> bool:
    """True iff every block is a set of consecutive integers."""
    return all(b[-1] - b[0] + 1 == len(b) for b in pi.blocks)


# ---------------------------------------------------------------------------
# Partial orders
# ---------------------------------------------------------------------------

def _require_same_n(pi: NcPartition, rho: NcPartition) -> None:
    if pi.n != rho.n:
        raise SizeMismatch(f"ground sets differ: {pi.n} vs {rho.n}")


def leq(pi: NcPartition, rho: NcPartition) -> bool:
    """Reverse refinement: every block of rho is a union of blocks of pi."""
    _require_same_n(pi, rho)
    owner = rho._owner
    for b in pi.blocks:
        r = owner[b[0]]
        for x in b[1:]:
            if owner[x] != r:
                return False
    return True


def ll(pi: NcPartition, rho: NcPartition) -> bool:
    """pi << rho: pi <= rho and each block of rho has its min and max inside
    one block of pi."""
    if not leq(pi, rho):
        return False
    owner = pi._owner
    return all(owner[b[0]] == owner[b[-1]] for b in rho.blocks)


def sqsubseteq(pi: NcPartition, rho: NcPartition) -> bool:
    """Interval refinement: pi <= rho and pi induces an interval partition on
    every block of rho (with respect to the order induced on that block)."""
    if not leq(pi, rho):
        return False
    owner = pi._owner
    for b in rho.blocks:
        prev = None
        seen = set()
        for x in b:
            cur = owner[x]
            if cur != prev:
                if cur in seen:
                    return False
                seen.add(cur)
            prev = cur
    return True


def ll_one(pi: NcPartition) -> bool:
    """pi << 1_n, i.e. pi has a unique outer block containing both 1 and n."""
    return pi.blocks[0][-1] == pi.n


def enumerate_ll_below(rho: NcPartition) -> tuple[NcPartition, ...]:
    """All pi with pi << rho."""
    return tuple(p for p in enumerate_nc(rho.n) if ll(p, rho))


# ---------------------------------------------------------------------------
# Kreweras complementation and Moebius values
# ---------------------------------------------------------------------------

def _kreweras(blocks: Blocks, n: int) -> Blocks:
    """Kreweras complement of canonical rows on {lo..lo+n-1}, lo = blocks[0][0].

    Each block, traversed increasingly, is a cycle of a permutation p; the
    complement is the cycle structure of x -> p^{-1}(x+1), with lo after the
    last point.  Each cycle, opened at its least point, runs increasingly, so
    opening them in increasing order lists the blocks canonically."""
    lo = blocks[0][0]
    hi = lo + n
    pinv = [0] * (hi + 1)
    for b in blocks:
        pinv[b[0]] = b[-1]
        for a, c in zip(b, b[1:]):
            pinv[c] = a
    pinv[hi] = pinv[lo]
    seen = [False] * hi
    out = []
    for start in range(lo, hi):
        if seen[start]:
            continue
        cyc, x = [], start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = pinv[x + 1]
        out.append(tuple(cyc))
    return tuple(out)


def kreweras(pi: NcPartition) -> NcPartition:
    """The Kreweras complement K_n(pi).

    K_n(pi) is the largest sigma, in reverse refinement, for which placing pi
    on the odd points and sigma on the even points of {1..2n} stays
    non-crossing.
    """
    return NcPartition._trusted(pi.n, _kreweras(pi.blocks, pi.n))


def _moebius_int(blocks: Blocks, n: int) -> int:
    return (-1) ** (len(blocks) - 1) * prod(catalan(len(b) - 1) for b in _kreweras(blocks, n))


def moebius_to_one(pi: NcPartition) -> Fraction:
    """Moeb_n(pi, 1_n) as a signed product of Catalan numbers over the
    Kreweras complement."""
    return Fraction(_moebius_int(pi.blocks, pi.n))


@lru_cache(maxsize=32)
def _moebius_column(rho: NcPartition) -> dict[NcPartition, Fraction]:
    """Moeb(tau, rho) for every tau <= rho, by inverting the zeta function:
    process coarsest-first and use sum over tau <= sigma <= rho of
    Moeb(sigma, rho) == [tau == rho]."""
    lower = [t for t in enumerate_nc(rho.n) if leq(t, rho)]
    lower.sort(key=lambda t: len(t.blocks))
    values: dict[NcPartition, Fraction] = {}
    for t in lower:
        if t == rho:
            values[t] = Fraction(1)
        else:
            acc = Fraction(0)
            for s, v in values.items():
                if leq(t, s):
                    acc += v
            values[t] = -acc
    return values


def moebius_oracle(pi: NcPartition, rho: NcPartition, limit: int = ORACLE_LIMIT) -> Fraction:
    """Moebius value on [pi, rho] by recursive zeta inversion.

    Test oracle only: enumerates everything below rho, so it is restricted
    to small n.
    """
    _require_same_n(pi, rho)
    if not _int_in(limit, 0):
        raise InvalidPartition(f"oracle limit must be a non-negative int, got {limit!r}")
    if pi.n > limit:
        raise LimitExceeded(f"oracle limited to n <= {limit}")
    if not leq(pi, rho):
        raise NotComparable(f"{pi} is not <= {rho}")
    return _moebius_column(rho)[pi]


# ---------------------------------------------------------------------------
# Block nesting
# ---------------------------------------------------------------------------

def _nests(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    return outer[0] < inner[0] and inner[-1] < outer[-1]


def block_roles(pi: NcPartition) -> dict[int, BlockRole]:
    """Role of each block: INNER when some block nests it, OUTER otherwise."""
    outer = set(_outer(pi.blocks))
    return {i: BlockRole.OUTER if i in outer else BlockRole.INNER for i in range(len(pi))}


def outer_blocks(pi: NcPartition) -> tuple[int, ...]:
    """Indices of the outer blocks."""
    return _outer(pi.blocks)


def _outer(blocks: Blocks) -> tuple[int, ...]:
    """Indices of the outer blocks of canonical non-crossing blocks on {1..n}:
    a block is nested exactly when an earlier one closes after it opens."""
    out, reach = [], 0
    for i, b in enumerate(blocks):
        if b[0] > reach:
            out.append(i)
        reach = max(reach, b[-1])
    return tuple(out)


def _parent(blocks: Blocks, idx: int) -> int | None:
    """Index of the parent-block of block idx in canonical rows, None when it
    is outer: the nesting blocks form a chain, and it opens latest."""
    b = blocks[idx]
    for j in range(idx - 1, -1, -1):
        if _nests(blocks[j], b):
            return j
    return None


def parent_block(pi: NcPartition, block_index: int) -> int:
    """Index of the parent-block: the minimal block nesting the given one;
    NotInner when the block is outer."""
    if not _int_in(block_index, -len(pi), len(pi) - 1):  # negative counts from the end
        raise InvalidPartition(f"block index {block_index!r} outside {-len(pi)}..{len(pi) - 1}")
    parent = _parent(pi.blocks, block_index % len(pi))
    if parent is None:
        raise NotInner(f"block {pi.blocks[block_index]} is outer in {pi}")
    return parent


# ---------------------------------------------------------------------------
# Cut / attach surgeries
# ---------------------------------------------------------------------------

def _cut(blocks: Blocks, idx: int, i: int) -> Blocks:
    """Canonical rows with block idx split into its parts up to i and after i."""
    p = blocks[idx]
    k = p.index(i) + 1
    return tuple(sorted(blocks[:idx] + (p[:k], p[k:]) + blocks[idx + 1:]))


def _attach(blocks: Blocks, idx: int, parent: int) -> Blocks:
    """Canonical rows with block idx merged into the earlier block parent."""
    merged = tuple(sorted(blocks[parent] + blocks[idx]))
    return blocks[:parent] + (merged,) + blocks[parent + 1:idx] + blocks[idx + 1:]


def cut(pi: NcPartition, i: int) -> NcPartition:
    """Split the inner block containing i into its parts up to i and after i."""
    idx = pi.block_of(i)
    parent_block(pi, idx)  # NotInner when the block is outer
    if i == pi.blocks[idx][-1]:
        raise IsBlockMax(f"{i} is the maximum of its block {pi.blocks[idx]}")
    return NcPartition._trusted(pi.n, _cut(pi.blocks, idx, i))


def attach(pi: NcPartition, i: int) -> NcPartition:
    """Merge the inner block containing i into its parent-block."""
    idx = pi.block_of(i)
    return NcPartition._trusted(pi.n, _attach(pi.blocks, idx, parent_block(pi, idx)))


# ---------------------------------------------------------------------------
# The cyclic translate-and-merge bijection {rho << 1_{n+1}} -> NC(n)
# ---------------------------------------------------------------------------

def f_nm(rho: NcPartition, m: int) -> NcPartition:
    """Forward cyclic translation by m followed by merging m with m+1.

    Sends a partition of {1..n+1} with unique outer block containing 1 and
    n+1 to a partition of {1..n}; a bijection, inverted by f_nm_inverse.
    """
    n = rho.n - 1
    if not _int_in(m, 1, n):
        raise InvalidPartition(f"m={m!r} outside 1..{n}")
    if not ll_one(rho):
        raise NotLLOne(f"{rho} is not << 1_{rho.n}")
    return NcPartition._trusted(n, tuple(sorted(_f_nm(rho.blocks, n, m))))


def _f_nm(blocks: Blocks, n: int, m: int) -> Blocks:
    """f_nm on rows with 1 and n+1 in the first block, each image block
    ascending, in the given order: translating by m and merging m with m + 1
    drops 1 and sends every other k to (m + k - 2) mod n + 1."""
    return tuple(tuple(sorted((m + k - 2) % n + 1 for k in b if k != 1)) for b in blocks)


def f_nm_inverse(pi: NcPartition, m: int) -> NcPartition:
    """Inverse of f_nm: reopen the merged point and translate back."""
    n = pi.n
    if not _int_in(m, 1, n):
        raise InvalidPartition(f"m={m!r} outside 1..{n}")
    # f_nm's map inverted sends each k to (k - m - 1) mod n + 2, m to n + 1,
    # and the reopened point 1 joins m's block, so the image is << 1_{n+1}
    blocks = (((1,) if m in b else ()) + tuple(sorted((k - m - 1) % n + 2 for k in b))
              for b in pi.blocks)
    return NcPartition._trusted(n + 1, tuple(sorted(blocks)))
