"""Alphabets, finite words, and lazy infinite symbolic sequences.

Conventions used throughout the toolkit:

* indexing is 0-based;
* ``segment(x, Segment(i, j))`` is the inclusive slice x(i)x(i+1)...x(j);
* symbols are opaque tokens with printable names (plain strings); binary
  sequences use the names "0" and "1".

A Sequence is an immutable value over a store of symbol codes (one int64
buffer) that grows monotonically in chunks.
Evaluation past the horizon cap (default 10**7 symbols) raises
:class:`HorizonExhausted` instead of blocking forever.
"""

from __future__ import annotations

import itertools
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import ApseqError, HorizonExhausted, SpecError

DEFAULT_HORIZON_CAP = 10**7

_CHUNK = 4096  # the store grows in chunks of this many symbols (a power of two)


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite set of distinct symbols.

    Symbol order is fixed at construction and used for every canonical
    enumeration (factor sets, lexicographic generation policies, ...).
    """

    symbols: tuple

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise SpecError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise SpecError("alphabet symbols must be distinct")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @staticmethod
    def of(*symbols) -> "Alphabet":
        return Alphabet(tuple(str(s) for s in symbols))

    @staticmethod
    def binary() -> "Alphabet":
        return Alphabet(("0", "1"))

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol):
        return symbol in self._index

    def index(self, symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise SpecError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    def word(self, letters) -> "Word":
        """Build a Word from an iterable of symbols, or from a plain string
        when every symbol name is a single character."""
        if isinstance(letters, Word):
            return letters
        if isinstance(letters, str) and all(len(s) == 1 for s in self.symbols):
            letters = tuple(letters)
        return Word(self, tuple(self.index(s) for s in letters))

    @property
    def single_char(self) -> bool:
        return all(len(s) == 1 for s in self.symbols)


@dataclass(frozen=True)
class Word:
    """A finite word over a declared alphabet (possibly empty).

    Letters are stored as indices into the alphabet; ``text`` renders the
    printable form (joined directly for single-character symbol names,
    comma-separated otherwise).
    """

    alphabet: Alphabet
    codes: tuple

    def __post_init__(self):
        if self.codes and not (0 <= min(self.codes) and max(self.codes) < len(self.alphabet)):
            raise SpecError("letter code out of range for alphabet")

    @classmethod
    def _of(cls, alphabet: Alphabet, codes: tuple) -> "Word":
        """A word from codes known to lie in the alphabet: no range check."""
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "codes", codes)
        return w

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word._of(self.alphabet, self.codes[i])
        return self.alphabet.symbols[self.codes[i]]

    def __iter__(self):
        for c in self.codes:
            yield self.alphabet.symbols[c]

    def __add__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise SpecError("cannot concatenate words over different alphabets")
        return Word._of(self.alphabet, self.codes + other.codes)

    def __mul__(self, k: int) -> "Word":
        return Word._of(self.alphabet, self.codes * k)

    def count(self, symbol) -> int:
        return self.codes.count(self.alphabet.index(symbol))

    @property
    def text(self) -> str:
        names = [self.alphabet.symbols[c] for c in self.codes]
        return "".join(names) if self.alphabet.single_char else ",".join(names)

    def __str__(self):
        return self.text

    def complement(self) -> "Word":
        """Bitwise complement; defined for binary alphabets only."""
        if len(self.alphabet) != 2:
            raise SpecError("complement requires a binary alphabet")
        return Word._of(self.alphabet, tuple(1 - c for c in self.codes))

    def factors(self, n: int) -> set:
        """All length-n factors; empty set when n exceeds the word length."""
        if n < 1:
            raise SpecError("factor length must be >= 1")
        return {Word._of(self.alphabet, self.codes[i:i + n])
                for i in range(len(self.codes) - n + 1)}


@dataclass(frozen=True)
class Segment:
    """Inclusive index range [i, j] of a sequence."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < 0 or self.i > self.j:
            raise SpecError(f"segment requires 0 <= i <= j, got [{self.i}, {self.j}]")

    def __len__(self):
        return self.j - self.i + 1


@dataclass(frozen=True)
class Bound:
    """A certified upper bound on the regulator of a sequence.

    ``fn`` is total and monotone with fn(n) >= n (a window shorter than the
    factor cannot contain it); ``provenance`` names the argument that
    produced the formula.  Bounds are metadata asserted by constructors and
    never inferred from data.
    """

    fn: Callable[[int], int]
    provenance: str

    def __call__(self, n: int) -> int:
        if n < 1:
            raise SpecError("bound is defined for factor lengths n >= 1")
        value = int(self.fn(n))
        if value < n:
            raise SpecError(f"bound {self.provenance} returned {value} < n={n}")
        return value


@dataclass(frozen=True)
class Provenance:
    """Construction descriptor: family name plus family-specific parameters."""

    family: str
    params: dict = field(default_factory=dict)

    def __str__(self):
        if not self.params:
            return self.family
        inner = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family} {inner}"


class _Store:
    """A grow-only int64 buffer and the count of codes filled in it (``len``).
    A reader without the lock reads the count first: growing copies the
    filled codes before it swaps the buffer in, so any later buffer holds them."""

    def __init__(self):
        self.data, self.size = np.empty(0, dtype=np.int64), 0

    def __len__(self):
        return self.size

    def reserve(self, n: int):
        if self.data.size < n:
            grown = np.empty(n, dtype=np.int64)
            grown[:self.size] = self.data[:self.size]
            self.data = grown

    def extend(self, codes):
        """Append codes (a list or an integer array) after the filled ones."""
        end = self.size + len(codes)
        self.reserve(end)
        self.data[self.size:end] = codes
        self.size = end


class Sequence:
    """An immutable infinite symbolic stream.

    ``extend`` receives the store (an int64 buffer whose ``len`` is the
    number of codes filled) and a target length, and must append codes
    with ``store.extend(codes)`` until the store reaches at least that
    length; it is called under the sequence lock.  Only :meth:`from_chunks`
    builds one, from a generator that keeps its state in its locals (the
    block products, fixed points, schemes and machine transforms), itself or
    for :meth:`from_index_fn` (a vector oracle: int64 index array -> code
    array; the families computed position by position).  The same index
    always yields the same symbol.  A stream whose generator raised stays
    failed: later reads that need new codes raise the same class again.
    """

    def __init__(self, alphabet: Alphabet, extend, *, bound: Optional[Bound] = None,
                 provenance: Optional[Provenance] = None,
                 horizon_cap: int = DEFAULT_HORIZON_CAP):
        self.alphabet = alphabet
        self._extend = extend
        self.certified_bound = bound
        self.provenance = provenance or Provenance("anonymous")
        self.horizon_cap = horizon_cap
        self._store = _Store()
        self._lock = threading.RLock()

    @staticmethod
    def from_index_fn(alphabet, fn, **kw) -> "Sequence":
        """Sequence from a vector oracle: ``fn`` maps an int64 array
        of indices to the array of their symbol codes (periodic, digit-sum,
        automatic and mechanical words, progression rewrites, pair products).

        The oracle sees consecutive blocks of indices, and must raise an
        :class:`ApseqError` on a block exactly when the block holds a
        failing index.  The longest prefix of a failing block that it
        serves is found by bisection and served, then the first failing
        index is read alone and raises its own error.
        """

        def blocks():
            for start in itertools.count(0, _CHUNK):
                try:
                    yield fn(np.arange(start, start + _CHUNK))
                except ApseqError as fault:
                    served, lo, hi = [], start, start + _CHUNK - 1  # codes of [start, lo)
                    while lo < hi:
                        mid = (lo + hi) // 2
                        try:
                            served, lo = fn(np.arange(start, mid + 1)), mid + 1
                        except ApseqError:
                            hi = mid
                    yield served
                    fn(np.arange(lo, lo + 1))
                    raise fault  # only an oracle that breaks the contract gets here

        return Sequence.from_chunks(alphabet, blocks(), **kw)

    @staticmethod
    def from_chunks(alphabet, chunks: Iterator, **kw) -> "Sequence":
        """Sequence fed by a deterministic iterator of integer arrays or
        symbol-code lists, copied into the store as they are needed.

        Chunks may have any length, empty included; the part of a chunk past
        the requested target waits behind an offset for the next read.  Reads
        past the end of the iterator raise :class:`HorizonExhausted`; an
        exception from the iterator is raised again by every later read that
        needs new codes.
        """
        it = iter(chunks)
        chunk, off, fault = (), 0, None

        def extend(store, target):
            nonlocal chunk, off, fault
            if fault is not None:
                raise fault.with_traceback(None)
            try:
                while len(store) < target:
                    if off == len(chunk):
                        chunk, off = next(it), 0
                        if isinstance(chunk, (list, tuple)) and len(alphabet) <= 256:
                            chunk = np.frombuffer(bytes(chunk), np.uint8)  # 3x numpy's speed
                    end = off + target - len(store)
                    store.extend(chunk[off:end])
                    off = min(end, len(chunk))
            except StopIteration:
                pass
            except BaseException as e:
                fault = e
                raise

        return Sequence(alphabet, extend, **kw)

    # -- evaluation ---------------------------------------------------

    def _fill(self, n: int):
        if n <= self._store.size:
            return
        if n > self.horizon_cap:
            raise HorizonExhausted(
                f"requested {n} symbols of {self.provenance}, cap is {self.horizon_cap}",
                needed=n, cap=self.horizon_cap)
        with self._lock:
            store = self._store
            if n <= store.size:
                return
            target = min(-(-n // _CHUNK) * _CHUNK, self.horizon_cap)
            if store.data.size < target:  # doubling, or the whole target at once
                store.reserve(max(min(2 * store.data.size, self.horizon_cap), target))
            try:
                self._extend(store, target)
            except ApseqError:  # codes made before the fault still serve this read
                if store.size < n:
                    raise
            if store.size < n:
                raise HorizonExhausted(
                    f"{self.provenance} produced only {store.size} symbols",
                    needed=n, cap=self.horizon_cap)

    def _view(self, i: int, j: int) -> np.ndarray:
        """Codes i..j-1 as a read-only view of the store."""
        self._fill(j)
        view = self._store.data[i:j]
        view.flags.writeable = False
        return view

    def code_at(self, i: int) -> int:
        if i < 0:  # the store's capacity past the filled codes is not a sequence position
            raise IndexError(f"negative index {i} into {self.provenance}")
        self._fill(i + 1)
        return int(self._store.data[i])

    def __getitem__(self, i: int) -> str:
        return self.alphabet.symbols[self.code_at(i)]

    def codes(self, n: int) -> list:
        """Fill to at least n symbols and return every filled code as a new
        list (it may be longer than n)."""
        self._fill(n)
        return self._view(0, self._store.size).tolist()

    def prefix_array(self, n: int) -> np.ndarray:
        """The first n symbol codes as a read-only int64 view of the store
        (no copy; it stays valid while the store grows)."""
        return self._view(0, n)

    def chunks(self, start: int = 0) -> Iterator[np.ndarray]:
        """The codes from ``start`` on, as read-only views of at most _CHUNK
        codes; each view asks the stream only for its next code."""
        i = start
        while True:
            self._fill(i + 1)
            view = self._view(i, min(self._store.size, i + _CHUNK))
            i += view.size
            yield view

    # -- word views ---------------------------------------------------

    def prefix(self, n: int) -> Word:
        if n < 0:
            raise SpecError("prefix length must be >= 0")
        return Word(self.alphabet, tuple(self._view(0, n).tolist()))

    def segment(self, seg: Segment) -> Word:
        return Word(self.alphabet, tuple(self._view(seg.i, seg.j + 1).tolist()))

    def with_bound(self, bound: Bound) -> "Sequence":
        """Same stream with a (caller-asserted) certified bound attached."""
        out = shift(self, 0)
        out.certified_bound = bound
        out.provenance = self.provenance
        return out

    def __repr__(self):
        return f"<Sequence {self.provenance}>"


# -- text formats --------------------------------------------------------


def read_records(text: str, headers: dict, arc: Optional[str], error) -> tuple:
    """Parse the line grammar shared by apseq's text formats into
    ``(head, arcs)``.

    Blank lines and ``#`` comment lines are skipped.  A ``key: value`` line
    with a key in ``headers`` sets ``head[key] = headers[key](value)``, or
    for a ``dict`` key adds its ``name = value`` to ``head[key]``.  Any
    other line is an arc of the shape ``arc`` ("q a -> q2", "q a -> w q2",
    or "q d -> q2" with an integer d), kept as its tokens without the
    arrow.  A line that fits neither, or a value that its converter rejects
    with ValueError, raises ``error`` naming the line.
    """
    shape = arc.split() if arc else []
    head, arcs = {}, []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        parts = line.split()
        try:
            if sep and key in headers and headers[key] is dict:
                name, eq, value = value.partition("=")
                if not eq:
                    raise ValueError(value)
                head.setdefault(key, {})[name.strip()] = value.strip()
            elif sep and key in headers:
                head[key] = headers[key](value.strip())
            elif len(parts) == len(shape) and parts[shape.index("->")] == "->":
                arcs.append(tuple(int(p) if s == "d" else p
                                  for s, p in zip(shape, parts) if s != "->"))
            else:
                raise error(f"line {ln}: expected '{arc}', got {raw!r}" if arc
                            else f"line {ln}: unknown header in {raw!r}")
        except ValueError:
            raise error(f"line {ln}: bad value in {raw!r}") from None
    return head, arcs


# -- operations ----------------------------------------------------------


def prefix(x: Sequence, n: int) -> Word:
    """x[0, n-1]; the empty word for n = 0."""
    return x.prefix(n)


def segment(x: Sequence, seg: Segment) -> Word:
    """The inclusive slice x(i)x(i+1)...x(j)."""
    return x.segment(seg)


def factors(source, n: int, horizon: Optional[int] = None) -> set:
    """Length-n factor set of a word, or of a sequence prefix.

    For a sequence the result is the factor set of ``prefix(x, horizon)``:
    a subset of the true factor set, equal to it whenever
    ``horizon >= certified_bound(n) + n``.
    """
    if isinstance(source, Word):
        return source.factors(n)
    if horizon is None:
        raise SpecError("factors over a sequence needs an explicit horizon")
    if horizon < n:
        raise SpecError("horizon must be at least the factor length")
    return source.prefix(horizon).factors(n)


def occurrences(haystack: Word, needle: Word) -> list:
    """Ascending start indices of all (possibly overlapping) occurrences."""
    if len(needle) == 0:
        raise SpecError("needle must be nonempty")
    if needle.alphabet != haystack.alphabet:
        warnings.warn("occurrences: needle alphabet differs from haystack alphabet")
        return []
    h, nd = haystack.codes, needle.codes
    m = len(nd)
    return [i for i in range(len(h) - m + 1) if h[i:i + m] == nd]


def agreement_length(x: Sequence, y: Sequence, horizon: int):
    """First index where x and y disagree, or None when they agree on the
    whole horizon (i.e. the Cantor distance is at most 2**-horizon)."""
    if x.alphabet != y.alphabet:
        raise SpecError("agreement_length requires a common alphabet")
    if x is y:
        return None
    a = x.prefix_array(horizon)
    b = y.prefix_array(horizon)
    diff = np.nonzero(a != b)[0]
    return int(diff[0]) if diff.size else None


def shift(x: Sequence, n: int) -> Sequence:
    """The n-fold left shift: index i maps to x(i + n).

    Any certified bound of x is dropped; a shifted bound is not asserted.
    """
    if n < 0:
        raise SpecError("shift offset must be >= 0")
    return Sequence.from_chunks(x.alphabet, x.chunks(n),
                                provenance=Provenance("shift", {"of": str(x.provenance), "by": n}),
                                horizon_cap=x.horizon_cap - n)
