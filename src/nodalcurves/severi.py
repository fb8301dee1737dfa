"""Generalized Severi degrees of the plane via the Caporaso-Harris recursion.

N(d, delta; alpha, beta) is the number of reduced (possibly reducible)
plane curves of degree d with delta nodes, not containing a fixed line L,
with prescribed contact to L: alpha[m] branches of contact order m at
assigned points of L and beta[m] at unassigned points, passing through the
appropriate number of general points.  Admissibility demands
I(alpha) + I(beta) = d, where I is the multiplicity-weighted size.
Contact orders are counted branch by branch on the normalization, so e.g. a
node lying on L contributes two order-one contacts, not one of order two.

The recursion has two groups of terms:

  N(d, delta; alpha, beta)
    = sum_{m: beta[m] > 0} m * N(d, delta; alpha + e_m, beta - e_m)
    + sum_{alpha' <= alpha, beta' >= beta, I(alpha') + I(beta') = d - 1}
        prod_m m^(beta'[m] - beta[m])
        * binom(alpha, alpha') * binom(beta', beta)
        * N(d - 1, delta'; alpha', beta')

with delta' = delta + |beta' - beta| - (d - 1); terms with delta' < 0 are
dropped.  The base case is degree one: 1 when delta = 0, else 0.  Writing
E for the excess sum_parts (m - 1) of beta' - beta, one has
delta' = delta - I(alpha') - I(beta) - E, which both proves that the
cogenus never increases and prunes the enumeration: only alpha' and new
contact multisets of total excess at most delta - I(alpha') - I(beta) can
contribute.

Evaluation is memoized in a SeveriTable.  Inside the recursion a tangency
profile is a small int id, given once per process by a module-level intern
table, and the memo is keyed by one int packing (alpha id, beta id); the
degree is implied, d = I(alpha) + I(beta).  Per-id tables hold each
profile's weight, excess, canonical text and +e_m neighbours, so the hot
loop hashes and stores plain ints.  The recursion is linear in the cogenus
prefixes delta = 0..K of a pair, and each term only shifts delta, so the
memo keeps each pair's prefix as one int of fixed-width slots (Kronecker
substitution): a term is one bigint multiply, shift and add.  Each pair is
built once per request, at the longest prefix the request can ask of it,
k0 - E(alpha) - E(beta) with E the excess sum_m (m - 1) * count and k0 the
requested delta plus the requested pair's E.  A value is 0 once
delta + E(alpha) + E(beta) exceeds d(d - 1)/2, so a request above that
bound is answered 0 without building, and k0 never exceeds it.  The slot
width starts at _WIDTH bits and is widened, with every pair repacked,
before any slot could carry into the next, which slot sums rule out
exactly.  Every profile is 1^t + c for a core c without contacts of
order one, and each core keeps a chain, the ids of 1^t + c for
t = 0, 1, 2, ..., extended on demand.  The sub-profile and new-contact
term tables are memoized per id and read their ids off the chains, by
link index, with the core-only parts of each term memoized per core; each
table for cap or slack s is the one for s - 1 plus the terms at exactly
s, so every term is built once.  A promotion moves one contact from beta
to alpha, so the pairs of one union U = alpha + beta form a family, all
built at one K = k0 - E(U): a box over alpha's counts, in which a
promotion is a fixed step of the index, laid out as the chains of the
cores below U's core, cut at U's count of ones.  A request builds its own
family from the requested pair up, and below it, degree by degree, every
family the degree above can reach, whole, unless the table already holds
every member as long as the degree above can ask.  The families are
built bottom-up by degree, each box from its top member (U, -) down, with
each member's value and exact slot sum in lists local to the family: a
promotion term is two list reads, only degree-drop terms read the memo,
and a member the table holds at K is read as it is.  SeveriKey,
the cache text and the error messages translate at the table's boundary.
Values are arbitrary-precision integers and a pair's slots are
write-once: a pair rebuilt longer must keep them.  A table and the intern
tables belong to one thread: no thread lock is taken, and the one lock,
save's flock on the cache file, keeps saves of separate runs apart.
"""

from __future__ import annotations

import fcntl
import itertools
import math
import os
import re
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .record import Record
from .series import PowerSeries

CACHE_FORMAT_VERSION = "severi-cache-1"
_CACHE_HEADER = f'{{"format": "{CACHE_FORMAT_VERSION}"}}'  # a cache file's first line
_HEADER_LINE = f"{_CACHE_HEADER}\n".encode("ascii")


class ProfileWeightMismatchError(ValueError):
    """The tangency profiles do not add up to the degree."""


class AmplenessThresholdError(ValueError):
    """A requested coefficient violates the proven ampleness bound d >= r."""


# ----------------------------------------------------------------------
# tangency profiles
# A profile is a tuple of (m, count) pairs, multiplicities ascending and counts
# positive.  TangencyProfile validates them at the API and cache boundary and
# delegates to the functions below; _plus is the one function that makes a
# canonical profile.  The recursion never sees the pairs: _intern gives each
# distinct profile an int id, once per process, and the per-id lists below
# hold what the recursion reads.  A memo key packs (alpha id, beta id) into
# one int, and a cache line's key adds delta above them, so a few hundred
# profiles serve tens of thousands of values and every memo probe hashes a
# plain int.


def _plus(pairs, other):
    """pairs + other, counts added by multiplicity; other's counts may be negative."""
    counts = dict(pairs)
    for m, c in other:
        counts[m] = counts.get(m, 0) + c
    return tuple(sorted((m, c) for m, c in counts.items() if c != 0))


def _sub_profiles(pairs, cap: int) -> list:
    """Every (sub, I(sub), prod_m binom(pairs[m], sub[m])) with sub <= pairs
    and I(sub) <= cap, in canonical order."""
    if cap < 0:
        return []
    subs = [((), 0, 1)]
    for m, c in pairs:
        subs = [
            (sub + ((m, take),) if take else sub, w + m * take, b * math.comb(c, take))
            for sub, w, b in subs
            for take in range(min(c, (cap - w) // m) + 1)
        ]
    return subs


def _tokens(pairs) -> str:
    return " ".join(f"{m}^{c}" for m, c in pairs) if pairs else "-"


_CONTACT_TOKEN = re.compile(r"([0-9]+)(?:\^([0-9]+))?")  # m, or m^c for c contacts of order m


_ID_BITS = 24
_ID_MASK = (1 << _ID_BITS) - 1
_DELTA_SHIFT = 2 * _ID_BITS
_PAIR_MASK = (1 << _DELTA_SHIFT) - 1

_ids: dict[tuple, int] = {}  # pairs -> id
_pairs: list[tuple] = []  # id -> pairs
_weight: list[int] = []  # id -> I(pairs)
_excess: list[int] = []  # id -> E(pairs) = sum_m (m - 1) * pairs[m]
_text: list[str] = []  # id -> canonical tokens
_up: list[dict] = []  # id -> {m: id of pairs + e_m}, filled on demand


def _intern(pairs) -> int:
    """The id of a canonical profile, assigned on first sight."""
    pid = _ids.get(pairs)
    if pid is None:
        pid = len(_pairs)
        if pid > _ID_MASK:
            raise OverflowError("more tangency profiles than a memo key can pack")
        _ids[pairs] = pid
        _pairs.append(pairs)
        _weight.append(sum(m * c for m, c in pairs))
        _excess.append(sum((m - 1) * c for m, c in pairs))
        _text.append(_tokens(pairs))
        _up.append({})
    return pid


def _raised(pid: int, m: int) -> int:
    """The id of profile pid + e_m."""
    up = _up[pid]
    raised = up.get(m)
    if raised is None:
        raised = up[m] = _intern(_plus(_pairs[pid], ((m, 1),)))
    return raised


_chains: dict[int, list] = {}  # core id -> [id of 1^t + core for t = 0, 1, ...]


def _split(pid: int) -> tuple[int, int]:
    """(t, core id) for profile pid = 1^t + core, the core without contacts of order one."""
    pairs = _pairs[pid]
    if pairs and pairs[0][0] == 1:
        return pairs[0][1], _intern(pairs[1:])
    return 0, pid


def _chain(core: int, n: int) -> list:
    """The ids of 1^t + core for t = 0..n at least, extended on demand."""
    chain = _chains.get(core)
    if chain is None:
        chain = _chains[core] = [core]
    while len(chain) <= n:
        chain.append(_raised(chain[-1], 1))
    return chain


class TangencyProfile(Record):
    """A finite multiset of contact multiplicities, stored as (m, count) pairs.

    Pairs are kept with multiplicities ascending and counts positive, so the
    representation is canonical and profiles can key dictionaries.
    """

    __slots__ = _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...] = ()):
        self._set(pairs)
        last = 0
        for m, c in self.pairs:
            if m <= last:
                raise ProfileWeightMismatchError("multiplicities must be ascending and >= 1")
            if c <= 0:
                raise ProfileWeightMismatchError("zero counts are never stored")
            last = m

    @staticmethod
    def empty() -> TangencyProfile:
        return _EMPTY_PROFILE

    @staticmethod
    def simple(n: int) -> TangencyProfile:
        """n transverse contacts: the profile {1: n}."""
        if n < 0:
            raise ProfileWeightMismatchError("negative count")
        return TangencyProfile(((1, n),)) if n else _EMPTY_PROFILE

    @staticmethod
    def of(counts: dict[int, int]) -> TangencyProfile:
        return TangencyProfile(_plus((), tuple(counts.items())))

    @property
    def weight(self) -> int:
        """I: the multiplicity-weighted total."""
        return sum(m * c for m, c in self.pairs)

    @property
    def size(self) -> int:
        """The number of contacts, all multiplicities together."""
        return sum(c for _, c in self.pairs)

    def count(self, m: int) -> int:
        for mm, c in self.pairs:
            if mm == m:
                return c
        return 0

    def add(self, m: int, k: int = 1) -> TangencyProfile:
        return TangencyProfile(_plus(self.pairs, ((m, k),)))

    def remove(self, m: int, k: int = 1) -> TangencyProfile:
        if self.count(m) < k:
            raise ProfileWeightMismatchError(f"cannot remove {k} contacts of order {m}")
        return self.add(m, -k)

    def sub_profiles(self, max_weight: int | None = None):
        """All profiles <= self, optionally with weight capped; canonical order."""
        cap = self.weight if max_weight is None else max_weight
        for sub, _, _ in _sub_profiles(self.pairs, cap):
            yield TangencyProfile(sub)

    def tokens(self) -> str:
        return _tokens(self.pairs)

    @staticmethod
    def parse(text: str) -> TangencyProfile:
        text = text.strip()
        if text in ("", "-"):
            return _EMPTY_PROFILE
        parsed = []
        for token in text.replace(",", " ").split():
            match = _CONTACT_TOKEN.fullmatch(token)
            m, c = (int(match[1]), int(match[2] or 1)) if match else (0, 0)
            if m < 1 or c < 1:
                raise ValueError(f"contact token {token!r} is not m or m^c with m, c >= 1")
            parsed.append((m, c))
        return TangencyProfile(_plus((), tuple(parsed)))


_EMPTY_PROFILE = TangencyProfile(())


# ----------------------------------------------------------------------
# keys and the memo table
# ----------------------------------------------------------------------


class SeveriKey(Record):
    __slots__ = _fields = ("d", "delta", "alpha", "beta")

    def __init__(self, d: int, delta: int, alpha: TangencyProfile, beta: TangencyProfile):
        self._set(d, delta, alpha, beta)
        if self.d < 1:
            raise ProfileWeightMismatchError("degree must be positive")
        if self.alpha.weight + self.beta.weight != self.d:
            raise ProfileWeightMismatchError(
                f"profile weight mismatch: I(alpha) + I(beta) = "
                f"{self.alpha.weight + self.beta.weight} but d = {self.d}"
            )

    @staticmethod
    def plain(d: int, delta: int) -> SeveriKey:
        return SeveriKey(d, delta, TangencyProfile.empty(), TangencyProfile.simple(d))

    def canonical(self) -> str:
        return _canonical(_flat(self))


def _flat(key: SeveriKey) -> int:
    """The int (delta, alpha id, beta id) a cache line's key packs into; its
    low _DELTA_SHIFT bits are the pair id the memo is keyed by."""
    return (
        key.delta << _DELTA_SHIFT
        | _intern(key.alpha.pairs) << _ID_BITS
        | _intern(key.beta.pairs)
    )


def _canonical(flat: int) -> str:
    alpha, beta = (flat >> _ID_BITS) & _ID_MASK, flat & _ID_MASK
    d = _weight[alpha] + _weight[beta]
    return f"{d}:{flat >> _DELTA_SHIFT}:{_text[alpha]}|{_text[beta]}"


# a cache line exactly as save writes it: d, delta, alpha text, beta text, value;
# numbers without sign or leading zeros, since a Severi degree is a count.
# Anchored at line ends (re.M) and kept off newlines, so one findall over a
# block of lines matches each line whole or not at all.
_CACHE_LINE = re.compile(
    r'^\{"key": "([1-9][0-9]*):(0|[1-9][0-9]*):([^"|\\\n]*)\|([^"|\\\n]*)", '
    r'"value": "(0|[1-9][0-9]*)"\}$',
    re.M,
)
_CHUNK = 1 << 15  # bytes a cache read takes at a time
_text_ids: dict[str, int] = {}  # canonical profile text -> id, filled by cache loads


def _profile_id(text: str) -> int:
    """The id of the profile a cache line spells text; only the canonical spelling."""
    pid = _text_ids.get(text)
    if pid is None:
        pid = _intern(TangencyProfile.parse(text).pairs)
        if _text[pid] != text:
            raise ValueError(f"profile {text!r} is not written as {_text[pid]!r}")
        _text_ids[text] = pid
    return pid


def _check_header(path, line: bytes):
    """Raise ValueError naming the file unless line is the header line save writes, to the byte."""
    if line != _HEADER_LINE:
        raise ValueError(f"cache file {path} does not start with the header {_CACHE_HEADER}")


def _complete_length(fh) -> int:
    """Bytes of a binary file up to and including its last newline."""
    end = fh.seek(0, os.SEEK_END)
    while end:
        start = max(0, end - 4096)
        fh.seek(start)
        chunk = fh.read(end - start)
        if b"\n" in chunk:
            return start + chunk.rindex(b"\n") + 1
        end = start
    return 0


def _blocks(fh):
    """The complete lines of a binary file from its position on, in blocks of
    about _CHUNK bytes that each end at a newline; a last line without its
    newline is a torn append and is not given."""
    rest = b""
    while chunk := fh.read(_CHUNK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield rest + chunk[:cut]
            rest = chunk[cut:]
        else:
            rest += chunk


def _row_ids(path, row) -> tuple[int, int]:
    """The profile ids of a cache line's fields; ValueError naming the file
    and the line unless both are canonical profile text and d = I(alpha) +
    I(beta)."""
    d, _, alpha, beta, _ = row
    try:
        a, b = _profile_id(alpha), _profile_id(beta)
        if int(d) != _weight[a] + _weight[b]:
            raise ProfileWeightMismatchError("I(alpha) + I(beta) is not d")
    except ValueError as exc:
        line = '{"key": "%s:%s:%s|%s", "value": "%s"}' % row
        raise ValueError(f"cache file {path} has a malformed line {line!r}") from exc
    return a, b


_WIDTH = 64  # bits per slot of a new table; a multiple of 8


def _width_for(total: int) -> int:
    """The fewest bits, a multiple of 32, whose slot modulus 2^B - 1 exceeds total."""
    return -(-(total + 1).bit_length() // 32) * 32


class SeveriTable:
    """Write-once memo table, owned by one thread.

    The memo maps a pair id (alpha id << _ID_BITS | beta id) to one int that
    packs N(d, delta; alpha, beta) for delta = 0..K into B-bit slots, slot
    delta at bit B * delta, with a sentinel bit at B * (K + 1); a pair with
    no slots would pack as 1.  Every pair's slot sum stays below 2^B - 1, so
    no slot carries into the next and a masked prefix v has slot sum
    v % (2^B - 1).  The public methods take SeveriKey.  hits and misses
    count top-level queries: a hit is a query answered without computation,
    from the table or as 0 above the node bound (see severi_relative), a
    miss one that triggered computation.  len() counts slots, one per
    (d, delta, alpha, beta) value, as the cache counts lines.
    """

    def __init__(self):
        self._packed: dict[int, int] = {}
        self._width = _WIDTH
        self._slots = 0
        # pairs are never removed, so the ones already on disk are the first
        # _saved in insertion order; a pair of those rebuilt longer since
        # maps to the last slot the file holds in _grown
        self._saved = 0
        self._grown: dict[int, int] = {}
        # lines the file holds past a gap in their pair's prefix: key -> value
        self._held: dict[int, int] = {}
        # union -> K of each promotion family this table built or found held
        # whole at slots 0..K; _plan skips those without laying them out
        self._whole: dict[int, int] = {}
        # the cache file's complete length as this table last read or wrote it
        self._length = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return self._slots

    def stats(self) -> dict:
        return {"entries": self._slots, "hits": self.hits, "misses": self.misses}

    def plain_prefix(self, d: int, top: int) -> tuple[int, ...] | None:
        """N(d, delta) for delta = 0..top as the memo holds them, or None if
        it holds the plain pair (-, 1^d) shorter or not at all.  Unlike
        severi, the read builds nothing and counts no hit."""
        empty, simple = _ids.get(()), _ids.get(((1, d),))
        if empty is None or simple is None:
            return None
        width = self._width
        value = self._packed.get(empty << _ID_BITS | simple, 0)
        if not value >> width * (top + 1):
            return None
        mask = (1 << width) - 1
        return tuple(value >> width * delta & mask for delta in range(top + 1))

    def _widen(self, width: int):
        """Repack every pair into slots of width bits."""
        step = self._width // 8  # bytes per slot now
        pad = bytes(width // 8 - step)
        packed = self._packed
        for pair, value in packed.items():
            size = -(-value.bit_length() // (8 * step)) * step  # the sentinel's slot included
            data = value.to_bytes(size, "little")
            spread = b"".join(data[i : i + step] + pad for i in range(0, size, step))
            packed[pair] = int.from_bytes(spread, "little")
        self._width = width

    # -- optional append-only disk cache --------------------------------

    @staticmethod
    def load(path) -> SeveriTable:
        """Load a cache file; a missing file gives an empty table.

        The file is read in blocks of about _CHUNK bytes.  The header and
        every line load only in the exact form save writes, canonical key
        text included; any other complete line, an empty one, one ending in
        a carriage return or another format version in the header among
        them, raises ValueError naming the file, and one key with two values
        raises AssertionError.  A last line without its newline is a torn
        append and is ignored."""
        table = SeveriTable()
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return table
        with fh:
            blocks = _blocks(fh)
            first = next(blocks, b"")
            if first:
                end = first.index(b"\n") + 1
                _check_header(path, first[:end])
                rest = itertools.chain((first[end:],), blocks)
                table._length = end + table._read(path, rest)
        table._saved = len(table._packed)
        return table

    def _read(self, path, blocks) -> int:
        """Pack the cache lines of blocks into this empty table; the bytes read.

        Each block is matched by one findall, and line by line only when a
        line in it fails, so the first bad line in file order is the one
        named.  A line that extends its pair's prefix by one slot is packed
        as it is read; any other (a delta of 10 or more, whose key text sorts
        before 2, a repeat or a gap) is set aside and merged in delta order
        at the end.  A pair keeps the longest prefix its lines give, and the
        lines past a gap are held, so a save never writes their keys again."""
        packed = self._packed
        get = packed.get
        text_ids, weight = _text_ids, _weight
        width = self._width
        limit = (1 << width) - 1
        read = top = slots = 0  # bytes read, the largest value, the slots packed
        aside = []
        for block in blocks:
            read += len(block)
            # a byte outside ASCII reads as its \x escape, which no line as save
            # writes it holds, so it fails as a malformed line
            text = block.decode("ascii", "backslashreplace")
            rows = _CACHE_LINE.findall(text)
            bad = None
            if len(rows) != text.count("\n"):
                rows = []
                for line in text[:-1].split("\n"):
                    found = _CACHE_LINE.fullmatch(line)
                    if found is None:
                        bad = line
                        break
                    rows.append(found.groups())
            for row in rows:
                d, delta, alpha, beta, value = row
                a, b = text_ids.get(alpha), text_ids.get(beta)
                if a is None or b is None or int(d) != weight[a] + weight[b]:
                    a, b = _row_ids(path, row)
                pair, shift, value = a << _ID_BITS | b, width * int(delta), int(value)
                if value > top:
                    top = value
                    if top >= limit:
                        self._widen(_width_for(top))
                        width, limit = self._width, (1 << self._width) - 1
                        shift = width * int(delta)
                old = get(pair, 1)
                if old >> shift == 1:  # the sentinel sits in this line's slot
                    packed[pair] = old + ((value + limit) << shift)
                    slots += 1
                else:
                    aside.append((int(delta), pair, value))
            if bad is not None:
                raise ValueError(f"cache file {path} has a malformed line {bad!r}")
        for delta, pair, value in sorted(aside):
            old = get(pair, 1)
            shifted = old >> width * delta
            if shifted == 1:
                packed[pair] = old + ((value + limit) << width * delta)
                slots += 1
                continue
            flat = delta << _DELTA_SHIFT | pair
            # a repeat of a slot, or a line past a gap
            there = shifted & limit if shifted else self._held.setdefault(flat, value)
            if there != value:
                raise AssertionError(f"cache file {path} holds two values for {_canonical(flat)}")
        # a pair holds at most K + 1 slots of at most top each, so this bounds
        # every slot sum
        longest = max(map(int.bit_length, packed.values()), default=1) - 1
        if (longest // width) * top >= limit:
            self._widen(_width_for((longest // width) * top))
        self._slots = slots
        return read

    def _items(self):
        """(cache-line key, value) for every slot, pair by pair in table order."""
        width = self._width
        mask = (1 << width) - 1
        for pair, value in self._packed.items():
            for delta in range((value.bit_length() - 1) // width):
                yield delta << _DELTA_SHIFT | pair, value & mask
                value >>= width

    def _lines(self, d: int, pairs, grown: dict, held: dict) -> str:
        """The cache lines, in key text order, of the slots of degree-d pairs
        that the file lacks: all of a pair's slots, or those past the last
        one grown names for it, less the keys held names."""
        width = self._width
        mask = (1 << width) - 1
        packed = self._packed
        lines = []
        for pair in pairs:
            start = grown.get(pair, -1) + 1
            value = packed[pair] >> width * start
            tokens = f"{_text[pair >> _ID_BITS]}|{_text[pair & _ID_MASK]}"
            for delta in range(start, (value.bit_length() - 1) // width + start):
                if not held or delta << _DELTA_SHIFT | pair not in held:
                    # key text is digits and ":|^ -", which JSON writes as is
                    lines.append(f'{{"key": "{d}:{delta}:{tokens}", "value": "{value & mask}"}}\n')
                value >>= width
        # the key text leads each line, and no key text is a prefix of another
        lines.sort()
        return "".join(lines)

    def save(self, path):
        """Append the slots the file lacks; writes the header on a fresh file.

        Saves to one path take turns: each holds an exclusive POSIX flock on
        the file from reading its header to its last append.  A torn last
        line is cut off first; a file whose header is torn is started
        afresh; any other header raises ValueError naming the file.  If the
        file changed since this table last read or wrote it, the lines other
        runs appended (all lines, if it shrank) are read first: their keys
        are skipped, and one holding another value than this table raises
        AssertionError before anything is written.  Lines are appended in
        key text order, each line built once."""
        packed = self._packed
        with open(path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes, after the flush
            fh.seek(0)
            first = fh.readline()
            complete = _complete_length(fh)
            if complete:
                _check_header(path, first)
            fh.truncate(complete)
            held = self._held if complete else {}
            if not complete:
                fh.write(_HEADER_LINE)
            elif complete != self._length:
                fh.seek(self._length if 0 < self._length < complete else len(first))
                there = SeveriTable()
                there._read(path, _blocks(fh))
                held = dict(held) if complete > self._length else {}
                held.update(there._items())
                held.update(there._held)
            width = self._width
            for flat, value in held.items():
                there = packed.get(flat & _PAIR_MASK, 0) >> width * (flat >> _DELTA_SHIFT)
                if there >> width and there & (1 << width) - 1 != value:
                    raise AssertionError(
                        f"cache file {path} holds {value} for {_canonical(flat)}, "
                        f"not {there & (1 << width) - 1}"
                    )
            if complete >= self._length:
                grown = dict(self._grown)  # saved pairs -> the last slot saved
                new = itertools.islice(packed, self._saved, None)
            else:  # a file that shrank may have lost lines this table saved
                grown, new = {}, packed
            degrees: dict[int, list] = {}  # d -> the pairs with lines to write
            for pair in new:
                grown.pop(pair, None)  # rebuilt after it was made, not after a save
                d = _weight[pair >> _ID_BITS] + _weight[pair & _ID_MASK]
                degrees.setdefault(d, []).append(pair)
            for pair in grown:
                d = _weight[pair >> _ID_BITS] + _weight[pair & _ID_MASK]
                degrees.setdefault(d, []).append(pair)
            # key text sorts by "d:" first, so one degree's lines are sorted at a time
            for d in sorted(degrees, key=lambda d: f"{d}:"):
                fh.write(self._lines(d, degrees[d], grown, held).encode("ascii"))
            self._length = fh.seek(0, os.SEEK_END)
        self._saved = len(packed)
        self._grown = {}


# ----------------------------------------------------------------------
# the recursion
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _partitions(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n into parts <= largest (default n), descending, in reverse lex order."""
    if n == 0:
        return ((),)
    top = n if largest is None else min(n, largest)
    return tuple((p,) + rest for p in range(top, 0, -1) for rest in _partitions(n - p, p))


@lru_cache(maxsize=None)
def _core_box(core: int) -> tuple[tuple, tuple, dict]:
    """The ids of the profiles c <= core in mixed-radix order, c at index
    sum_m stride[m] * c[m], each one's prod_m binom(core[m], c[m]), and the
    strides."""
    ids, binoms, stride = [_intern(())], [1], {}
    for m, c in _pairs[core]:
        stride[m] = len(ids)
        row, base = ids, binoms[:]
        for take in range(1, c + 1):
            row = [_raised(a, m) for a in row]
            ids += row
            binoms += [b * math.comb(c, take) for b in base]
    return tuple(ids), tuple(binoms), stride


@lru_cache(maxsize=None)
def _core_gains(core: int, excess: int) -> tuple:
    """(len(nu), id(core + gamma), prod_m m^gamma[m] * binom(core[m] +
    gamma[m], gamma[m])) for each partition nu of excess, gamma the contacts
    of orders nu_i + 1: the new contacts above order one of excess exactly
    excess.  Only tiny partitions are touched."""
    counts = dict(_pairs[core])
    out = []
    for nu in _partitions(excess):
        gamma = _plus((), tuple((part + 1, 1) for part in nu))
        factor = math.prod(m**c * math.comb(counts.get(m, 0) + c, c) for m, c in gamma)
        out.append((len(nu), _intern(_plus(_pairs[core], gamma)), factor))
    return tuple(out)


@lru_cache(maxsize=None)
def _sub_ids(pid: int, cap: int) -> tuple:
    """(sub id, I(sub), binomial weight) for every sub <= profile pid with
    I(sub) <= cap: the tuple for cap - 1, then the subs with I(sub) = cap.
    With pid = 1^a + c, those are 1^t + c' over the c' <= c that _core_box
    lists, t = cap - I(c') <= a, weighted binom(a, t) * binom(c, c')."""
    prefix = _sub_ids(pid, cap - 1) if cap else ()
    ones, core = _split(pid)
    ids, binoms, _ = _core_box(core)
    level = []
    for sub, b in zip(ids, binoms):
        t = cap - _weight[sub]
        if 0 <= t <= ones:
            level.append((_chain(sub, t)[t], cap, math.comb(ones, t) * b))
    return prefix + tuple(level)


@lru_cache(maxsize=None)
def _gain_ids(pid: int, weight: int, slack: int) -> tuple:
    """The degree-drop terms of unassigned profile beta = pid: the tuple for
    slack - 1, then (prod_m m^gamma[m] * binom(beta + gamma, beta), excess,
    id(beta + gamma)) for each new contact profile gamma with I(gamma) =
    weight and excess = slack.  With beta = 1^b + c, gamma is 1^k plus the
    contacts _core_gains gives for c, k = weight - slack - len(nu) >= 0, so
    beta + gamma is link b + k of the chain of c + gamma and the coefficient
    is binom(b + k, k) times the core's factor."""
    ones, core = _split(pid)
    out = []
    for size, gained, factor in _core_gains(core, slack):
        new = weight - slack - size
        if new >= 0:
            top = ones + new
            out.append((math.comb(top, new) * factor, slack, _chain(gained, top)[top]))
    return (_gain_ids(pid, weight, slack - 1) if slack else ()) + tuple(out)


def severi_relative(key: SeveriKey, table: SeveriTable) -> int:
    """N(d, delta; alpha, beta), memoized; negative delta gives 0 by convention.

    A nonzero value has delta + E(alpha) + E(beta) <= d(d - 1)/2: a promotion
    keeps the sum and a degree drop lowers it by d - |alpha - alpha'| <= d - 1,
    so by induction from degree one (where it is 0) it is at most
    (d - 1)(d - 2)/2 + d - 1.  A request above that bound the table lacks is
    answered 0 without building anything, so no pair a request builds is
    longer than d(d - 1)/2 + 1 slots, whatever the delta."""
    delta = key.delta
    if delta < 0:
        return 0
    flat = _flat(key)
    pair = flat & _PAIR_MASK
    alpha, beta = pair >> _ID_BITS, pair & _ID_MASK
    k0 = delta + _excess[alpha] + _excess[beta]
    if table._packed.get(pair, 0) >> table._width * (delta + 1):
        table.hits += 1
    elif k0 > key.d * (key.d - 1) // 2:
        table.hits += 1
        return 0
    else:
        table.misses += 1
        # the pair's last slot is delta, and each pair it needs is built at
        # k0 - E(alpha') - E(beta'), the most this request asks of it
        while not _fill(table, flat, k0):
            pass
    width = table._width
    return table._packed[pair] >> width * delta & (1 << width) - 1


def _box(union: int):
    """The ids of the profiles alpha <= union in mixed-radix order, alpha at
    index sum_m stride[m] * alpha[m], and the strides.  The complement union
    - alpha of the profile at index i is the one at len - 1 - i.  With union
    = 1^n + c, the box is links 0..n of the chain of each c' <= c in
    _core_box order, stride[1] = 1 and stride[m] = (n + 1) * c's stride[m]."""
    ones, core = _split(union)
    cores, _, core_stride = _core_box(core)
    alphas = []
    for c in cores:
        alphas += _chain(c, ones)[: ones + 1]
    stride = {m: (ones + 1) * s for m, s in core_stride.items()}
    stride[1] = 1
    return alphas, stride


def _plan(table: SeveriTable, root: int, k0: int, masks: list):
    """The pairs _fill builds for root = delta << _DELTA_SHIFT | pair: the
    degree-one pairs, each with the length of the prefix to build, and the
    families to build, top-down by degree, root's own first, each as its
    union and the box _plan laid out for it, or None if it laid none out.

    root's own family is built from root up: the members alpha' >= alpha,
    which promotion never leaves and which hold the top member (U, -).  A
    drop term of a member (alpha, beta) built at K lands on (alpha', beta +
    gamma), of a family U' of the degree below, at j = K - I(alpha') -
    I(beta) - E(gamma) <= K - E(U'), since E(U') = E(alpha') + E(beta) +
    E(gamma) and E <= I.  So with kmax the largest K built at a degree, the
    degree below asks at most kmax - E(U') of a family U', and only of the
    U' of weight d - 1 with E(U') <= kmax.  Each of those is built whole at
    k0 - E(U'), unless the table holds every member at kmax - E(U'); then
    it is skipped and asks nothing.  The degree-one pairs are (-, 1), asked
    at kmax, and (1, -), at kmax - 1; a degree-one root is built alone."""
    get = table._packed.get
    whole = table._whole
    empty = _intern(())
    alpha, beta = root >> _ID_BITS & _ID_MASK, root & _ID_MASK
    d = _weight[alpha] + _weight[beta]
    if d == 1:
        return {root & _PAIR_MASK: root >> _DELTA_SHIFT}, []
    union = _intern(_plus(_pairs[alpha], _pairs[beta]))
    unions = [(union, None)]
    kmax = k0 - _excess[union]
    for d in range(d - 1, 1, -1):
        top = -1  # the largest K of the families built at degree d
        for _, excess, union in _gain_ids(empty, d, min(kmax, d)):
            k = kmax - excess
            if whole.get(union, -1) >= k:
                continue
            # a family the table lacks is short at (-, U) and laid out by
            # _fill; a box laid out here is handed to _fill with its union
            mask, box = masks[k], None
            if get(empty << _ID_BITS | union, 0) > mask:
                box = _box(union)
                alphas = box[0]
                if all(get(a << _ID_BITS | b, 0) > mask for a, b in zip(alphas, reversed(alphas))):
                    whole[union] = k
                    continue
            unions.append((union, box))
            top = max(top, k0 - excess)
        kmax = top
        if kmax < 0:
            break
    one = _intern(((1, 1),))
    base = {}
    for pair, j in ((empty << _ID_BITS | one, kmax), (one << _ID_BITS | empty, kmax - 1)):
        if j >= 0 and get(pair, 0) <= masks[j]:
            base[pair] = j
    return base, unions


def _keep(table: SeveriTable, pair: int, old: int, total: int, k: int):
    """Count the slots gained by a pair the table held as old and now holds
    with slots 0..k as total; AssertionError unless it kept the old slots."""
    width = table._width
    modulus = (1 << width) - 1
    kept = (old.bit_length() - 1) // width - 1
    if (old ^ total) & (1 << width * (kept + 1)) - 1:
        slot = next(j for j in range(kept + 1) if (old ^ total) >> width * j & modulus)
        flat = slot << _DELTA_SHIFT | pair
        raise AssertionError(
            f"the table was given {old >> width * slot & modulus} for "
            f"{_canonical(flat)}, but the recursion gives {total >> width * slot & modulus}"
        )
    if table._saved:  # only a saved pair's last line on disk matters
        table._grown.setdefault(pair, kept)
    table._slots += k - kept


def _fill(table: SeveriTable, root: int, k0: int) -> bool:
    """Build the pair of root = K << _DELTA_SHIFT | pair with slots 0..K, and
    each pair it needs that the table lacks or holds too short.

    A promotion keeps alpha + beta, so the pairs of one union U = alpha +
    beta form a family: a box over alpha's counts (see _box), in which the
    promotion of member i by m is member i + stride[m].  E(alpha) + E(beta)
    = E(U), and a promotion keeps delta and E while a degree drop lowers
    delta by at least the E it adds, so every member of a family is built at
    K = k0 - E(U) and no pair of this request needs more.  A degree-one base
    pair is built at the prefix _plan gives.  The recursion is linear in
    the prefixes and each term only shifts delta, so a promotion adds
    m * P(dep, K) and a degree drop adds (c * P(dep, K - s)) << (B * s),
    where P(dep, j) is the dep's slots 0..j and s = I(alpha') + I(beta) +
    excess.  A pair's slot sum is the sum of c * (P(dep, j) % (2^B - 1))
    over its terms; if it reaches 2^B - 1, the table is widened and repacked
    and False returned, and the request is asked again.  A pair rebuilt
    longer must keep the slots it had, or AssertionError is raised.

    _plan finds the families to build, top-down by degree.  They are built
    bottom-up by degree, each from its top member (U, -) down, each member's
    value and exact slot sum held in lists local to the family, so a
    promotion term is two list reads; only drop terms read the table.  A
    member the table holds at K is read as a leaf, never rebuilt shorter."""
    packed = table._packed
    width = table._width
    modulus = (1 << width) - 1
    # P(dep, j) = value & masks[j]; k0 <= d(d - 1)/2 (see severi_relative), so
    # the masks' B * k0^2 / 2 bits do not grow with the requested delta
    masks = [(1 << width * (j + 1)) - 1 for j in range(k0 + 1)]
    base, unions = _plan(table, root, k0, masks)
    for pair, k in base.items():
        old = packed.get(pair)
        if old is None:
            table._slots += k + 1
        else:
            _keep(table, pair, old, 1, k)
        packed[pair] = 1 | 1 << width * (k + 1)
    low = root >> _ID_BITS & _ID_MASK  # root's alpha
    while unions:  # each family's lists are freed once it is built
        union, box = unions.pop()
        k = k0 - _excess[union]
        alphas, stride = box or _box(union)
        mask, sentinel = masks[k], 1 << width * (k + 1)
        n1 = len(alphas) - 1
        values = [0] * len(alphas)
        sums = [0] * len(alphas)
        order = range(n1, -1, -1)
        if not unions:  # root's own family: the members alpha + s for s <= beta
            order = [sum(stride[m] * c for m, c in _pairs[low])]
            for m, c in _pairs[alphas[n1 - order[0]]]:
                order = [i + stride[m] * t for i in order for t in range(c + 1)]
            order.sort(reverse=True)
        for i in order:
            alpha, beta = alphas[i], alphas[n1 - i]
            pair = alpha << _ID_BITS | beta
            old = packed.get(pair)
            if old is not None and old > mask:  # held at K: a leaf
                values[i] = value = old & mask
                sums[i] = value % modulus
                continue
            total = slot_sum = 0
            # promote one unassigned contact to an assigned one
            for m, _ in _pairs[beta]:
                dep = i + stride[m]
                total += m * values[dep]
                slot_sum += m * sums[dep]
            # drop the degree by one: delta' = delta - I(alpha') - I(beta) - excess
            # must be >= 0 and I(alpha') <= I(alpha) - 1, so only pairs with
            # K >= I(beta) and I(alpha) >= 1 have such terms; a profile's
            # excess is below its weight (or 0), so no larger slack adds a term
            ib = _weight[beta]
            if k >= ib and i:
                ia = _weight[alpha]
                for alpha_p, ia_p, ca in _sub_ids(alpha, min(k - ib, ia - 1)):
                    slack, left = k - ia_p - ib, ia - 1 - ia_p
                    high = alpha_p << _ID_BITS
                    for coeff, excess, gained in _gain_ids(beta, left, min(slack, left)):
                        j = slack - excess
                        value = packed[high | gained] & masks[j]
                        coeff *= ca
                        total += coeff * value << width * (k - j)
                        slot_sum += coeff * (value % modulus)
            if slot_sum >= modulus:
                table._widen(_width_for(slot_sum))
                return False
            if old is None:
                table._slots += k + 1
            else:
                _keep(table, pair, old, total, k)
            packed[pair] = total | sentinel
            values[i] = total
            sums[i] = slot_sum
        if len(order) == len(alphas):
            table._whole[union] = k
    return True


def severi(d: int, delta: int, table: SeveriTable) -> int:
    """The plain Severi degree N(d, delta): no assigned contacts, all transverse."""
    if d < 1:
        raise ProfileWeightMismatchError("degree must be positive")
    return severi_relative(SeveriKey.plain(d, delta), table)


def build_order(requests) -> list:
    """The distinct plain requests (d, delta) by degree, each degree's highest
    delta first: the order in which a table builds each pair once.

    A request builds every pair at the longest prefix it can ask of it, so
    the lower deltas of a degree are then hits; asked in ascending order,
    they rebuild the degree's pairs one slot longer each time."""
    return sorted(set(requests), key=lambda request: (request[0], -request[1]))


def check_threshold(d: int, order: int):
    """Enforce the plane-degree rule d >= max(1, r) for every r <= order; no override.

    O(d) is ample only for d >= 1.  On the plane it is d-very ample, and T_r
    counts the r-nodal curves of an r-very ample line bundle (Kool-Shende-
    Thomas, A short proof of the Gottsche conjecture, Geom. Topol. 2011), so
    N(d, r) = T_r(plane(d)) once d >= r.  Below the bound the two may differ,
    so a plane degree is checked where it enters a fit or a held-out
    comparison, before any Severi work."""
    if d < 1:
        raise AmplenessThresholdError(f"plane degree {d} must be at least 1")
    if d < order:
        raise AmplenessThresholdError(
            f"degree {d} is below the ampleness bound d >= r for r = {d + 1}"
        )


def p2_series(d: int, order: int, table: SeveriTable) -> PowerSeries:
    """sum_{r <= order} N(d, r) x^r, exact for every d >= 1.

    These are the Severi degrees themselves; they equal T_r(plane(d)) only
    for d >= r (see check_threshold)."""
    requests = build_order((d, r) for r in range(order + 1))
    values = {r: severi(d, r, table) for _, r in requests}
    return PowerSeries.of([values[r] for r in range(order + 1)], "x")


# ----------------------------------------------------------------------
# node polynomials
# ----------------------------------------------------------------------


class NodePolyReport(Record):
    """Exact interpolation check that d -> N(d, delta) is polynomial of degree 2*delta."""

    __slots__ = _fields = ("delta", "window", "values", "coefficients", "fits", "mismatches")

    def __init__(
        self,
        delta: int,
        window: tuple[int, ...],
        values: tuple[int, ...],
        coefficients: tuple[Fraction, ...],  # ascending powers of d
        fits: bool,
        mismatches: tuple[tuple[int, Fraction, int], ...] = (),
    ):
        self._set(delta, window, values, coefficients, fits, mismatches)

    def predict(self, d: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * d + c
        return acc


def node_poly_check(delta: int, degrees, table: SeveriTable) -> NodePolyReport:
    """Fit the degree-2*delta polynomial through the first 2*delta+1 window
    values and verify it predicts every remaining value exactly."""
    window = tuple(degrees)
    needed = 2 * delta + 2
    if len(window) < needed:
        raise ValueError(f"window too short: need at least {needed} degrees, got {len(window)}")
    values = tuple(severi(d, delta, table) for d in window)
    k = 2 * delta + 1
    vandermonde = [[Fraction(d) ** j for j in range(k)] for d in window[:k]]
    coeffs = tuple(linalg.solve(vandermonde, [Fraction(v) for v in values[:k]]))
    report = NodePolyReport(delta, window, values, coeffs, fits=True)
    mismatches = []
    for d, v in zip(window[k:], values[k:]):
        predicted = report.predict(d)
        if predicted != v:
            mismatches.append((d, predicted, v))
    if mismatches:
        report = NodePolyReport(delta, window, values, coeffs, False, tuple(mismatches))
    return report
