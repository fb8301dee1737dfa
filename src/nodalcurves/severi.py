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
table, and a memo key is one int packing (delta, alpha id, beta id); the
degree is implied, d = I(alpha) + I(beta).  Per-id tables hold each
profile's weight, canonical text and +-e_m neighbours, so the hot loop
hashes and stores plain ints.  The sub-profile and new-contact term tables
are memoized per id, and each one for cap or slack s is the one for s - 1
plus the terms at exactly s, so every term is built once.  One loop with
an explicit stack evaluates a key: the promotion terms are built from the
neighbour tables, looked up and added to a running sum as they are
produced; only keys with delta >= I(beta) and I(alpha) >= 1 have
degree-drop terms, which join the same sum; a key with missing deps goes
back on the stack once, as a frame holding its partial sum and missing
terms.  SeveriKey, the cache text and the error messages translate at the
table's boundary.  Values are arbitrary-precision integers and entries are
write-once.  A table and the intern tables belong to one thread: no thread
lock is taken, and the one lock, save's flock on the cache file, keeps
saves of separate runs apart.
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
# hold what the recursion reads.  A memo key packs
# (delta, alpha id, beta id) into one int, so a few hundred profiles serve
# tens of thousands of keys and every memo probe hashes a plain int.


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

_ids: dict[tuple, int] = {}  # pairs -> id
_pairs: list[tuple] = []  # id -> pairs
_weight: list[int] = []  # id -> I(pairs)
_text: list[str] = []  # id -> canonical tokens
_up: list[dict] = []  # id -> {m: id of pairs + e_m}, filled on demand
_down: list = []  # id -> ((m, id of pairs - e_m) for each m), None until needed


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
        _text.append(_tokens(pairs))
        _up.append({})
        _down.append(None)
    return pid


def _raised(pid: int, m: int) -> int:
    """The id of profile pid + e_m."""
    up = _up[pid]
    raised = up.get(m)
    if raised is None:
        raised = up[m] = _intern(_plus(_pairs[pid], ((m, 1),)))
    return raised


def _lowered(pid: int) -> tuple:
    """(m, id of pid - e_m) for each multiplicity m of profile pid."""
    down = _down[pid]
    if down is None:
        pairs = _pairs[pid]
        down = _down[pid] = tuple((m, _intern(_plus(pairs, ((m, -1),)))) for m, _ in pairs)
    return down


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
    """The packed int (delta, alpha id, beta id) the recursion uses."""
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
# numbers without sign or leading zeros, since a Severi degree is a count
_CACHE_LINE = re.compile(
    r'\{"key": "([1-9][0-9]*):(0|[1-9][0-9]*):([^"|\\]*)\|([^"|\\]*)", '
    r'"value": "(0|[1-9][0-9]*)"\}'
)
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


def _check_header(path, line: str):
    """Raise ValueError naming the file unless line is the header save writes, to the byte."""
    if line != _CACHE_HEADER:
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


class SeveriTable:
    """Write-once memo table, owned by one thread.

    Entries are keyed by packed ints (see _flat); the public methods take
    SeveriKey.  hits and misses count top-level queries: a hit is a query
    answered from the table, a miss one that triggered computation.
    """

    def __init__(self):
        self._entries: dict[int, int] = {}
        # entries are never removed, so the ones already on disk are the
        # first _saved in insertion order
        self._saved = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}

    # -- optional append-only disk cache --------------------------------

    @staticmethod
    def load(path) -> SeveriTable:
        """Load a cache file; a missing file gives an empty table.

        The header and every line load only in the exact form save writes,
        canonical key text included; any other complete line, an empty one
        or another format version in the header among them, raises ValueError
        naming the file, and one key with two values raises AssertionError.
        A last line without its newline is a torn append and is ignored."""
        table = SeveriTable()
        try:
            # a byte outside ASCII reads as its \x escape, which no line
            # as save writes it holds, so it fails as a malformed line
            with open(path, "r", encoding="ascii", errors="backslashreplace") as fh:
                lines = fh.read().split("\n")
        except FileNotFoundError:
            return table
        lines.pop()
        if not lines:
            return table
        _check_header(path, lines[0])
        # entries are stored straight from the packed key, without a SeveriKey
        entries = table._entries
        match = _CACHE_LINE.fullmatch
        for line in lines[1:]:
            found = match(line)
            try:
                if found is None:
                    raise ValueError("not a line as save writes it")
                d, delta, alpha, beta, value = found.groups()
                alpha, beta = _profile_id(alpha), _profile_id(beta)
                if int(d) != _weight[alpha] + _weight[beta]:
                    raise ProfileWeightMismatchError("I(alpha) + I(beta) is not d")
                flat = int(delta) << _DELTA_SHIFT | alpha << _ID_BITS | beta
                value = int(value)
            except ValueError as exc:
                raise ValueError(f"cache file {path} has a malformed line {line!r}") from exc
            if entries.setdefault(flat, value) != value:
                raise AssertionError(f"cache file {path} holds two values for {_canonical(flat)}")
        table._saved = len(entries)
        return table

    def save(self, path):
        """Append entries not yet on disk; writes the header on a fresh file.

        Saves to one path take turns: each holds an exclusive POSIX flock on
        the file from reading its header to its last append.  A torn last
        line is cut off first; a file whose header is torn is started
        afresh; any other header raises ValueError naming the file."""
        with open(path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes, after the flush
            fh.seek(0)
            first = fh.readline()
            complete = _complete_length(fh)
            if complete:
                _check_header(path, first[:-1].decode("ascii", "replace"))
            fh.truncate(complete)
            if not complete:
                fh.write(f"{_CACHE_HEADER}\n".encode("ascii"))
            entries = self._entries
            new = itertools.islice(entries, self._saved, None)
            # key text is digits and ":|^ -", which JSON writes as is
            fh.writelines(
                f'{{"key": "{text}", "value": "{entries[key]}"}}\n'.encode("ascii")
                for text, key in sorted((_canonical(key), key) for key in new)
            )
        self._saved = len(self._entries)


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
def _new_contact_pairs(weight: int, excess: int) -> tuple:
    """(gamma, prod_m m^gamma[m]) for I(gamma) = weight and excess exactly excess.

    A profile of excess e is 1^k joined with parts (nu_i + 1) for a partition
    nu of e, so only tiny partitions are touched."""
    out = []
    for nu in _partitions(excess):
        ones = weight - excess - len(nu)
        if ones >= 0:
            gamma = _plus(((1, ones),), tuple((part + 1, 1) for part in nu))
            out.append((gamma, math.prod(m**c for m, c in gamma)))
    return tuple(out)


@lru_cache(maxsize=None)
def _sub_ids(pid: int, cap: int) -> tuple:
    """(sub id, I(sub), binomial weight) for every sub <= profile pid with
    I(sub) <= cap: the tuple for cap - 1, then the subs with I(sub) = cap."""
    prefix = _sub_ids(pid, cap - 1) if cap else ()
    subs = _sub_profiles(_pairs[pid], cap)
    return prefix + tuple((_intern(sub), w, b) for sub, w, b in subs if w == cap)


@lru_cache(maxsize=None)
def _gain_ids(pid: int, weight: int, slack: int) -> tuple:
    """The degree-drop terms of unassigned profile beta = pid: the tuple for
    slack - 1, then (prod_m m^gamma[m] * binom(beta + gamma, beta),
    part = id(beta + gamma) - (excess << _DELTA_SHIFT)) for each new contact
    profile gamma with I(gamma) = weight and excess = slack.  part plus
    s << _DELTA_SHIFT | alpha' << _ID_BITS is the key of (s - excess, alpha',
    beta + gamma) for every s >= excess, as both ids sit below _DELTA_SHIFT."""
    beta = _pairs[pid]
    counts = dict(beta)
    out = []
    for gamma, power in _new_contact_pairs(weight, slack):
        coeff = power * math.prod(math.comb(counts.get(m, 0) + c, c) for m, c in gamma)
        out.append((coeff, _intern(_plus(beta, gamma)) - (slack << _DELTA_SHIFT)))
    return (_gain_ids(pid, weight, slack - 1) if slack else ()) + tuple(out)


def severi_relative(key: SeveriKey, table: SeveriTable) -> int:
    """N(d, delta; alpha, beta), memoized; negative delta gives 0 by convention."""
    if key.delta < 0:
        return 0
    key = _flat(key)
    entries = table._entries
    if key in entries:
        table.hits += 1
        return entries[key]
    table.misses += 1
    get = entries.get
    # Each term is looked up as it is built and added to the running sum.  A
    # key with missing deps goes back on the stack once, as a frame
    # (key, sum so far, [coeff, dep, ...] of the missing terms), under them,
    # and is finished when the frame comes up again: its deps are then stored.
    # No key is stored twice: (d, I(beta)) strictly decreases along deps, so
    # a key never sits above its own frame on the stack.
    stack: list = [key]
    while stack:
        top = stack.pop()
        if top.__class__ is tuple:
            top, total, pending = top
            for i in range(0, len(pending), 2):
                total += pending[i] * entries[pending[i + 1]]
            entries[top] = total
            continue
        if top in entries:
            continue
        delta = top >> _DELTA_SHIFT
        alpha, beta = (top >> _ID_BITS) & _ID_MASK, top & _ID_MASK
        ib = _weight[beta]
        ia = _weight[alpha]
        if ia + ib == 1:
            entries[top] = 1 if delta == 0 else 0
            continue
        total = 0
        pending = []
        # promote one unassigned contact to an assigned one
        down = _down[beta]
        if down is None:
            down = _lowered(beta)
        up = _up[alpha]
        same_delta = delta << _DELTA_SHIFT
        for m, lowered in down:
            raised = up.get(m)
            if raised is None:
                raised = _raised(alpha, m)
            dep = same_delta | raised << _ID_BITS | lowered
            value = get(dep)
            if value is None:
                pending += (m, dep)
            else:
                total += m * value
        # drop the degree by one: delta' = delta - I(alpha') - I(beta) - excess
        # must be >= 0 and I(alpha') <= I(alpha) - 1, so only keys with
        # delta >= I(beta) and I(alpha) >= 1 have such terms; a profile's
        # excess is below its weight (or 0), so no larger slack adds a term
        if delta >= ib and ia:
            for alpha_p, ia_p, ca in _sub_ids(alpha, min(delta - ib, ia - 1)):
                slack, weight = delta - ia_p - ib, ia - 1 - ia_p
                shifted = slack << _DELTA_SHIFT | alpha_p << _ID_BITS
                for coeff, part in _gain_ids(beta, weight, min(slack, weight)):
                    dep = shifted + part
                    value = get(dep)
                    if value is None:
                        pending += (ca * coeff, dep)
                    else:
                        total += ca * coeff * value
        if pending:
            stack.append((top, total, pending))
            stack += pending[1::2]
        else:
            entries[top] = total
    return entries[key]


def severi(d: int, delta: int, table: SeveriTable) -> int:
    """The plain Severi degree N(d, delta): no assigned contacts, all transverse."""
    if d < 1:
        raise ProfileWeightMismatchError("degree must be positive")
    return severi_relative(SeveriKey.plain(d, delta), table)


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
    return PowerSeries.of([severi(d, r, table) for r in range(order + 1)], "x")


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
