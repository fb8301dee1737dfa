"""Caporaso-Harris recursion: classical counts, tangency cases, node polynomials."""

import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from nodalcurves import (
    PowerSeries,
    ProfileWeightMismatchError,
    SeveriKey,
    SeveriTable,
    TangencyProfile,
    node_poly_check,
    p2_series,
    severi,
    severi_relative,
)
from nodalcurves.severi import build_order

F = Fraction
EMPTY = TangencyProfile.empty()


def _scalars(table) -> dict:
    """The packed memo as one value per slot: {cache-line key: value}, pair
    by pair in table order, each pair's slots by delta."""
    return dict(table._items())


# ----------------------------------------------------------------------
# profiles and keys
# ----------------------------------------------------------------------


def test_profile_canonical_form():
    p = TangencyProfile.of({2: 1, 1: 3, 5: 0})
    assert p.pairs == ((1, 3), (2, 1))
    assert p.weight == 5
    assert p.size == 4


def test_profile_rejects_nonpositive_counts():
    with pytest.raises(ProfileWeightMismatchError):
        TangencyProfile(((1, 0),))
    with pytest.raises(ProfileWeightMismatchError):
        TangencyProfile(((2, 1), (1, 1)))  # not ascending


def test_profile_add_remove():
    p = TangencyProfile.simple(3)
    q = p.add(2)
    assert q.pairs == ((1, 3), (2, 1))
    assert q.remove(1).pairs == ((1, 2), (2, 1))
    assert q.remove(2).pairs == ((1, 3),)
    with pytest.raises(ProfileWeightMismatchError):
        p.remove(2)


def test_profile_parse_tokens_roundtrip():
    for text, pairs in [("1^3 2^1", ((1, 3), (2, 1))), ("2", ((2, 1),)), ("-", ())]:
        p = TangencyProfile.parse(text)
        assert p.pairs == pairs
        assert TangencyProfile.parse(p.tokens()) == p


def test_sub_profiles_enumeration():
    p = TangencyProfile.of({1: 2, 2: 1})
    subs = list(p.sub_profiles())
    assert len(subs) == 6  # (0..2 ones) x (0..1 twos)
    assert len(set(subs)) == 6
    capped = list(p.sub_profiles(max_weight=1))
    assert {s.weight for s in capped} <= {0, 1}
    assert len(capped) == 2


def test_key_admissibility():
    with pytest.raises(ProfileWeightMismatchError, match="profile weight mismatch"):
        SeveriKey(3, 1, EMPTY, TangencyProfile.simple(2))


def test_key_canonical_roundtrip(tmp_path):
    key = SeveriKey(4, 2, TangencyProfile.of({1: 1}), TangencyProfile.of({1: 1, 2: 1}))
    text = key.canonical()
    assert text == "4:2:1^1|1^1 2^1"
    local = SeveriTable()
    value = severi_relative(key, local)
    path = tmp_path / "cache.jsonl"
    local.save(path)
    assert f'{{"key": "{text}", "value": "{value}"}}\n' in path.read_text()
    loaded = SeveriTable.load(path)
    assert severi_relative(key, loaded) == value
    assert loaded.stats() == {"entries": len(local), "hits": 1, "misses": 0}


# ----------------------------------------------------------------------
# the recursion against classical values
# ----------------------------------------------------------------------


def test_base_cases(table):
    assert severi_relative(SeveriKey(1, 0, EMPTY, TangencyProfile.simple(1)), table) == 1
    assert severi_relative(SeveriKey(1, 1, EMPTY, TangencyProfile.simple(1)), table) == 0
    assert severi_relative(SeveriKey(1, -1, EMPTY, TangencyProfile.simple(1)), table) == 0


def test_smooth_count_is_one(table):
    for d in range(1, 9):
        assert severi(d, 0, table) == 1


def test_negative_cogenus_is_zero(table):
    assert severi(5, -1, table) == 0


def test_classical_one_node_counts(table):
    assert severi(2, 1, table) == 3
    assert severi(3, 1, table) == 12
    assert severi(4, 1, table) == 27


def test_discriminant_oracle(table):
    for d in range(2, 13):
        assert severi(d, 1, table) == 3 * (d - 1) ** 2


def test_classical_multinode_counts(table):
    # triangles through six points, two-nodal cubics through seven, etc.
    assert severi(3, 2, table) == 21
    assert severi(3, 3, table) == 15
    assert severi(4, 2, table) == 225
    assert severi(4, 3, table) == 675


def test_two_node_closed_form(table):
    for d in range(3, 11):
        expected = F(3, 2) * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11)
        assert severi(d, 2, table) == expected


def test_three_node_closed_form(table):
    for d in range(3, 10):
        expected = (
            F(9, 2) * d**6
            - 27 * d**5
            + F(9, 2) * d**4
            + F(423, 2) * d**3
            - 229 * d**2
            - F(829, 2) * d
            + 525
        )
        assert severi(d, 3, table) == expected


def test_smooth_curves_with_contact_conditions_have_a_closed_form(table):
    # delta = 0: N(d, 0; alpha, beta) = I^beta |beta|! / prod_m beta_m!, with
    # I^beta = prod_m m^beta_m, for every key of degree at most 10
    keys = 0
    for d in range(1, 11):
        for w in range(d + 1):
            for alpha_parts in _partitions_of(w):
                for beta_parts in _partitions_of(d - w):
                    alpha, beta = _profile_of_parts(alpha_parts), _profile_of_parts(beta_parts)
                    expected = math.factorial(beta.size)
                    for m, c in beta.pairs:
                        expected = expected * m**c // math.factorial(c)
                    key = SeveriKey(d, 0, alpha, beta)
                    assert severi_relative(key, table) == expected, key.canonical()
                    keys += 1
    assert keys == 1214


@pytest.mark.parametrize("d", [8, 10, 12])
def test_the_most_nodal_curves_are_line_arrangements(d):
    # d(d - 1)/2 nodes: d lines through 2d points, (2d)! / (2^d d!) ways
    assert severi(d, d * (d - 1) // 2, SeveriTable()) == (
        math.factorial(2 * d) // (2**d * math.factorial(d))
    )


def test_tangency_values_checked_by_hand(table):
    e2 = TangencyProfile.of({2: 1})
    # smooth conics tangent to the line through four points
    assert severi_relative(SeveriKey(2, 0, EMPTY, e2), table) == 2
    # tangent at an assigned point, through three points
    assert severi_relative(SeveriKey(2, 0, e2, EMPTY), table) == 1
    # a line pair cannot be branch-tangent to a general line
    assert severi_relative(SeveriKey(2, 1, EMPTY, e2), table) == 0


def test_determinism_after_clearing():
    first, second = SeveriTable(), SeveriTable()
    values = [severi(d, k, first) for d in range(1, 8) for k in range(0, 3)]
    again = [severi(d, k, second) for d in range(1, 8) for k in range(0, 3)]
    assert values == again


def test_memo_statistics_move():
    local = SeveriTable()
    severi(5, 2, local)
    stats = local.stats()
    assert stats["entries"] > 0 and stats["misses"] >= 1
    severi(5, 2, local)
    assert local.stats()["hits"] > stats["hits"]


def test_memo_key_set_is_pinned():
    # the keys the recursion creates, pinned by count and by the sha256 of
    # the sorted key texts of severi(6, 2); a single request builds each pair's
    # whole prefix, the keys of the requests delta = 0..delta
    from nodalcurves.severi import _canonical

    local = SeveriTable()
    severi(12, 3, local)
    assert len(local) == 1353
    local = SeveriTable()
    severi(6, 2, local)
    texts = "\n".join(sorted(_canonical(key) for key in _scalars(local)))
    assert len(local) == 141
    assert (
        hashlib.sha256(texts.encode()).hexdigest()
        == "b540ba803ae28271c9e5f01ca0e8be32a3b57f9017f48594967f74c6768b5fa1"
    )


# ----------------------------------------------------------------------
# cache file
# ----------------------------------------------------------------------


def test_cache_save_load_roundtrip(tmp_path):
    local = SeveriTable()
    severi(4, 2, local)
    path = tmp_path / "cache.jsonl"
    local.save(path)
    loaded = SeveriTable.load(path)
    assert len(loaded) == len(local)
    assert severi(4, 2, loaded) == 225
    # appending after more work keeps the file loadable
    severi(5, 2, local)
    local.save(path)
    again = SeveriTable.load(path)
    assert len(again) == len(local)


def test_cache_resave_appends_exactly_the_new_entries(tmp_path):
    path = tmp_path / "cache.jsonl"
    local = SeveriTable()
    severi(4, 2, local)
    local.save(path)
    loaded = SeveriTable.load(path)
    severi(5, 2, loaded)
    loaded.save(path)
    loaded.save(path)
    assert path.read_text().count("\n") == len(loaded) + 1


def test_cache_version_mismatch_raises_naming_the_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"format": "severi-cache-0"}\n{"key": "2:1:-|1^2", "value": "999"}\n')
    with pytest.raises(ValueError) as excinfo:
        SeveriTable.load(path)
    assert str(path) in str(excinfo.value)


def test_cache_save_restarts_a_file_with_a_torn_header(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"form')
    assert len(SeveriTable.load(path)) == 0
    local = SeveriTable()
    severi(3, 1, local)
    local.save(path)
    assert path.read_text().startswith('{"format": "severi-cache-1"}\n')
    assert len(SeveriTable.load(path)) == len(local)


def test_cache_save_onto_a_header_that_is_not_json_names_the_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text("garbage\n")
    local = SeveriTable()
    severi(3, 1, local)
    with pytest.raises(ValueError) as excinfo:
        local.save(path)
    assert str(path) in str(excinfo.value)
    assert path.read_text() == "garbage\n"


def test_cache_save_waits_for_the_file_lock_and_reads_the_header_under_it(tmp_path):
    path = tmp_path / "cache.jsonl"
    local = SeveriTable()
    severi(4, 2, local)
    with open(path, "ab") as other:  # another run's save, holding the lock on a fresh file
        fcntl.flock(other, fcntl.LOCK_EX)
        saver = threading.Thread(target=local.save, args=(path,))
        saver.start()
        saver.join(0.2)
        assert saver.is_alive()
        assert path.read_bytes() == b""
        other.write(b'{"format": "severi-cache-1"}\n')
    saver.join()
    assert path.read_text().count("format") == 1
    assert _scalars(SeveriTable.load(path)) == _scalars(local)


def test_memo_keys_share_their_profiles(tmp_path):
    # a memo key packs (alpha id, beta id); both ids name interned profiles
    from nodalcurves.severi import _ID_BITS, _ID_MASK, _ids, _pairs

    local = SeveriTable()
    severi(12, 3, local)
    for pair in local._packed:
        for pid in (pair >> _ID_BITS, pair & _ID_MASK):
            assert _ids[_pairs[pid]] == pid
    path = tmp_path / "cache.jsonl"
    local.save(path)
    loaded = SeveriTable.load(path)
    assert set(_scalars(loaded)) == set(_scalars(local))


def test_cache_load_severi_save_load_keeps_entries_and_their_order(tmp_path):
    from nodalcurves.severi import _canonical

    path = tmp_path / "cache.jsonl"
    computed = SeveriTable.load(path)  # no file yet
    value = severi(12, 3, computed)
    computed.save(path)
    loaded = SeveriTable.load(path)
    assert _scalars(loaded) == _scalars(computed)
    # a load inserts pairs in file order, which is sorted by key text, so by
    # the key text of each pair's delta-0 line
    assert list(loaded._packed) == sorted(loaded._packed, key=_canonical)
    assert severi(12, 3, loaded) == value
    loaded.save(path)
    again = SeveriTable.load(path)
    assert list(again._packed.items()) == list(loaded._packed.items())


def test_cache_file_bytes_are_pinned(tmp_path):
    # existing cache files depend on the header, the key syntax and the line order
    local = SeveriTable()
    severi(4, 2, local)
    severi_relative(SeveriKey(4, 1, TangencyProfile.of({2: 1}), TangencyProfile.simple(2)), local)
    path = tmp_path / "cache.jsonl"
    local.save(path)
    data = path.read_bytes()
    assert (len(local), data.count(b"\n"), len(data)) == (61, 62, 2277)
    assert (
        hashlib.sha256(data).hexdigest()
        == "42572760cea172fc103fcf124d8d74ef90d6579215f4bca0464ead7c4691e0f3"
    )


def test_cache_saves_of_two_tables_write_each_key_once(tmp_path):
    # A and B load the same file, B saves, then A: A appends only what the
    # file lacks after B's lines, and nothing it already holds
    path = tmp_path / "cache.jsonl"
    seed = SeveriTable()
    severi(4, 2, seed)
    seed.save(path)
    first, second = SeveriTable.load(path), SeveriTable.load(path)
    severi(6, 3, first)
    severi(5, 3, second)
    second.save(path)
    first.save(path)
    lines = path.read_text().splitlines()
    keys = [json.loads(line)["key"] for line in lines[1:]]
    assert len(keys) == len(set(keys)) == len(_scalars(first).keys() | _scalars(second).keys())
    assert _scalars(SeveriTable.load(path)) == {**_scalars(second), **_scalars(first)}
    # with no other save in between, a save reads nothing back and appends in key order
    severi(7, 3, first)
    size = path.stat().st_size
    first.save(path)
    tail = path.read_bytes()[size:].decode().splitlines()
    assert len(tail) == len(first) - len(set(keys))
    assert tail == sorted(tail)


def test_cache_save_refuses_a_key_another_run_wrote_with_another_value(tmp_path):
    path = tmp_path / "cache.jsonl"
    first = SeveriTable.load(path)
    severi(3, 1, first)
    other = '{"format": "severi-cache-1"}\n{"key": "2:0:-|1^2", "value": "2"}\n'
    path.write_text(other)  # another run's save, between this run's load and save
    with pytest.raises(AssertionError) as excinfo:
        first.save(path)
    assert str(path) in str(excinfo.value) and "2:0:-|1^2" in str(excinfo.value)
    assert path.read_text() == other


def test_cache_save_onto_a_file_that_shrank_writes_every_entry_it_lacks(tmp_path):
    path = tmp_path / "cache.jsonl"
    local = SeveriTable()
    severi(5, 2, local)
    local.save(path)
    data = path.read_bytes()
    path.write_bytes(data[: data.index(b"\n") + 1])  # the file is started afresh
    severi(5, 3, local)
    local.save(path)
    assert _scalars(SeveriTable.load(path)) == _scalars(local)
    assert path.read_bytes().count(b"\n") == len(local) + 1


@pytest.fixture(scope="module")
def cache_26(tmp_path_factory):
    """The severi-table --dmax 26 --deltamax 5 cache: 31,201 entries, many read blocks long."""
    local = SeveriTable()
    for d in range(1, 27):
        for delta in range(6):
            severi(d, delta, local)
    path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
    local.save(path)
    return path, local


def test_cache_load_holds_one_block_at_a_time(cache_26):
    path, local = cache_26
    size = path.stat().st_size
    assert len(local) == 31201 and size > 20 * (1 << 16)
    SeveriTable.load(path)  # every profile text is seen once before tracing
    tracemalloc.start()
    try:
        loaded = SeveriTable.load(path)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _scalars(loaded) == _scalars(local)
    assert peak - after < size // 2


def test_cache_load_reads_the_same_entries_in_any_block_size(cache_26, monkeypatch):
    path, _ = cache_26
    whole = SeveriTable.load(path)
    monkeypatch.setattr(sys.modules["nodalcurves.severi"], "_CHUNK", 7)  # shorter than any line
    loaded = SeveriTable.load(path)
    assert list(loaded._packed.items()) == list(whole._packed.items())
    assert loaded._length == path.stat().st_size


@pytest.mark.parametrize("order", ["mismatch-first", "garbage-first"])
def test_cache_load_names_the_first_bad_line_deep_in_the_file(cache_26, tmp_path, order):
    path, _ = cache_26
    lines = path.read_bytes().split(b"\n")
    mismatch = b'{"key": "9:0:-|1^8", "value": "1"}'
    garbage = b"garbage"
    at = len(lines) * 3 // 4
    lines[at], lines[at + 5] = (mismatch, garbage) if order == "mismatch-first" else (garbage, mismatch)
    bad = tmp_path / "cache.jsonl"
    bad.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError) as excinfo:
        SeveriTable.load(bad)
    named = (mismatch if order == "mismatch-first" else garbage).decode()
    assert str(excinfo.value) == f"cache file {bad} has a malformed line {named!r}"


# ----------------------------------------------------------------------
# plane series and node polynomials
# ----------------------------------------------------------------------


def test_p2_series_low_order(table):
    assert p2_series(4, 1, table) == PowerSeries.of([1, 27], "x")
    assert p2_series(7, 0, table) == PowerSeries.of([1], "x")


def test_p2_series_degree_nine(table):
    series = p2_series(9, 2, table)
    assert series.coeff(1) == 192


def test_p2_series_threshold(table):
    # the Severi degrees themselves, exact below the ampleness bound too
    assert p2_series(2, 3, table) == PowerSeries.of([1, 3, 0, 0], "x")
    assert p2_series(3, 3, table).coeff(3) == 15


def test_node_poly_delta_one(table):
    report = node_poly_check(1, range(2, 7), table)
    assert report.fits
    assert report.coefficients == (F(3), F(-6), F(3))


def test_node_poly_delta_zero(table):
    report = node_poly_check(0, range(1, 5), table)
    assert report.fits
    assert report.coefficients == (F(1),)


def test_node_poly_delta_two(table):
    report = node_poly_check(2, range(4, 11), table)
    assert report.fits
    assert report.predict(12) == severi(12, 2, table)


def test_node_poly_window_too_short(table):
    with pytest.raises(ValueError, match="window too short"):
        node_poly_check(2, range(4, 9), table)


def test_fill_interns_each_profile_once(tmp_path):
    from nodalcurves.severi import _excess, _ids, _pairs, _text, _up, _weight

    table = SeveriTable()
    for d, k in [(12, 3)] * 4 + [(d, k) for d in range(2, 12) for k in range(0, 4)]:
        severi(d, k, table)
    assert all(_ids[pairs] == pid for pid, pairs in enumerate(_pairs))
    assert len(_ids) == len(_pairs) == len(_weight) == len(_text) == len(_up)
    assert len(_excess) == len(_pairs)
    assert all(_excess[pid] == _weight[pid] - sum(c for _, c in pairs)
               for pid, pairs in enumerate(_pairs))
    path = tmp_path / "cache.jsonl"
    table.save(path)
    lines = path.read_text().splitlines()[1:]
    assert len({json.loads(line)["key"] for line in lines}) == len(lines) == len(table)


def _count_layouts(monkeypatch) -> dict:
    """Wrap _box so each call counts its union: {union: calls}."""
    module = sys.modules["nodalcurves.severi"]
    box, laid_out = module._box, {}

    def counted(union):
        laid_out[union] = laid_out.get(union, 0) + 1
        return box(union)

    monkeypatch.setattr(module, "_box", counted)
    return laid_out


def test_a_cold_request_lays_each_family_out_once(monkeypatch):
    laid_out = _count_layouts(monkeypatch)
    table = SeveriTable()
    assert severi(14, 5, table) == 213681907449
    assert len(laid_out) > 100
    assert max(laid_out.values()) == 1
    # as a fit asks both degrees at the top delta: the second request skips
    # the families the first built whole without laying them out again
    assert severi(15, 5, table) == 465104644470
    assert max(laid_out.values()) == 1


def test_a_family_planned_short_is_laid_out_once(monkeypatch, tmp_path):
    # a cache that lost the middle members of the degree-14 families keeps
    # their (-, U) members, so _plan lays those boxes out to find the short
    # members, and _fill builds each family from the box _plan laid out
    path = tmp_path / "cache.jsonl"
    table = SeveriTable()
    severi(14, 5, table)
    table.save(path)
    lines = path.read_text().splitlines(True)
    kept = [line for line in lines
            if not line.startswith('{"key": "14:') or ":-|" in line or '|-"' in line]
    assert 0 < len(lines) - len(kept) < len(lines) // 10
    path.write_text("".join(kept))
    table = SeveriTable.load(path)
    laid_out = _count_layouts(monkeypatch)
    assert severi(15, 5, table) == 465104644470
    assert max(laid_out.values()) == 1
    fresh = SeveriTable()
    severi(15, 5, fresh)
    assert _scalars(table) == _scalars(fresh)


# ----------------------------------------------------------------------
# brute-force oracle: an independent implementation of the recursion
# ----------------------------------------------------------------------


def _partitions_of(n):
    if n == 0:
        yield ()
        return
    def rec(remaining, largest, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()
    yield from rec(n, n, [])


def _profile_of_parts(parts):
    counts = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    return TangencyProfile.of(counts)


def _contains(larger, smaller):
    return all(larger.count(m) >= c for m, c in smaller.pairs)


def _binom(larger, smaller):
    from math import comb

    total = 1
    for m, c in smaller.pairs:
        total *= comb(larger.count(m), c)
    return total


def _naive(key, memo):
    """Textbook recursion with no pruning: enumerate every beta' >= beta of
    the right weight from raw partitions, drop negative cogenus terms."""
    if key in memo:
        return memo[key]
    d, delta, alpha, beta = key.d, key.delta, key.alpha, key.beta
    if delta < 0:
        return 0
    if d == 1:
        value = 1 if delta == 0 else 0
        memo[key] = value
        return value
    total = 0
    for m, _ in beta.pairs:
        total += m * _naive(SeveriKey(d, delta, alpha.add(m), beta.remove(m)), memo)
    for alpha_p in alpha.sub_profiles():
        w = d - 1 - alpha_p.weight
        if w < 0:
            continue
        for parts in _partitions_of(w):
            beta_p = _profile_of_parts(parts)
            if not _contains(beta_p, beta):
                continue
            gained = beta_p.size - beta.size
            delta_p = delta + gained - (d - 1)
            if delta_p < 0:
                continue
            coeff = _binom(alpha, alpha_p) * _binom(beta_p, beta)
            for m, c in beta_p.pairs:
                coeff *= m ** (c - beta.count(m))
            total += coeff * _naive(SeveriKey(d - 1, delta_p, alpha_p, beta_p), memo)
    memo[key] = total
    return total


def test_new_contact_enumeration_matches_raw_partitions():
    # from the empty beta, the drop terms' profiles are the new contact
    # profiles gamma themselves, each with coefficient prod_m m^gamma[m]
    from nodalcurves.severi import _gain_ids, _intern, _pairs

    empty = _intern(())
    for weight in range(0, 9):
        for cap in range(0, 5):
            generated = [
                (TangencyProfile(_pairs[gained]), e, coeff)
                for coeff, e, gained in _gain_ids(empty, weight, cap)
            ]
            expected = set()
            for parts in _partitions_of(weight):
                profile = _profile_of_parts(parts)
                excess = profile.weight - profile.size
                if excess <= cap:
                    expected.add((profile, excess, math.prod(parts)))
            assert len(generated) == len(set(generated))
            assert set(generated) == expected


# profiles whose boxes and term tables mix short and long chains of ones
_LAYOUT_PROFILES = ["-", "1^6", "2^3", "2^1 3^2", "1^4 2^2 3^1", "1^9 2^1"]


def _weights_of(profile, sub):
    """prod_m binom(profile[m], sub[m])."""
    return math.prod(math.comb(profile.count(m), c) for m, c in sub.pairs)


@pytest.mark.parametrize("text", _LAYOUT_PROFILES)
def test_a_box_is_the_mixed_radix_enumeration_of_the_sub_profiles(text):
    from nodalcurves.severi import _box, _intern

    union = TangencyProfile.parse(text)
    strides, size = {}, 1
    for m, c in union.pairs:
        strides[m] = size
        size *= c + 1
    expected = [None] * size
    for sub in union.sub_profiles():
        expected[sum(strides[m] * c for m, c in sub.pairs)] = _intern(sub.pairs)
    alphas, stride = _box(_intern(union.pairs))
    assert alphas == expected
    assert {m: stride[m] for m in strides} == strides
    for sub in union.sub_profiles():
        i = sum(strides[m] * c for m, c in sub.pairs)
        rest = TangencyProfile.of({m: c - sub.count(m) for m, c in union.pairs})
        assert alphas[len(alphas) - 1 - i] == _intern(rest.pairs)


@pytest.mark.parametrize("text", _LAYOUT_PROFILES)
def test_sub_terms_match_the_sub_profiles_and_their_binomials(text):
    from nodalcurves.severi import _intern, _sub_ids

    profile = TangencyProfile.parse(text)
    for cap in range(profile.weight + 2):
        expected = [
            (_intern(sub.pairs), sub.weight, _weights_of(profile, sub))
            for sub in profile.sub_profiles(max_weight=cap)
        ]
        assert Counter(_sub_ids(_intern(profile.pairs), cap)) == Counter(expected)


@pytest.mark.parametrize("text", _LAYOUT_PROFILES)
def test_drop_terms_match_the_raw_partitions(text):
    # beta' = beta + gamma for each gamma of weight w and excess <= slack, with
    # coefficient prod_m m^gamma[m] * binom(beta'[m], beta[m])
    from nodalcurves.severi import _gain_ids, _intern

    beta = TangencyProfile.parse(text)
    for weight in range(7):
        for slack in range(weight + 1):
            expected = []
            for parts in _partitions_of(weight):
                gamma = _profile_of_parts(parts)
                excess = gamma.weight - gamma.size
                if excess <= slack:
                    gained = TangencyProfile.of(
                        {m: beta.count(m) + gamma.count(m) for m in {*dict(beta.pairs), *parts}}
                    )
                    coeff = math.prod(parts) * _weights_of(gained, beta)
                    expected.append((coeff, excess, _intern(gained.pairs)))
            got = _gain_ids(_intern(beta.pairs), weight, slack)
            assert Counter(got) == Counter(expected), (text, weight, slack)


@pytest.mark.parametrize("text", ["-", "2", "2^2 3", "4^1 5^2"])
def test_a_chain_holds_the_profiles_one_transverse_contact_apart(text):
    from nodalcurves.severi import _chain, _intern

    core = TangencyProfile.parse(text)
    chain = _chain(_intern(core.pairs), 7)
    assert len(chain) >= 8
    for t in range(8):
        assert chain[t] == _intern(core.add(1, t).pairs)


def test_recursion_matches_naive_implementation(table):
    memo = {}
    for d in range(1, 6):
        for delta in range(0, 4):
            key = SeveriKey.plain(d, delta)
            assert severi_relative(key, table) == _naive(key, memo)


def test_recursion_matches_naive_on_tangency_keys(table):
    import random

    rng = random.Random(5)
    memo = {}
    for _ in range(60):
        d = rng.randint(1, 5)
        delta = rng.randint(0, 3)
        parts = []
        remaining = d
        while remaining > 0:
            p = rng.randint(1, min(3, remaining))
            parts.append(p)
            remaining -= p
        split = rng.randint(0, len(parts))
        alpha = _profile_of_parts(parts[:split])
        beta = _profile_of_parts(parts[split:])
        key = SeveriKey(d, delta, alpha, beta)
        assert severi_relative(key, table) == _naive(key, memo)


def _check_every_entry_against_naive(table) -> tuple[int, int]:
    """Decode each stored key from the intern tables and compare its value
    with _naive; returns how many keys have promotion and degree-drop terms."""
    from nodalcurves.severi import _DELTA_SHIFT, _ID_BITS, _ID_MASK, _pairs

    memo = {}
    promoting = dropping = 0
    for flat, value in _scalars(table).items():
        alpha = TangencyProfile(_pairs[(flat >> _ID_BITS) & _ID_MASK])
        beta = TangencyProfile(_pairs[flat & _ID_MASK])
        key = SeveriKey(alpha.weight + beta.weight, flat >> _DELTA_SHIFT, alpha, beta)
        assert value == _naive(key, memo), key.canonical()
        promoting += key.d > 1 and beta.size > 0
        dropping += key.delta >= beta.weight and alpha.weight >= 1
    return promoting, dropping


def test_every_entry_of_a_plain_table_matches_naive():
    local = SeveriTable()
    for d in range(1, 9):
        for delta in range(0, 5):
            severi(d, delta, local)
    assert len(local) == 718
    promoting, dropping = _check_every_entry_against_naive(local)
    assert promoting and dropping


def test_every_entry_of_a_tangency_table_matches_naive():
    import random

    rng = random.Random(5)
    local = SeveriTable()
    for _ in range(60):
        d = rng.randint(1, 5)
        delta = rng.randint(0, 3)
        parts = []
        remaining = d
        while remaining > 0:
            p = rng.randint(1, min(3, remaining))
            parts.append(p)
            remaining -= p
        split = rng.randint(0, len(parts))
        alpha = _profile_of_parts(parts[:split])
        beta = _profile_of_parts(parts[split:])
        severi_relative(SeveriKey(d, delta, alpha, beta), local)
    # 2 of its 14 promotion families are built as partial up-sets, so this
    # pins the pairs the build reaches from entries away from alpha = -
    assert (len(local), len(local._packed)) == (212, 51)
    promoting, dropping = _check_every_entry_against_naive(local)
    assert promoting and dropping


def test_a_cache_missing_some_lines_of_a_family_gives_a_fresh_tables_values(tmp_path):
    # a plain table saved and reloaded less the lines delta >= 3 of the members
    # of the family 1^5 2 with an odd number of assigned contacts: the others
    # are held at that family's K = 5, longer than the K = 3 a request at
    # 7:3:2^1|1^5 builds it at, so they are read as leaves, not rebuilt shorter
    from nodalcurves.severi import _ID_BITS, _ids

    saved = SeveriTable()
    severi(8, 6, saved)
    path = tmp_path / "cache.jsonl"
    saved.save(path)
    family = TangencyProfile.of({1: 5, 2: 1})
    members = [
        (alpha, TangencyProfile.of({m: c - alpha.count(m) for m, c in family.pairs}))
        for alpha in family.sub_profiles()
    ]
    odd = {f"{alpha.tokens()}|{beta.tokens()}" for alpha, beta in members if alpha.size % 2}
    header, *lines = path.read_text().splitlines(keepends=True)
    kept = []
    for line in lines:
        _, delta, tokens = json.loads(line)["key"].split(":", 2)
        if not (tokens in odd and int(delta) >= 3):
            kept.append(line)
    assert len(lines) - len(kept) == 3 * len(odd) == 3 * 6
    path.write_text(header + "".join(kept))
    loaded = SeveriTable.load(path)
    slots = set()
    for alpha, beta in members:
        held = loaded._packed[_ids[alpha.pairs] << _ID_BITS | _ids[beta.pairs]]
        slots.add((alpha.size % 2, held.bit_length() // loaded._width))
    assert slots == {(0, 6), (1, 3)}  # slots 0..5 and 0..2
    e2, e1 = TangencyProfile.of({2: 1}), TangencyProfile.simple
    keys = [
        SeveriKey(7, 3, e2, e1(5)),  # the family from 2^1 up at K = 3
        SeveriKey(7, 4, TangencyProfile.of({1: 2, 2: 1}), e1(3)),  # at K = 4
        SeveriKey(7, 3, e1(3), TangencyProfile.of({1: 2, 2: 1})),  # at K = 3
        SeveriKey.plain(7, 5),  # held whole, so a hit
        SeveriKey(8, 6, e1(1), TangencyProfile.of({1: 5, 2: 1})),  # the degree above
        SeveriKey(6, 5, e2, TangencyProfile.of({1: 2, 2: 1})),
        SeveriKey.plain(8, 7),
    ]
    memo: dict = {}
    for key in keys:
        value = severi_relative(key, loaded)
        assert value == severi_relative(key, SeveriTable()) == _naive(key, memo), key.canonical()
    assert (loaded.hits, loaded.misses) == (1, len(keys) - 1)
    _check_every_entry_against_naive(loaded)


def test_builds_make_the_pairs_perfbench_counts():
    # perfbench pins these counts for fit-deep and cache-roundtrip; a build
    # that adds or drops a pair fails here too, not only in its CI job
    local = SeveriTable()
    for d, r in build_order((d, r) for d in (29, 30) for r in range(7)):
        severi(d, r, local)
    assert (len(local), len(local._packed)) == (79266, 35101)
    local = SeveriTable()
    for d, r in build_order((d, r) for d in range(1, 27) for r in range(6)):
        severi(d, r, local)
    assert len(local) == 31201
    for d, r in build_order((27, r) for r in range(6)):
        severi(d, r, local)
    assert len(local) == 34229


def test_deep_keys_build_without_recursion():
    # each key's deps form a chain of one family per degree, far deeper than
    # the default recursion limit, which the build must neither hit nor raise
    import sys

    limit = sys.getrecursionlimit()
    local = SeveriTable()
    assert severi(200, 0, local) == 1
    assert len(local) == 20299
    local = SeveriTable()
    assert severi(150, 1, local) == 3 * 149**2
    assert len(local) == 45001
    assert sys.getrecursionlimit() == limit


def test_term_tables_share_their_prefixes():
    # the table for slack (or cap) s starts with the very term tuples of the
    # one for s - 1, so each term is stored once however many slacks ask for it
    from nodalcurves.severi import _gain_ids, _ids, _sub_ids

    severi(12, 3, SeveriTable())
    reached = [
        (lambda s: _gain_ids(_ids[()], 11, s), 3),
        (lambda s: _gain_ids(_ids[((1, 1),)], 10, s), 2),
        (lambda s: _sub_ids(_ids[((1, 12),)], s), 3),
        (lambda s: _sub_ids(_ids[((1, 9), (2, 1))], s), 2),
    ]
    for table, top in reached:
        assert len(table(top)) > len(table(0))
        for s in range(1, top + 1):
            longer, shorter = table(s), table(s - 1)
            assert len(longer) >= len(shorter)
            assert all(a is b for a, b in zip(longer, shorter))


# prefix-closed request sets, each degree's highest delta first, as the CLI asks
_PREFIX_CLOSED = {
    "order-4-at-19-20": [SeveriKey.plain(d, r) for d in (19, 20) for r in range(4, -1, -1)],
    "severi-table-12x4": [SeveriKey.plain(d, r) for d in range(1, 13) for r in range(4, -1, -1)],
    "tangency": [
        SeveriKey(6, r, TangencyProfile.of({1: 1, 2: 1}), TangencyProfile.of({1: 1, 2: 1}))
        for r in range(3, -1, -1)
    ],
}
_NAIVE_MEMO: dict = {}  # shared by the cases below, which reach many of the same keys


@pytest.mark.parametrize("case", sorted(_PREFIX_CLOSED))
def test_each_pair_is_built_at_its_closed_form_length(case):
    # K = k0 - E(alpha) - E(beta) for every pair, with k0 the requested delta
    # plus the requested pair's E, save the base pair 1^1|- at k0 - 1, and every
    # slot matches _naive; the naive recursion takes about 27 s on all 8,914
    # slots of degrees 19 and 20, so there it checks the slots of degree <= 12
    # and the plain values of the top degrees against the closed forms
    from nodalcurves.severi import _DELTA_SHIFT, _excess, _ids, _ID_BITS, _ID_MASK, _pairs

    requests = _PREFIX_CLOSED[case]
    local = SeveriTable()
    values = [severi_relative(key, local) for key in requests]
    first = requests[0]  # its profiles are interned once the requests have run
    k0 = first.delta + _excess[_ids[first.alpha.pairs]] + _excess[_ids[first.beta.pairs]]
    base = _ids[((1, 1),)] << _ID_BITS | _ids[()]
    width = local._width
    for pair, value in local._packed.items():
        k = (value.bit_length() - 1) // width - 1
        alpha, beta = pair >> _ID_BITS, pair & _ID_MASK
        expected = k0 - 1 if pair == base else k0 - _excess[alpha] - _excess[beta]
        assert k == expected, (case, _pairs[alpha], _pairs[beta])
    assert base in local._packed
    for flat, value in _scalars(local).items():
        alpha = TangencyProfile(_pairs[(flat >> _ID_BITS) & _ID_MASK])
        beta = TangencyProfile(_pairs[flat & _ID_MASK])
        if alpha.weight + beta.weight <= 12:
            key = SeveriKey(alpha.weight + beta.weight, flat >> _DELTA_SHIFT, alpha, beta)
            assert value == _naive(key, _NAIVE_MEMO), key.canonical()
    for key, value in zip(requests, values):
        if key.d <= 12:
            assert value == _naive(key, _NAIVE_MEMO)
        elif key.delta <= 3:
            d = key.d
            closed = [1, 3 * (d - 1) ** 2, F(3, 2) * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11)]
            closed.append(
                F(9, 2) * d**6 - 27 * d**5 + F(9, 2) * d**4 + F(423, 2) * d**3
                - 229 * d**2 - F(829, 2) * d + 525
            )
            assert value == closed[key.delta]


def test_a_too_narrow_slot_width_widens_to_the_same_values(monkeypatch, tmp_path):
    # a table started at 8-bit slots sees slot sums reach 2^8 - 1, widens in
    # steps of 32 bits, repacks and redoes the request, with the same values
    requests = [(d, r) for d in range(1, 13) for r in range(4, -1, -1)]
    wide = SeveriTable()
    expected = [severi(d, r, wide) for d, r in requests]
    monkeypatch.setattr(sys.modules["nodalcurves.severi"], "_WIDTH", 8)
    narrow = SeveriTable()
    assert narrow._width == 8
    assert [severi(d, r, narrow) for d, r in requests] == expected
    assert (narrow._width, wide._width) == (32, 64)  # the smallest multiple of 32 that holds them
    assert len(narrow) == len(wide) and _scalars(narrow) == _scalars(wide)
    # a load into an 8-bit table widens before it packs a value that does not fit
    path = tmp_path / "cache.jsonl"
    wide.save(path)
    loaded = SeveriTable.load(path)
    assert loaded._width > 8 and loaded._width % 32 == 0
    assert _scalars(loaded) == _scalars(wide)


def test_ascending_and_descending_requests_give_the_same_table():
    # each pair is built at the longest prefix its request can ask; an
    # ascending order rebuilds pairs longer, keeping their slots, and ends
    # with the very table the descending order builds once
    tangency = (TangencyProfile.of({1: 1, 2: 1}), TangencyProfile.of({1: 2}))
    keys = [SeveriKey.plain(d, r) for d in range(1, 11) for r in range(5)]
    keys += [SeveriKey(5, r, *tangency) for r in range(4)]
    up, down = SeveriTable(), SeveriTable()
    ascending = [severi_relative(key, up) for key in keys]
    descending = [severi_relative(key, down) for key in reversed(keys)][::-1]
    assert ascending == descending
    assert len(up) == len(down)
    assert sorted(_scalars(up).items()) == sorted(_scalars(down).items())
    assert up.misses > down.misses


def test_slack_far_above_the_weight_builds_only_small_partitions():
    # severi(6, 15), at the node bound 6 * 5 / 2, asks for slacks up to 15, but
    # a new contact profile's excess is below its weight, so no partition of
    # more than 5 is needed and the prefix chains stay shallower than the
    # degree; a fresh interpreter starts with empty enumeration caches and the
    # default recursion limit
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        "from nodalcurves.severi import SeveriTable, _partitions, severi\n"
        "limit, table = sys.getrecursionlimit(), SeveriTable()\n"
        "value = severi(6, 15, table)\n"
        "print(value, len(table), _partitions.cache_info().currsize)\n"
        "print(sys.getrecursionlimit() == limit)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=root
    )
    assert proc.returncode == 0, proc.stderr
    value, entries, partitions, same_limit = proc.stdout.split()
    assert (value, entries, same_limit) == ("10395", "1179", "True")
    assert int(partitions) <= 21


def test_requests_above_the_node_bound_are_zero_and_build_nothing():
    # a nonzero N(d, delta; alpha, beta) has delta + E(alpha) + E(beta) <=
    # d(d - 1)/2, so a request above that is 0 and builds no slot, whatever
    # its delta; checked against the textbook recursion at the bound and above
    for delta in (50, 5000):
        table = SeveriTable()
        assert severi(6, delta, table) == 0
        assert len(table) == 0 and table.stats()["misses"] == 0
    table = SeveriTable()
    assert severi(6, 15, table) == 10395  # 6 lines through 12 points: 12! / (2^6 6!)
    built = len(table)
    assert severi(6, 16, table) == severi(6, 5000, table) == 0
    assert len(table) == built
    memo: dict = {}
    profiles = [
        ("", "1^4"),
        ("", "3"),
        ("2", "2"),
        ("1 2", "1"),
        ("", "1 3"),
        ("2", "1^3"),
        ("", "2^2 1"),
    ]
    for alpha_text, beta_text in profiles:
        alpha, beta = TangencyProfile.parse(alpha_text), TangencyProfile.parse(beta_text)
        d = alpha.weight + beta.weight
        top = d * (d - 1) // 2 - sum((m - 1) * c for m, c in alpha.pairs + beta.pairs)
        for delta in (top, top + 1, top + 2):
            key = SeveriKey(d, delta, alpha, beta)
            fresh = SeveriTable()
            assert severi_relative(key, fresh) == _naive(key, memo), key.canonical()
            assert (len(fresh) == 0) == (delta > top), key.canonical()


@pytest.mark.parametrize("text", ["1^2,1^-1", "1^0", "1^2^3", "0", "0^2", "x", "2^", "^2"])
def test_profile_parse_rejects_tokens_outside_m_or_m_to_the_c(text):
    with pytest.raises(ValueError, match="contact token"):
        TangencyProfile.parse(text)


def test_profile_parse_adds_repeated_multiplicities():
    assert TangencyProfile.parse("1^2,1^3 2") == TangencyProfile.of({1: 5, 2: 1})
