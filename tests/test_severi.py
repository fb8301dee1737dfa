"""Caporaso-Harris recursion: classical counts, tangency cases, node polynomials."""

import fcntl
import hashlib
import json
import threading
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

F = Fraction
EMPTY = TangencyProfile.empty()


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
    # the sorted key texts of severi(6, 2)
    from nodalcurves.severi import _canonical

    local = SeveriTable()
    severi(12, 3, local)
    assert len(local) == 1314
    local = SeveriTable()
    severi(6, 2, local)
    texts = "\n".join(sorted(_canonical(key) for key in local._entries))
    assert (
        hashlib.sha256(texts.encode()).hexdigest()
        == "43920305114cb0c266da219aa87bb076243341efc8bade85893875001025d1a8"
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
    assert SeveriTable.load(path)._entries == local._entries


def test_memo_keys_share_their_profiles(tmp_path):
    # a memo key packs (delta, alpha id, beta id); both ids name interned profiles
    from nodalcurves.severi import _ID_BITS, _ID_MASK, _ids, _pairs

    local = SeveriTable()
    severi(12, 3, local)
    for key in local._entries:
        for pid in ((key >> _ID_BITS) & _ID_MASK, key & _ID_MASK):
            assert _ids[_pairs[pid]] == pid
    path = tmp_path / "cache.jsonl"
    local.save(path)
    loaded = SeveriTable.load(path)
    assert set(loaded._entries) == set(local._entries)


def test_cache_load_severi_save_load_keeps_entries_and_their_order(tmp_path):
    from nodalcurves.severi import _canonical

    path = tmp_path / "cache.jsonl"
    computed = SeveriTable.load(path)  # no file yet
    value = severi(12, 3, computed)
    computed.save(path)
    loaded = SeveriTable.load(path)
    assert loaded._entries == computed._entries
    # a load inserts in file order, which is sorted by key text
    assert list(loaded._entries) == sorted(loaded._entries, key=_canonical)
    assert severi(12, 3, loaded) == value
    loaded.save(path)
    again = SeveriTable.load(path)
    assert list(again._entries.items()) == list(loaded._entries.items())


def test_cache_file_bytes_are_pinned(tmp_path):
    # existing cache files depend on the header, the key syntax and the line order
    local = SeveriTable()
    severi(4, 2, local)
    severi_relative(SeveriKey(4, 1, TangencyProfile.of({2: 1}), TangencyProfile.simple(2)), local)
    path = tmp_path / "cache.jsonl"
    local.save(path)
    data = path.read_bytes()
    assert (len(local), data.count(b"\n"), len(data)) == (48, 49, 1793)
    assert (
        hashlib.sha256(data).hexdigest()
        == "3a78f44ba55d03124958b74e303fcaf6fc37931e94eb937754f563a099ff0fd5"
    )


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
    from nodalcurves.severi import _down, _ids, _pairs, _text, _up, _weight

    table = SeveriTable()
    for d, k in [(12, 3)] * 4 + [(d, k) for d in range(2, 12) for k in range(0, 4)]:
        severi(d, k, table)
    assert all(_ids[pairs] == pid for pid, pairs in enumerate(_pairs))
    assert len(_ids) == len(_pairs) == len(_weight) == len(_text) == len(_up) == len(_down)
    path = tmp_path / "cache.jsonl"
    table.save(path)
    lines = path.read_text().splitlines()[1:]
    assert len({json.loads(line)["key"] for line in lines}) == len(lines) == len(table)


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
    from nodalcurves.severi import _new_contact_pairs

    for weight in range(0, 9):
        for cap in range(0, 5):
            generated = {(TangencyProfile(g), e) for g, e, _ in _new_contact_pairs(weight, cap)}
            expected = set()
            for parts in _partitions_of(weight):
                profile = _profile_of_parts(parts)
                excess = profile.weight - profile.size
                if excess <= cap:
                    expected.add((profile, excess))
            assert generated == expected


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
    for flat, value in table._entries.items():
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
    promoting, dropping = _check_every_entry_against_naive(local)
    assert promoting and dropping


def test_deep_keys_run_on_the_explicit_stack():
    # each key's deps form a chain through every entry, far deeper than the
    # default recursion limit, which the loop must neither hit nor raise
    import sys

    limit = sys.getrecursionlimit()
    local = SeveriTable()
    assert severi(200, 0, local) == 1
    assert len(local) == 20299
    local = SeveriTable()
    assert severi(150, 1, local) == 3 * 149**2
    assert len(local) == 44850
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("text", ["1^2,1^-1", "1^0", "1^2^3", "0", "0^2", "x", "2^", "^2"])
def test_profile_parse_rejects_tokens_outside_m_or_m_to_the_c(text):
    with pytest.raises(ValueError, match="contact token"):
        TangencyProfile.parse(text)


def test_profile_parse_adds_repeated_multiplicities():
    assert TangencyProfile.parse("1^2,1^3 2") == TangencyProfile.of({1: 5, 2: 1})
