"""Hypergeometric engine tests against independent high-precision oracles."""

import hashlib
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from trs_planner import hypergeom
from trs_planner.hypergeom import (
    coeff_k,
    coefficient_table,
)

mp.mp.dps = 40
# an int too large for a float: math.isfinite and float() raise OverflowError on it
BIG = 10**400

# frozen from the extended-precision oracle below (60 dps run)
K1_T1_A4 = 0.64269908169872415
K1_T10_A4 = 2.4539254798242852
K2_T10_A4 = 0.59282021293127792
K0_T10_A4 = 3.9987600505576614


def oracle_2f1(a, b, c, z, tail=1e-30):
    """Brute-force series in mpmath at the exactly-transformed argument.

    Independent of the library code path: plain rational/big-float term
    recurrence, term cap adapted to the argument.
    """
    a, b, c, z = map(mp.mpf, (a, b, c, z))
    if z == 0:
        return mp.mpf(1)
    w = z / (z - 1)
    b2 = c - b
    terms = max(5000, int(80.0 / (1.0 - float(w))))
    t = mp.mpf(1)
    s = mp.mpf(1)
    for n in range(terms):
        t = t * (a + n) * (b2 + n) / ((c + n) * (n + 1)) * w
        s += t
        if abs(t) < tail * abs(s):
            break
    else:
        raise AssertionError("oracle did not converge; shrink the test grid")
    return (1 - z) ** (-a) * s


def oracle_k(i, threshold, alpha):
    d = mp.mpf(2) / mp.mpf(alpha)
    t = mp.mpf(threshold)
    if i == 0:
        return d * t / (1 - d) * oracle_2f1(1, 1 - d, 2 - d, -t)
    return d * t**i / (i - d) * oracle_2f1(i + 1, i - d, i + 1 - d, -t)


def integral_k(i, threshold, alpha):
    """Quadrature form of the coefficients; independent of any series."""
    half = alpha / 2.0

    if i == 0:
        def f(u):
            return threshold / (u**half + threshold)
    else:
        def f(u):
            x = threshold / (u**half + threshold)
            return x**i * (1.0 - x)

    upper = max(10.0, 50.0 * threshold ** (2.0 / alpha))
    v1 = quad(f, 1.0, upper, limit=300)[0]
    v2 = quad(f, upper, np.inf, limit=300)[0]
    return v1 + v2


def beta_k(i, threshold, alpha):
    """k_i = delta * T^delta * B_w(i - delta, 1 + delta) by mpmath's incomplete beta."""
    d = mp.mpf(2) / mp.mpf(alpha)
    t = mp.mpf(threshold)
    return d * t**d * mp.betainc(i - d, 1 + d, 0, t / (1 + t))


# the (p, q, r, b) finish of a direct row, whose sum is k_i itself
DIRECT_FINISH = (1.0, 1.0, 1.0, 0.0)


class TestCoeffK:
    def test_k0_alpha4_closed_form_grid(self):
        for t in np.geomspace(1e-3, 1e4, 120):
            expected = math.sqrt(t) * math.atan(math.sqrt(t))
            got = coeff_k(0, t, 4.0)
            assert abs(got - expected) <= 1e-10 * max(1.0, expected)

    def test_k0_vanishes_at_small_threshold(self):
        assert coeff_k(0, 1e-12, 4.0) == pytest.approx(0.0, abs=1e-11)

    def test_frozen_oracle_values(self):
        assert coeff_k(1, 1.0, 4.0) == pytest.approx(K1_T1_A4, rel=1e-12)
        assert coeff_k(1, 10.0, 4.0) == pytest.approx(K1_T10_A4, rel=1e-12)
        assert coeff_k(2, 10.0, 4.0) == pytest.approx(K2_T10_A4, rel=1e-12)

    def test_oracle_agreement_random_grid(self):
        rng = np.random.default_rng(715)
        for _ in range(25):
            i = int(rng.integers(0, 9))
            t = 10.0 ** rng.uniform(-3, 2.3)
            alpha = rng.choice([2.5, 3.0, 3.5, 4.0, 5.0])
            mine = coeff_k(i, t, alpha)
            ref = float(oracle_k(i, t, alpha))
            assert mine == pytest.approx(ref, rel=1e-9), (i, t, alpha)

    @pytest.mark.parametrize("i, threshold, alpha", [
        (102, 100.5, 2.05), (130, 101.3, 8.0), (150, 120.0, 3.0), (300, 250.0, 4.0), (402, 400.0, 4.0),
        (500, 101.5, 8.0), (600, 450.0, 2.05), (800, 700.0, 3.0), (1023, 1000.0, 4.0), (1023, 1021.5, 3.0),
        (1023, 1021.5, 2.0 + 1e-12), (1000, 999.0, 2.0000001),
    ])
    def test_near_unit_direct_rows_match_incomplete_beta(self, i, threshold, alpha):
        # i > 1 + T past w = 0.99: the direct series of about 37 * (1 + T)
        # terms, one full block at T ~ 100 and up to nine at T ~ 1000; the
        # last two are the longest series measured over valid inputs
        w = threshold / (1.0 + threshold)
        assert hypergeom._row(i, threshold, 2.0 / alpha, w)[4:] == DIRECT_FINISH
        ref = beta_k(i, threshold, alpha)
        assert float(abs(coeff_k(i, threshold, alpha) - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("i, threshold", [(1022, 1022.5), (1000, 999.5)])
    def test_connection_rows_near_switch_match_incomplete_beta(self, i, threshold):
        # i * (1 - w) just below 1: the connection formula's two terms nearly
        # cancel, so these rows are the least accurate for alpha <= 8
        w = threshold / (1.0 + threshold)
        assert hypergeom._row(i, threshold, 0.25, w)[4:] != DIRECT_FINISH
        ref = beta_k(i, threshold, 8.0)
        assert float(abs(coeff_k(i, threshold, 8.0) - ref) / ref) <= 5e-12

    def test_integral_representation_agreement(self):
        # covers the large-threshold connection path the series oracle cannot reach
        cases = [
            (0, 1e4, 4.0), (1, 1e4, 4.0), (3, 2.5e3, 3.0), (2, 500.0, 2.5),
            (5, 120.0, 5.0), (8, 1e3, 4.0), (1, 0.05, 3.5),
        ]
        for i, t, alpha in cases:
            mine = coeff_k(i, t, alpha)
            ref = integral_k(i, t, alpha)
            assert mine == pytest.approx(ref, rel=1e-7), (i, t, alpha)

    @settings(max_examples=150, deadline=None)
    @given(
        i=st.integers(0, 32),
        logt=st.floats(-3.0, 4.0),
        alpha=st.sampled_from([2.5, 3.0, 3.5, 4.0, 5.0]),
    )
    def test_non_negative(self, i, logt, alpha):
        assert coeff_k(i, 10.0**logt, alpha) >= 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        logt=st.floats(-3.0, 3.9),
        step=st.floats(0.05, 1.0),
    )
    def test_k0_strictly_increasing_in_threshold(self, logt, step):
        t = 10.0**logt
        assert coeff_k(0, t * (1.0 + step), 4.0) > coeff_k(0, t, 4.0)

    def test_domain_errors(self):
        # each raised a bare ValueError before every bad input raised ConfigError
        with pytest.raises(hypergeom.ConfigError):
            coeff_k(-1, 1.0, 4.0)
        with pytest.raises(hypergeom.ConfigError):
            coeff_k(0, 0.0, 4.0)
        with pytest.raises(hypergeom.ConfigError):
            coeff_k(0, 1.0, 2.0)

    # nan raised ValueError and inf OverflowError from int(); 1024 was computed
    @pytest.mark.parametrize("order, message", [
        (math.nan, "coefficient order must be an integer >= 0, got nan"),
        (math.inf, "coefficient order must be at most 1023, got inf"),
        (2.5, "coefficient order must be an integer >= 0, got 2.5"),
        (hypergeom.MAX_ANTENNAS, "coefficient order must be at most 1023, got 1024"),
    ], ids=["nan", "inf", "fraction", "cap"])
    def test_order_is_a_count(self, order, message):
        with pytest.raises(hypergeom.ConfigError) as err:
            coeff_k(order, 1.0, 4.0)
        assert str(err.value) == message

    @pytest.mark.parametrize("order, digits", [(10**5000, 5001), (10**5000 - 1, 5000)],
                             ids=["10**5000", "10**5000-1"])
    def test_order_too_long_to_print(self, order, digits):
        # str() refuses an int of more than 4,300 digits, so the message raised ValueError
        with pytest.raises(hypergeom.ConfigError) as err:
            coeff_k(order, 1.0, 4.0)
        assert str(err.value) == f"coefficient order must be at most 1023, got an integer of {digits} digits"


class TestCoefficientTable:
    def test_single_entry_closed_form(self):
        table = coefficient_table(1, 1.0, 4.0)
        assert isinstance(table, np.ndarray)
        assert len(table) == 1
        assert table[0] == pytest.approx(math.pi / 4, rel=1e-12)

    def test_vanishing_threshold(self):
        table = coefficient_table(3, 1e-12, 4.0)
        assert all(abs(v) < 1e-11 for v in table)

    def test_two_entries_at_t10(self):
        table = coefficient_table(2, 10.0, 4.0)
        assert table[0] == pytest.approx(K0_T10_A4, rel=1e-12)
        assert table[1] == pytest.approx(K1_T10_A4, rel=1e-12)

    def test_length_and_prefix_stability(self):
        t8 = coefficient_table(8, 2.0, 3.5)
        t3 = coefficient_table(3, 2.0, 3.5)
        assert len(t8) == 8
        assert t8[:3].tolist() == t3.tolist()

    def test_tables_are_read_only_float64_arrays(self, fresh_tables):
        one = coefficient_table(3, 2.0, 3.5)
        many = coefficient_table(3, [2.0, 7.0], 3.5)
        assert type(many) is list and len(many) == 2
        for table in (one, *many):
            assert type(table) is np.ndarray and table.dtype == np.float64 and table.shape == (3,)
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
        assert type(coeff_k(1, 2.0, 3.5)) is float

    def test_size_validation(self):
        with pytest.raises(hypergeom.ConfigError):
            coefficient_table(0, 1.0, 4.0)

    # 2.5, nan and inf raised TypeError from range(); BIG ran until killed; 1025 was computed
    @pytest.mark.parametrize("size, message", [
        (2.5, "table size must be an integer >= 1, got 2.5"),
        (math.nan, "table size must be an integer >= 1, got nan"),
        (math.inf, "table size must be at most 1024, got inf"),
        (BIG, f"table size must be at most 1024, got {BIG}"),
        (hypergeom.MAX_ANTENNAS + 1, "table size must be at most 1024, got 1025"),
    ], ids=["fraction", "nan", "inf", "beyond-float", "cap"])
    def test_size_is_a_count(self, size, message):
        with pytest.raises(hypergeom.ConfigError) as err:
            coefficient_table(size, 1.0, 4.0)
        assert str(err.value) == message


# float.hex of coefficients as computed before the sized first block and the
# batched tables existed: (threshold, alpha) -> (table size, {order: bits}).
FROZEN_TABLES = {
    # w = 2/3: k_0 by its series, k_1..k_7 direct rows
    (2.0, 3.5): (8, {
        0: "0x1.e0807a760619cp+0", 1: "0x1.7418a78065027p+0", 2: "0x1.fbd8fea337517p-3",
        3: "0x1.7014a4daa75d5p-4", 4: "0x1.4b5f0cced0320p-5", 5: "0x1.4b29a6595d565p-6",
        6: "0x1.5fdefc66fd627p-7", 7: "0x1.853384d93c23ep-8",
    }),
    # w = 0.9999: k_0 and k_1..k_3 by the connection formula
    (1e4, 4.0): (4, {
        0: "0x1.3828c9fbbe2d2p+7", 1: "0x1.3a28bce0a29bap+6", 2: "0x1.3a28a2ab173c3p+4",
        3: "0x1.3a287fb9ed118p+3",
    }),
    # w = 0.9934: connection rows up to i = 150, near-unit direct rows from 152
    (150.0, 3.0): (160, {
        0: "0x1.0d1b516279d15p+6", 1: "0x1.6c1b61c68cf2fp+5", 150: "0x1.4ef6a1f828cdap-9",
        152: "0x1.44d6c8da58f27p-9", 159: "0x1.245382654701bp-9",
    }),
    # w = 0.98: direct rows spread over several batch chunks
    (50.0, 2.2): (300, {
        0: "0x1.622e5badeac77p+8", 1: "0x1.42dfc3252df55p+8", 31: "0x1.3c448f12e0a5cp-5",
        32: "0x1.26ee00e8efeb2p-5", 33: "0x1.13850490671fcp-5", 299: "0x1.3baefc9205616p-17",
    }),
}


# w = 400/401: k_402.. are near-unit direct rows (i * (1 - w) > 1) of about
# 14,800 terms, four full blocks with the stop window carried across edges;
# k_401 sits at i * (1 - w) = 1 and takes the connection formula
BLOCK_CARRY = (410, 400.0, 4.0), {
    401: "0x1.4b5ea79645fb3p-11", 402: "0x1.49892a09ef432p-11",
    405: "0x1.441c554b27850p-11", 409: "0x1.3d0d4e7c4ee08p-11",
}


@pytest.fixture
def fresh_tables():
    """An empty coefficient-table memo for the duration of one test."""
    hypergeom._tables.cache_clear()
    yield
    hypergeom._tables.cache_clear()


# sha256 of the space-joined float.hex of coefficient_table(1024, PIN_THRESHOLDS,
# alpha) for alpha in PIN_ALPHAS, recorded from the scalar reference loop that
# hypergeom._sums replaced; never re-recorded.  Rows at T = 98.9 and 99.1 get a
# sized first block of about 4,000 terms; at T = 101.3 the _BLOCK cap cuts
# theirs from 4,108 terms to a full block.  All are batched next to the
# eight-block rows of T = 1000.
PIN_THRESHOLDS = [98.9, 99.1, 101.3, 101.5, 400.0, 1000.0]
PIN_ALPHAS = (2.05, 4.0, 8.0)
PIN_DIGEST = "c1fd22fb33b030f9c8f95f29e6727b6101a1f5e8191ae7a49c393a994bf804a2"


@pytest.fixture
def series_calls(monkeypatch):
    """The ``a`` of every row summed from term 0 in full blocks, in call order."""
    calls = []
    block = hypergeom._block

    def counted(a, c, w, n, m, *args):
        if n == 0 and m == hypergeom._BLOCK:
            calls.extend(a[:, 0].tolist())
        return block(a, c, w, n, m, *args)

    monkeypatch.setattr(hypergeom, "_block", counted)
    return calls


class TestFrozenBits:
    @pytest.mark.parametrize("key", sorted(FROZEN_TABLES))
    def test_table_and_scalar_paths_keep_bits(self, fresh_tables, key):
        size, bits = FROZEN_TABLES[key]
        values = coefficient_table(size, *key)
        for i, expected in bits.items():
            assert values[i].hex() == expected, i
            assert coeff_k(i, *key).hex() == expected, i

    def test_near_unit_direct_rows_carry_across_blocks(self, fresh_tables, monkeypatch):
        (size, *key), bits = BLOCK_CARRY
        starts = []
        block = hypergeom._block

        def counted(a, c, w, n, *args):
            starts.append(n)
            return block(a, c, w, n, *args)

        monkeypatch.setattr(hypergeom, "_block", counted)
        values = coefficient_table(size, *key)
        assert max(starts) == 3 * hypergeom._BLOCK
        for i, expected in bits.items():
            assert values[i].hex() == expected, i
            assert coeff_k(i, *key).hex() == expected, i

    def test_series_outrunning_sized_block_keeps_bits(self, series_calls):
        # needs 583 terms, more than its sized block (416 terms at x = 0.9),
        # so that row is summed again from term 0 in a full block; the bits
        # are those of the series with b = 1 before b was dropped
        assert hypergeom._head_terms(0.9) == 416
        columns = np.array([[0.9], [20.0], [9.0], [1.0]])[:, :, None]
        for m in (416, hypergeom._BLOCK):
            (total,) = hypergeom._sums(columns, m)
            assert total.hex() == "0x1.d4fce48a45de9p+24", m
        assert series_calls == [20.0, 20.0]

    @pytest.mark.parametrize("key", [(2.0, 3.5), (50.0, 2.2)])
    def test_rows_outrunning_batched_block_keep_bits(self, fresh_tables, series_calls, monkeypatch, key):
        # a 24-term block is too short for every row, so each one is summed
        # again from term 0 in full blocks; row i has a = i + 1 at w <= 0.99
        monkeypatch.setattr(hypergeom, "_head_terms", lambda x: 24)
        size, bits = FROZEN_TABLES[key]
        values = coefficient_table(size, *key)
        assert series_calls == [i + 1.0 for i in range(size)]
        for i, expected in bits.items():
            assert values[i].hex() == expected, i

    @pytest.mark.parametrize("key, first", [((1e4, 4.0), 1), ((1e4, 4.0), 2), ((2.0, 3.5), 1)])
    def test_grown_tables_keep_bits(self, fresh_tables, key, first):
        # the extension batches k_1.. without k_0, or from k_2 on
        size, bits = FROZEN_TABLES[key]
        coefficient_table(first, *key)
        values = coefficient_table(size, *key)
        assert [values[i].hex() for i in bits] == list(bits.values())

    @pytest.mark.parametrize("key, size", [((1e4, 4.0), 4), ((2.0, 3.5), 1)])
    def test_batched_rows_make_no_scalar_call(self, fresh_tables, series_calls, key, size):
        # k_0 joins the connection rows at w = 0.9999 and the direct rows at w = 2/3
        values = coefficient_table(size, *key)
        assert series_calls == []
        assert [v.hex() for v in values] == [FROZEN_TABLES[key][1][i] for i in range(size)]

    def test_growth_order_does_not_change_tables(self, fresh_tables):
        tables = {}
        for order in ((3, 8), (8, 3)):
            hypergeom._tables.cache_clear()
            tables[order] = [coefficient_table(n, 2.0, 3.5).tolist() for n in order]
        assert tables[(3, 8)] == tables[(8, 3)][::-1]

    def test_stored_tables_are_arrays_and_bounded(self, fresh_tables):
        maxsize = hypergeom._tables.cache_info().maxsize
        assert maxsize is not None
        for alpha in np.linspace(2.5, 6.0, maxsize + 3):
            for size in (2, 5, 3):
                coefficient_table(size, [2.0, 7.0], float(alpha))
            assert hypergeom._tables.cache_info().currsize <= maxsize
        group = hypergeom._tables(6.0)
        assert sorted(group) == [2.0, 7.0]
        assert all(
            type(table) is np.ndarray and table.dtype == np.float64 and not table.flags.writeable
            and len(table) == 5 for table in group.values()
        )

    def test_stored_tables_hold_eight_bytes_a_coefficient(self, fresh_tables):
        # what the memo holds is what clearing it frees: 8 B a coefficient and
        # about 200 B a table here, where a tuple of floats held about 32 B a
        # coefficient
        thresholds = [0.5, 7.0, 150.0, 2e4]
        coefficient_table(2, [1.0], 3.0)  # first-call allocations outside the memo
        hypergeom._tables.cache_clear()
        tracemalloc.start()
        try:
            coefficient_table(hypergeom.MAX_ANTENNAS, thresholds, 4.0)
            held = tracemalloc.get_traced_memory()[0]
            hypergeom._tables.cache_clear()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 8 * hypergeom.MAX_ANTENNAS * len(thresholds) <= held
        assert held <= (8 * hypergeom.MAX_ANTENNAS + 1024) * len(thresholds)

    def test_capped_and_ten_block_rows_keep_digest(self, fresh_tables):
        tables = [table for alpha in PIN_ALPHAS for table in coefficient_table(1024, PIN_THRESHOLDS, alpha)]
        text = " ".join(v.hex() for table in tables for v in table)
        assert hashlib.sha256(text.encode()).hexdigest() == PIN_DIGEST

    def test_stop_window_straddles_block_edges(self, monkeypatch):
        # unit terms, with each row's small-term flags at fixed term positions
        # (row r has a = r): the window's third term is its stop, so a row's
        # sum is the count of terms up to it
        edge = hypergeom._BLOCK
        small_at = [
            {edge - 2, edge - 1, edge},  # stops at offset 0 of the second block
            {edge - 1, edge, edge + 1},  # stops at offset 1
            {edge - 1, edge, edge + 2, 2 * edge + 3, 2 * edge + 4, 2 * edge + 5},  # no window at the edge
            {2 * edge - 1, 2 * edge, 2 * edge + 1},  # offset 1 of the third block
        ]

        def unit_block(a, c, w, n, m, term, total):
            positions = np.arange(n, n + m)
            small = np.array([np.isin(positions, list(small_at[int(r)])) for r in a[:, 0]])
            return np.ones(small.shape), small

        monkeypatch.setattr(hypergeom, "_block", unit_block)
        columns = np.zeros((4, len(small_at), 1))
        columns[1, :, 0] = range(len(small_at))
        sums = hypergeom._sums(columns, edge)
        assert sums.tolist() == [edge + 1, edge + 2, 2 * edge + 6, 2 * edge + 2]

    @pytest.mark.parametrize("threshold, alpha", [
        (math.nan, 4.0), (math.inf, 4.0), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_non_finite_domain_errors(self, threshold, alpha):
        with pytest.raises(ValueError, match="finite"):
            coeff_k(0, threshold, alpha)
        with pytest.raises(ValueError, match="finite"):
            coefficient_table(2, threshold, alpha)


# thresholds either side of w = 0.99 (T = 99), where k_0 and the low orders
# switch to the connection formula, and of 1 - w = 40/4096 (T = 101.4), where
# the near-unit direct rows lose their sized first block
BATCH_THRESHOLDS = [0.5, 98.9, 99.1, 101.3, 101.5, 1e4]
BATCH_SIZE = 120  # direct rows return at i * (1 - w) > 1, so i > 100 near w = 0.99


class TestBatchedTables:
    """Many thresholds in one call give every bit of one threshold at a time."""

    @pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0, 8.0])
    def test_fresh_tables_match_one_at_a_time(self, fresh_tables, alpha):
        batched = coefficient_table(BATCH_SIZE, BATCH_THRESHOLDS, alpha)
        for t, table in zip(BATCH_THRESHOLDS, batched):
            assert len(table) == BATCH_SIZE
            assert [v.hex() for v in table] == [coeff_k(i, t, alpha).hex() for i in range(BATCH_SIZE)], t
        hypergeom._tables.cache_clear()
        alone = [coefficient_table(BATCH_SIZE, t, alpha) for t in BATCH_THRESHOLDS]
        assert [[v.hex() for v in table] for table in batched] == [
            [v.hex() for v in table] for table in alone
        ]

    @pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0, 8.0])
    def test_grown_tables_match_one_at_a_time(self, fresh_tables, alpha):
        # some tables cached short, one absent, one already long enough
        coefficient_table(3, BATCH_THRESHOLDS[1:4], alpha)
        coefficient_table(BATCH_SIZE + 5, BATCH_THRESHOLDS[-1], alpha)
        grown = coefficient_table(BATCH_SIZE, BATCH_THRESHOLDS, alpha)
        hypergeom._tables.cache_clear()
        alone = [coefficient_table(BATCH_SIZE, t, alpha) for t in BATCH_THRESHOLDS]
        assert [[v.hex() for v in table] for table in grown] == [
            [v.hex() for v in table] for table in alone
        ]

    def test_one_extension_for_all_misses(self, fresh_tables, monkeypatch):
        calls = []
        coeff_range = hypergeom._coeff_range

        def counted(jobs, alpha):
            calls.append(list(jobs))
            return coeff_range(jobs, alpha)

        monkeypatch.setattr(hypergeom, "_coeff_range", counted)
        coefficient_table(2, [1.0, 2.0], 4.0)
        tables = coefficient_table(4, [2.0, 3.0, 1.0, 3.0], 4.0)
        assert calls == [[(1.0, 0, 2), (2.0, 0, 2)], [(2.0, 2, 4), (3.0, 0, 4), (1.0, 2, 4)]]
        assert tables[1].tolist() == tables[3].tolist() and all(len(table) == 4 for table in tables)
        assert [table.tolist() for table in coefficient_table(4, (3.0,), 4.0)] == [tables[1].tolist()]
        assert len(calls) == 2

    def test_concurrent_callers_get_cold_tables(self, fresh_tables):
        # one exponent more than the memo keeps, so groups are dropped while
        # in use, and tables are grown and replaced without a lock
        n_alphas = hypergeom._tables.cache_info().maxsize + 1
        jobs = [(size, t, float(alpha)) for alpha in np.linspace(3.0, 5.0, n_alphas)
                for t in (0.5, 99.1, 1e4) for size in (2, 7, 16, 33)] * 3
        random.Random(7).shuffle(jobs)

        def bits(job):
            return [v.hex() for v in coefficient_table(*job)]

        cold = {job: [coeff_k(i, *job[1:]).hex() for i in range(job[0])] for job in set(jobs)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(bits, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [cold[job] for job in jobs]

    def test_shorter_table_stored_last_does_not_shorten_the_answer(self, monkeypatch):
        # a concurrent caller that grew the same table less may store it
        # after this one; each caller answers from the table it grew itself
        class Racing(dict):
            def __setitem__(self, key, table):
                super().__setitem__(key, table[:1])

        store = Racing()
        monkeypatch.setattr(hypergeom, "_tables", lambda alpha: store)
        size, bits = FROZEN_TABLES[2.0, 3.5]
        for n in (3, size):
            values = coefficient_table(n, [2.0], 3.5)[0]
            assert [v.hex() for v in values] == [bits[i] for i in range(n)]
        assert len(store[2.0]) == 1

    def test_many_threshold_domain_errors(self):
        with pytest.raises(ValueError, match="finite"):
            coefficient_table(2, [1.0, math.nan], 4.0)
        with pytest.raises(ValueError, match="positive"):
            coefficient_table(2, [1.0, 0.0], 4.0)
