"""Interference-distribution coefficients k_i(T, alpha) by hypergeometric series.

Each coefficient is a closed-form prefactor times ``2F1(a, b; c; -T)``, where
``T`` is a linear SINR threshold spanning several decades.  The defining
series diverges for ``T > 1``, so every row is first mapped by Pfaff

    w = T / (1 + T) in [0, 1),    2F1(a, b; c; -T) = (1+T)^(-a) 2F1(a, c-b; c; w)

which, for the coefficient families used here, turns one numerator parameter
into 1 and yields a series of non-negative terms (no cancellation).
:func:`_row` gives the mapped series of each order and its finish.

Near-unit-argument handling: as ``T -> inf`` the mapped argument ``w``
approaches 1 and the series needs O(1/(1-w)) terms.  Beyond ``w > 0.99`` a
row switches to the connection formula in powers of ``1 - w`` (valid because
``c - a - b`` is never an integer for the coefficient families), which
converges in a few dozen terms for any ``T``.  The connection formula loses
accuracy for high order ``i`` when ``i * (1 - w)`` is large; in that regime
the direct series is short relative to ``i`` and is used instead, keeping
every row accurate to ~1e-13 relative.

Summation: :func:`_series` is the reference loop, summing full numpy blocks
of ``_BLOCK`` terms until the first window of small terms.  Most rows stop
after a few dozen terms, so :func:`_coeff_range` first sums each row as a
sized first block of ``16 + 40/(1-w)`` terms (a series whose term ratio
tends to ``w`` falls below the stop tolerance after about ``37/(1-w)``
terms).  Rows sharing a series argument share that length and are evaluated
as one 2-D block, one row per order: ``k_0`` with the direct rows (in ``w``)
at ``w <= 0.99``, else with the connection rows (in ``1 - w``), each then
given its finish.  When a row's stop window lands inside the block its sum is
the one :func:`_series` gives, bit for bit, because the block is
prefix-stable: each ratio is an elementwise IEEE operation, ``cumprod`` and
``cumsum`` run sequentially, the stop is the first window, and the summed
slice has the same length and values.  A row outrunning the block, and a
near-unit direct row whose argument gets no sized block, is summed by
:func:`_series`.

Coefficient tables: :func:`coefficient_table` keeps, per ``(T, alpha)``, the
longest prefix ``k_0 .. k_{n-1}`` computed so far and extends it on demand.
:func:`coeff_k` computes its one row the same way, uncached.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.special import gammaln

MAX_TERMS = 100_000
MAX_TERMS_NEAR_UNIT = 2_000_000
NEAR_UNIT_W = 0.99
_BLOCK = 4096
_STOP_REL = 1e-16
_CONSECUTIVE_SMALL = 3
# elements per temporary of a batched first block (512 KB of float64)
_BATCH_CELLS = 1 << 16
# coefficients held by the table cache across all (threshold, alpha) pairs
_TABLE_CACHE_COEFFS = 1 << 17


class HypergeometricError(ArithmeticError):
    """Series evaluation failed to converge within its iteration budget."""

    def __init__(self, message, a, b, c, z):
        super().__init__(f"{message} [a={a!r}, b={b!r}, c={c!r}, z={z!r}]")
        self.a = a
        self.b = b
        self.c = c
        self.z = z


def _block(a, b, c, w, n, m, term, total):
    """Terms ``n .. n+m-1`` of the series and their below-tolerance flags.

    ``term`` is the term before the block and ``total`` the partial sum so
    far.  Scalars give one row; column arrays for ``a``, ``c``, ``term`` and
    ``total`` give one row per series, each with the same arithmetic.
    """
    idx = np.arange(n, n + m, dtype=np.float64)
    ratios = (a + idx) * (b + idx) / ((c + idx) * (idx + 1.0)) * w
    terms = term * ratios.cumprod(axis=-1)
    partials = total + terms.cumsum(axis=-1)
    small = abs(terms) < _STOP_REL * np.maximum(abs(partials), 1e-300)
    return terms, small


def _compensated_add(total, comp, x):
    """Neumaier step: add ``x`` to ``total``, carrying the rounding in ``comp``."""
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


def _head_terms(w, max_terms):
    """Length of the sized first block at series argument ``w``."""
    full = min(_BLOCK, max_terms)
    if 1.0 - w <= 40.0 / full:
        return full
    return min(full, 16 + int(40.0 / (1.0 - w)))


def _head_sums(a, b, c, w, scales, m):
    """``_series`` results from an ``m``-term first block, one per row.

    ``a``, ``c`` and ``scales`` are column arrays, one row per series.  A row
    whose stop window does not fall inside the block gives None.
    """
    terms, small = _block(a, b, c, w, 0, m, scales, scales)
    window = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
    sums = []
    for row, scale, first, found in zip(
        terms, scales[:, 0].tolist(), window.argmax(axis=1).tolist(), window.any(axis=1).tolist()
    ):
        if found:
            total, comp = _compensated_add(scale, 0.0, float(row[: first + 3].sum()))
            sums.append(total + comp)
        else:
            sums.append(None)
    return sums


def _series(a, b, c, w, scale, max_terms):
    """Sum ``scale * 2F1(a, b; c; w)`` by blocked term recurrence.

    Requires ``0 <= w < 1``.  Terms follow
    ``t_{n+1} = t_n * (a+n)(b+n) / ((c+n)(n+1)) * w`` starting from
    ``t_0 = scale``; blocks are accumulated with Neumaier compensation.
    Stops once _CONSECUTIVE_SMALL consecutive terms fall below
    ``_STOP_REL`` times the running partial sum.  This is the reference loop
    whose bits the batched first blocks of :func:`_coeff_range` reproduce.
    """
    if scale == 0.0 or w == 0.0:
        return scale
    total = scale
    comp = 0.0
    term = scale
    n = 0
    run = 0
    while n < max_terms:
        m = min(_BLOCK, max_terms - n)
        terms, small = _block(a, b, c, w, n, m, term, total)

        stop = -1
        if run >= _CONSECUTIVE_SMALL - 1 and m >= 1 and small[0]:
            stop = 0
        elif run >= _CONSECUTIVE_SMALL - 2 and m >= 2 and small[0] and small[1]:
            stop = 1
        if stop < 0 and m >= _CONSECUTIVE_SMALL:
            window = small[2:] & small[1:-1] & small[:-2]
            hits = np.flatnonzero(window)
            if hits.size:
                stop = int(hits[0]) + 2

        upto = m if stop < 0 else stop + 1
        total, comp = _compensated_add(total, comp, float(terms[:upto].sum()))
        if stop >= 0:
            return total + comp
        term = float(terms[-1])
        if bool(small.all()):
            run += m
        elif small[-1]:
            run = m - 1 - int(np.flatnonzero(~small)[-1])
        else:
            run = 0
        n += m
    raise HypergeometricError("series did not converge within budget", a, b, c, w)


def _unchanged(total: float) -> float:
    return total


def _row(i: int, t: float, delta: float, w: float):
    """The series behind ``k_i`` at threshold ``t`` and ``w = t/(1+t)``.

    Returns ``(x, budget, a, c, scale, finish)`` such that ``k_i`` is
    ``finish(_series(a, 1.0, c, x, scale, budget))``.
    """
    if i == 0:
        # k0 = delta*T/(1-delta) * 2F1(1, 1-delta; 2-delta; -T); after the
        # Pfaff map this is (delta/(1-delta)) * w * 2F1(1, 1; 2-delta; w).
        if w <= NEAR_UNIT_W:
            return w, MAX_TERMS, 1.0, 2.0 - delta, delta / (1.0 - delta) * w, _unchanged

        def finish(f1):
            a0 = math.gamma(2.0 - delta) * math.gamma(-delta) / (math.gamma(1.0 - delta) ** 2)
            b0 = math.gamma(2.0 - delta) * math.gamma(delta)
            return delta / (1.0 - delta) * (a0 * w * f1 + b0 * (w * (1.0 + t)) ** delta)

        return 1.0 - w, MAX_TERMS, 1.0, 1.0 + delta, 1.0, finish
    # k_i = delta*T^i/(i-delta) * 2F1(i+1, i-delta; i+1-delta; -T); folding the
    # overflow-prone T^i prefactor through the Pfaff map gives
    # (delta/(i-delta)) * w^i/(1+T) * 2F1(i+1, 1; i+1-delta; w).
    if w <= NEAR_UNIT_W or i * (1.0 - w) > 1.0:
        # The connection formula cancels catastrophically once i*(1-w) >> 1
        # (k_i ~ exp(-i(1-w)) while both its terms stay O(1)); the direct
        # series needs only ~37/(1-w) <~ 37*i terms there, so prefer it.
        budget = MAX_TERMS if w <= NEAR_UNIT_W else MAX_TERMS_NEAR_UNIT
        scale = delta / (i - delta) * w**i / (1.0 + t)
        return w, budget, i + 1.0, i + 1.0 - delta, scale, _unchanged

    def finish(f1):
        a_i = -(i - delta) / (1.0 + delta)
        b_i = math.gamma(1.0 + delta) * math.exp(float(gammaln(i + 1.0 - delta) - gammaln(i + 1.0)))
        return delta / (i - delta) * (a_i * w**i * f1 / (1.0 + t) + b_i * (w * (1.0 + t)) ** delta)

    return 1.0 - w, MAX_TERMS, i + 1.0, 2.0 + delta, 1.0, finish


def _coeff_range(start: int, stop: int, threshold: float, alpha: float) -> list[float]:
    """k_start .. k_{stop-1} at (threshold, alpha).

    Rows sharing a series argument and budget, which fix the sized first
    block, are summed as one batch of first blocks, in chunks of at most
    ``_BATCH_CELLS`` elements, and each sum is then finished per row.  A row
    outrunning its block, or a batch with no sized block, is summed by
    :func:`_series`, with the same bits.
    """
    delta = 2.0 / alpha
    w = threshold / (1.0 + threshold)
    rows = [_row(i, threshold, delta, w) for i in range(start, stop)]
    values = [None] * len(rows)
    shared = {}
    for n, row in enumerate(rows):
        shared.setdefault(row[:2], []).append(n)
    for (x, budget), members in shared.items():
        m = _head_terms(x, budget)
        if m >= min(_BLOCK, budget):
            continue
        per = max(1, _BATCH_CELLS // m)
        for lo in range(0, len(members), per):
            chunk = members[lo : lo + per]
            a, c, scales = np.array([rows[n][2:5] for n in chunk]).T[:, :, None]
            for n, total in zip(chunk, _head_sums(a, 1.0, c, x, scales, m)):
                if total is not None:
                    values[n] = rows[n][5](total)
    for n, (x, budget, a, c, scale, finish) in enumerate(rows):
        if values[n] is None:
            values[n] = finish(_series(a, 1.0, c, x, scale, budget))
    return values


def _check_domain(threshold: float, alpha: float) -> None:
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    _check_alpha(alpha)


def _check_alpha(alpha: float) -> None:
    if not math.isfinite(alpha):
        raise ValueError(f"path-loss exponent alpha must be finite, got {alpha}")
    if alpha <= 2.0:
        raise ValueError(f"path-loss exponent must exceed 2, got {alpha}")


def coeff_k(i: int, threshold: float, alpha: float) -> float:
    """Interference-distribution coefficient k_i(T, alpha), non-negative.

    ``k_0`` scales the Rayleigh (single-antenna) outage; the higher orders
    fill the lower-triangular Toeplitz system used for multi-antenna outage.
    Computed as the one-row :func:`_coeff_range`, bypassing the table cache.
    """
    if i < 0 or int(i) != i:
        raise ValueError(f"coefficient order must be a non-negative integer, got {i}")
    _check_domain(threshold, alpha)
    return _coeff_range(int(i), int(i) + 1, float(threshold), float(alpha))[0]


class _TableCache:
    """Longest known coefficient table per (threshold, alpha).

    Least recently used tables are dropped once more than ``max_coeffs``
    coefficients are held in total.
    """

    def __init__(self, max_coeffs: int):
        self._max_coeffs = max_coeffs
        self._tables: dict[tuple[float, float], tuple[float, ...]] = {}
        self._held = 0
        self._lock = threading.Lock()

    def get(self, key) -> tuple[float, ...] | None:
        with self._lock:
            table = self._tables.pop(key, None)
            if table is not None:
                self._tables[key] = table
            return table

    def put(self, key, table: tuple[float, ...]) -> None:
        with self._lock:
            self._held += len(table) - len(self._tables.pop(key, ()))
            self._tables[key] = table
            while self._held > self._max_coeffs and len(self._tables) > 1:
                self._held -= len(self._tables.pop(next(iter(self._tables))))


_tables = _TableCache(_TABLE_CACHE_COEFFS)


def coefficient_table(size: int, threshold: float, alpha: float) -> tuple[float, ...]:
    """The first ``size`` coefficients k_0 .. k_{size-1} at (threshold, alpha)."""
    if size < 1:
        raise ValueError(f"table size must be >= 1, got {size}")
    _check_domain(threshold, alpha)
    key = (float(threshold), float(alpha))
    table = _tables.get(key) or ()
    if len(table) < size:
        table += tuple(_coeff_range(len(table), size, *key))
        _tables.put(key, table)
    return table[:size]
