"""Interference-distribution coefficients k_i(T, alpha) by hypergeometric series.

Each coefficient is a closed-form prefactor times ``2F1(a, b; c; -T)``, where
``T`` is a linear SINR threshold spanning several decades.  The defining
series diverges for ``T > 1``, so every row is first mapped by Pfaff

    w = T / (1 + T) in [0, 1),    2F1(a, b; c; -T) = (1+T)^(-a) 2F1(a, c-b; c; w)

which, for the coefficient families used here, turns one numerator parameter
into 1 and yields a series of non-negative terms (no cancellation).
:func:`_row` gives the mapped series of each order, and :func:`_connect`
finishes a connection-formula row (below).

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
sized first block of ``16 + 40/(1-x)`` terms at series argument ``x`` (a
series whose term ratio tends to ``x`` falls below the stop tolerance after
about ``37/(1-x)`` terms).  It takes many ``(threshold, start, stop)`` jobs
at one ``alpha``, so the rows of many thresholds share one pass: they are
grouped by budget, sorted by sized-block length and summed as 2-D blocks,
one row per series, each row with its own ``a``, ``c``, scale and argument
as columns, then given its finish.

Why a batched row keeps the bits of :func:`_series`: every step is an
elementwise IEEE operation on that row's own columns (``cumprod`` and
``cumsum`` run sequentially along the row), so a row's terms do not depend
on its neighbours.  A block padded to the longest row of its batch is still
a prefix of the row's own first ``_BLOCK``-term block, so its first stop
window, if inside, is the one :func:`_series` finds, and the summed slice
has the same length and values.  A row outrunning its block, and a
near-unit direct row whose argument gets no sized block, is summed by
:func:`_series`.

Coefficient tables: :func:`coefficient_table` keeps, per ``(T, alpha)``, the
longest prefix ``k_0 .. k_{n-1}`` computed so far and extends it on demand,
for one threshold or for many in one :func:`_coeff_range` call.
:func:`coeff_k` computes its one row as a one-row job, uncached.
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
# padding cells a batched block may add to save a block of its own, about
# the cells summed in a block's fixed numpy cost
_PAD_CELLS = 1 << 10
# coefficients held by the table cache across all (threshold, alpha) pairs
_TABLE_CACHE_COEFFS = 1 << 17


# the term indices n and n + 1 of a block starting at 0, shared read-only
_IDX = np.arange(_BLOCK, dtype=np.float64)
_IDX1 = _IDX + 1.0
_IDX.flags.writeable = False
_IDX1.flags.writeable = False


class HypergeometricError(ArithmeticError):
    """Series evaluation failed to converge within its iteration budget."""

    def __init__(self, message, a, b, c, z):
        super().__init__(f"{message} [a={a!r}, b={b!r}, c={c!r}, z={z!r}]")
        self.a = a
        self.b = b
        self.c = c
        self.z = z


def _block(a, c, w, n, m, term, total):
    """Terms ``n .. n+m-1`` of the series and their below-tolerance flags.

    ``term`` is the term before the block and ``total`` the partial sum so
    far.  Scalars give one row; column arrays for ``a``, ``c``, ``w``,
    ``term`` and ``total`` give one row per series, each with the same
    arithmetic.  Two arrays are allocated; every other step runs in place.
    The ``(b+n)`` factor of ``2F1(a, b; c; w)`` at ``b = 1`` is the
    ``n + 1.0`` array (``1.0 + n == n + 1.0`` in IEEE arithmetic), and every
    term and partial sum is non-negative, so the stop test takes no ``abs``.
    """
    idx, idx1 = _IDX[:m], _IDX1[:m]
    if n:
        idx = idx + n
        idx1 = idx + 1.0
    terms = a + idx
    terms *= idx1
    partials = c + idx
    partials *= idx1
    terms /= partials
    terms *= w
    np.cumprod(terms, axis=-1, out=terms)
    terms *= term
    np.cumsum(terms, axis=-1, out=partials)
    partials += total
    np.maximum(partials, 1e-300, out=partials)
    partials *= _STOP_REL
    return terms, terms < partials


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


def _head_sums(a, c, w, scales, m):
    """``_series`` results from an ``m``-term first block, one per row.

    ``a``, ``c``, ``w`` and ``scales`` are column arrays, one row per series.
    A row whose stop window does not fall inside the block gives None.
    """
    terms, small = _block(a, c, w, 0, m, scales, scales)
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


def _series(a, c, w, scale, max_terms):
    """Sum ``scale * 2F1(a, 1; c; w)`` by blocked term recurrence.

    Requires ``0 <= w < 1``.  Terms follow
    ``t_{n+1} = t_n * (a+n)(1+n) / ((c+n)(n+1)) * w`` starting from
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
        terms, small = _block(a, c, w, n, m, term, total)

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
    raise HypergeometricError("series did not converge within budget", a, 1.0, c, w)


def _row(i: int, t: float, delta: float, w: float):
    """The series behind ``k_i`` at threshold ``t`` and ``w = t/(1+t)``.

    Returns ``(x, budget, a, c, scale, connected)``: ``k_i`` is the sum
    ``_series(a, c, x, scale, budget)``, passed through :func:`_connect`
    when ``connected``.
    """
    if i == 0:
        # k0 = delta*T/(1-delta) * 2F1(1, 1-delta; 2-delta; -T); after the
        # Pfaff map this is (delta/(1-delta)) * w * 2F1(1, 1; 2-delta; w).
        if w <= NEAR_UNIT_W:
            return w, MAX_TERMS, 1.0, 2.0 - delta, delta / (1.0 - delta) * w, False
        return 1.0 - w, MAX_TERMS, 1.0, 1.0 + delta, 1.0, True
    # k_i = delta*T^i/(i-delta) * 2F1(i+1, i-delta; i+1-delta; -T); folding the
    # overflow-prone T^i prefactor through the Pfaff map gives
    # (delta/(i-delta)) * w^i/(1+T) * 2F1(i+1, 1; i+1-delta; w).
    if w <= NEAR_UNIT_W or i * (1.0 - w) > 1.0:
        # The connection formula cancels catastrophically once i*(1-w) >> 1
        # (k_i ~ exp(-i(1-w)) while both its terms stay O(1)); the direct
        # series needs only ~37/(1-w) <~ 37*i terms there, so prefer it.
        budget = MAX_TERMS if w <= NEAR_UNIT_W else MAX_TERMS_NEAR_UNIT
        scale = delta / (i - delta) * w**i / (1.0 + t)
        return w, budget, i + 1.0, i + 1.0 - delta, scale, False
    return 1.0 - w, MAX_TERMS, i + 1.0, 2.0 + delta, 1.0, True


def _connect(i: int, t: float, delta: float, w: float, f1: float) -> float:
    """``k_i`` from the sum ``f1`` of its connection-formula series (``w > 0.99``)."""
    if i == 0:
        a0 = math.gamma(2.0 - delta) * math.gamma(-delta) / (math.gamma(1.0 - delta) ** 2)
        b0 = math.gamma(2.0 - delta) * math.gamma(delta)
        return delta / (1.0 - delta) * (a0 * w * f1 + b0 * (w * (1.0 + t)) ** delta)
    a_i = -(i - delta) / (1.0 + delta)
    b_i = math.gamma(1.0 + delta) * math.exp(float(gammaln(i + 1.0 - delta) - gammaln(i + 1.0)))
    return delta / (i - delta) * (a_i * w**i * f1 / (1.0 + t) + b_i * (w * (1.0 + t)) ** delta)


def _coeff_range(jobs, alpha: float) -> list[list[float]]:
    """k_start .. k_{stop-1} for each ``(threshold, start, stop)`` job at ``alpha``.

    Rows with a sized first block are grouped by budget and sorted by block
    length; consecutive rows are summed as one batch of first blocks, padded
    to the longest, in chunks of at most ``_BATCH_CELLS`` elements.  A chunk
    closes early when padding it to the next row would add more than
    ``_PAD_CELLS`` cells.  A row outrunning its block, or one with no sized
    block, is summed by :func:`_series`, with the same bits.  Each sum is
    then finished per row.

    The rows are kept as one flat list of the six :func:`_row` fields, not
    as an object per row: a batch holds thousands of rows, and as many live
    objects would set off the garbage collector several times per batch.
    """
    delta = 2.0 / alpha
    fields = []
    for threshold, start, stop in jobs:
        w = threshold / (1.0 + threshold)
        for i in range(start, stop):
            fields.extend(_row(i, threshold, delta, w))
    xs, budgets, a_s, cs, scales = (fields[k::6] for k in range(5))
    sums = [None] * len(xs)
    heads = [_head_terms(x, budget) for x, budget in zip(xs, budgets)]
    groups = {}
    for n, (m, budget) in enumerate(zip(heads, budgets)):
        if m < min(_BLOCK, budget):
            groups.setdefault(budget, []).append(n)
    if groups:
        columns = np.array([xs, a_s, cs, scales])[:, :, None]
    for members in groups.values():
        members.sort(key=heads.__getitem__)
        chunks, chunk, width = [], [], 0
        for n in members:
            m = heads[n]
            if chunk and ((len(chunk) + 1) * m > _BATCH_CELLS or len(chunk) * (m - width) > _PAD_CELLS):
                chunks.append((width, chunk))
                chunk = []
            chunk.append(n)
            width = m
        chunks.append((width, chunk))
        for m, chunk in chunks:
            x, a, c, scale = columns[:, chunk]
            for n, total in zip(chunk, _head_sums(a, c, x, scale, m)):
                sums[n] = total
    for n, total in enumerate(sums):
        if total is None:
            sums[n] = _series(a_s[n], cs[n], xs[n], scales[n], budgets[n])
    values, n = [], 0
    for threshold, start, stop in jobs:
        w = threshold / (1.0 + threshold)
        job = []
        for i in range(start, stop):
            job.append(_connect(i, threshold, delta, w, sums[n]) if fields[6 * n + 5] else sums[n])
            n += 1
        values.append(job)
    return values


def _check_domain(threshold: float, alpha: float) -> None:
    _check_threshold(threshold)
    _check_alpha(alpha)


def _check_threshold(threshold: float) -> None:
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")


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
    return _coeff_range([(float(threshold), int(i), int(i) + 1)], float(alpha))[0][0]


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
        """The table of one key, or None; see :meth:`get_many`."""
        return self.get_many((key,))[0]

    def get_many(self, keys) -> list:
        """The table of each key, or None; each found key becomes the most recent."""
        found = []
        with self._lock:
            for key in keys:
                table = self._tables.pop(key, None)
                if table is not None:
                    self._tables[key] = table
                found.append(table)
        return found

    def put(self, key, table: tuple[float, ...]) -> None:
        with self._lock:
            self._held += len(table) - len(self._tables.pop(key, ()))
            self._tables[key] = table
            while self._held > self._max_coeffs and len(self._tables) > 1:
                self._held -= len(self._tables.pop(next(iter(self._tables))))


_tables = _TableCache(_TABLE_CACHE_COEFFS)


def coefficient_table(size: int, threshold, alpha: float):
    """The first ``size`` coefficients k_0 .. k_{size-1} at (threshold, alpha).

    ``threshold`` may also be a list or tuple of thresholds, which gives a
    list with one table per threshold.  The cache is read for all of them
    under one lock, and every table it lacks or holds too short is extended
    in one :func:`_coeff_range` call.
    """
    if size < 1:
        raise ValueError(f"table size must be >= 1, got {size}")
    many = isinstance(threshold, (list, tuple))
    thresholds = threshold if many else (threshold,)
    for t in thresholds:
        if not 0.0 < t < math.inf:
            _check_threshold(t)
    _check_alpha(alpha)
    alpha = float(alpha)
    keys = [(float(t), alpha) for t in thresholds]
    tables = _tables.get_many(keys)
    short = {}
    for n, key in enumerate(keys):
        table = tables[n] or ()
        tables[n] = table
        if len(table) < size:
            short.setdefault(key, table)
    if short:
        jobs = [(key[0], len(table), size) for key, table in short.items()]
        grown = {}
        for (key, table), rows in zip(short.items(), _coeff_range(jobs, alpha)):
            grown[key] = table + tuple(rows)
            _tables.put(key, grown[key])
        tables = [grown.get(key, table) for key, table in zip(keys, tables)]
    if many:
        return [table[:size] for table in tables]
    return tables[0][:size]
