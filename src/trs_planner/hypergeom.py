"""Interference-distribution coefficients k_i(T, alpha) by hypergeometric series.

Each coefficient is a closed-form prefactor times ``2F1(a, b; c; -T)``, where
``T`` is a linear SINR threshold spanning several decades.  The defining
series diverges for ``T > 1``, so every row is first mapped by Pfaff

    w = T / (1 + T) in [0, 1),    2F1(a, b; c; -T) = (1+T)^(-a) 2F1(a, c-b; c; w)

which, for the coefficient families used here, turns one numerator parameter
into 1 and yields a series of non-negative terms (no cancellation).
:func:`_row` gives the mapped series of each order and its finish (below).

Near-unit-argument handling: as ``T -> inf`` the mapped argument ``w``
approaches 1 and the series needs O(1/(1-w)) terms.  Beyond ``w > 0.99`` a
row switches to the connection formula in powers of ``1 - w`` (valid because
``c - a - b`` is never an integer for the coefficient families), which
converges in a few dozen terms for any ``T``.  The connection formula loses
accuracy for high order ``i`` when ``i * (1 - w)`` is large; in that regime
the direct series is short relative to ``i`` and is used instead.  Against
mpmath's incomplete beta, the direct rows measured within 3.2e-13 relative.
The connection rows measured within 2.9e-12 for ``alpha <= 8``, worst near
``i * (1 - w) = 1`` where the formula's two terms nearly cancel (k_1022 at
T = 1022.5, alpha = 8), and within 6.5e-12 in samples of alpha up to 1000.

Finish: each row carries ``(p, q, r, b)``, and ``k_i = p * (q * f / r + b)``
for the row's sum ``f``.  A direct row has ``p = q = r = 1`` and ``b = 0``,
which returns ``f`` exactly.  A connection row holds the formula's
prefactor, the factor of its series, ``1 + T`` and its second term, each a
Python float computed by :func:`_row` in the formula's operation order;
:func:`_coeff_range` then finishes every row with four elementwise array
operations.

Summation: :func:`_sums` is the one loop.  It sums a batch of rows, each
with its own ``a``, ``c``, scale and argument ``x`` as columns, in 2-D
numpy blocks until each row's first window of three small terms.  Most rows
stop after a few dozen terms, so a row's first block is sized to
``16 + 40/(1-x)`` terms, capped at ``_BLOCK`` (a series whose term ratio
tends to ``x`` falls below the stop tolerance after about ``37/(1-x)``
terms); later blocks hold ``_BLOCK`` terms.  No term budget is needed:
every series a valid input reaches converges geometrically.  A direct row
has ``1 - x > 1/i >= 1/1023`` (or ``x <= 0.99``) and a connection row
``x <= 1/i`` (or ``x < 0.01`` at ``i = 0``), so no row runs much past
``37 * 1023`` terms; the longest measured is k_1023 at T = 1021.5,
alpha = 2 + 1e-12, at 36,864 terms (nine blocks).  :func:`_coeff_range` takes
many ``(threshold, start, stop)`` jobs at one ``alpha``, so the rows of many
thresholds share one pass: they are sorted by first-block length, summed in
chunks padded to the longest, then given their finish.

Why a row's bits do not depend on its batch: every step is an elementwise
IEEE operation on that row's own columns, and ``cumprod`` and ``cumsum``
run sequentially along the row.  A first block padded to the longest row of
its chunk is a prefix of the row's own ``_BLOCK``-term first block, so its
first stop window, if inside, is the one full blocks find.  A row whose
window is not inside a sized first block is summed again from term 0 in
full blocks, where its terms and stop match those of the row summed alone.

Coefficient tables: :func:`coefficient_table` takes a size, an iterable of
thresholds and ``alpha``, and returns a list with one read-only float64
array per threshold; a bare threshold is no iterable and raises
``TypeError``.  It keeps one memo per ``alpha`` (:func:`_tables`, the four
most recent exponents), holding per threshold the longest prefix
``k_0 .. k_{n-1}`` computed so far as one read-only float64 array of its
own, 8 bytes a coefficient.  Every table missing or too short is extended
in one :func:`_coeff_range` call, and each becomes a new array, the old
prefix and the new rows joined by ``np.concatenate``, so no table shares
memory with another or with the batch it came from.  The new array
replaces the old one whole, so a reader holding the old array still sees
it unchanged, and no lock is taken.  No Python float or list is made per
coefficient on the way.  Callers get read-only views of the arrays the
call found or built.  :func:`coeff_k` computes its one row as a one-row
job, uncached, and returns a Python float.

Input rules: this leaf module also holds ``ConfigError`` and one check per
input rule, so every layer up to the CLI rejects a bad value with the same
error and text.  Two rules are general and take the quantity's name:
:func:`_check_positive` (finite and positive, or non-negative; thresholds,
densities, bandwidth, powers, rates, window sizes) and :func:`_check_count`
(a whole number within bounds; antenna counts, sample counts, seeds,
coefficient orders, table sizes, grid points).  Three are particular: the
path-loss exponent (:func:`_check_alpha`), the active probability
(:func:`_check_activity`) and, in :mod:`trs_planner.coverage`, zero noise.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

# Largest antenna count per station anywhere in the planner: the cost of one
# rate grows with M^2 per quadrature node.
MAX_ANTENNAS = 1024
NEAR_UNIT_W = 0.99
_BLOCK = 4096
_STOP_REL = 1e-16
# elements per temporary of a batched first block (512 KB of float64)
_BATCH_CELLS = 1 << 16
# padding cells a batched block may add to save a block of its own, about
# the cells summed in a block's fixed numpy cost
_PAD_CELLS = 1 << 10
# the largest finite float; an int beyond it cannot be converted to one
_FLOAT_MAX = sys.float_info.max


class ConfigError(ValueError):
    """A physical quantity is outside the model's domain."""


def _block(a, c, w, n, m, term, total):
    """Terms ``n .. n+m-1`` of the series and their below-tolerance flags.

    ``term`` is the term before the block and ``total`` the partial sum so
    far.  ``a``, ``c``, ``w``, ``term`` and ``total`` are column arrays, one
    row per series; ``cumprod`` and ``cumsum`` run sequentially along each
    row, so a row's bits do not depend on its neighbours.  The term indices
    ``n .. n+m-1`` are whole floats below 2**53, exact whatever ``n``.  Four
    arrays are allocated; every other step runs in place.
    The ``(b+n)`` factor of ``2F1(a, b; c; w)`` at ``b = 1`` is the
    ``n + 1.0`` array (``1.0 + n == n + 1.0`` in IEEE arithmetic), and every
    term and partial sum is non-negative, so the stop test takes no ``abs``.
    """
    idx = np.arange(n, n + m, dtype=np.float64)
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


def _head_terms(x):
    """Length of the sized first block at series argument ``x``."""
    return min(_BLOCK, 16 + int(40.0 / (1.0 - x)))


def _sums(columns, m):
    """``scale * 2F1(a, 1; c; x)`` for each row, by blocked term recurrence.

    ``columns`` stacks the column arrays ``x``, ``a``, ``c`` and ``scale``,
    one row per series, with ``0 <= x < 1``.  Terms follow
    ``t_{n+1} = t_n * (a+n)(1+n) / ((c+n)(n+1)) * x`` from ``t_0 = scale``,
    and a row stops at the first three consecutive terms below
    ``_STOP_REL`` times its running sum; the last flags of a block carry
    into the next, so that window may straddle a block edge.  The first
    block holds ``m`` terms and every later one ``_BLOCK``; each block's
    terms up to the stop join the row's total with Neumaier compensation.
    A row that does not stop inside a sized first block (``m < _BLOCK``) is
    summed again from term 0 in full blocks.
    """
    sums = np.empty(columns.shape[1])
    rows = np.arange(len(sums))
    n, width = 0, m
    while True:
        x, a, c, scale = columns
        if n == 0:
            total = term = scale[:, 0]
            comp = 0.0
            carry = np.zeros((len(rows), 2), dtype=bool)
        terms, small = _block(a, c, x, n, width, term[:, None], total[:, None])
        flags = np.concatenate((carry, small), axis=1)
        window = flags[:, 2:] & flags[:, 1:-1] & flags[:, :-2]
        stopped = window.any(axis=1)
        ends = np.where(stopped, window.argmax(axis=1) + 1, width).tolist()
        part = np.array([np.add.reduce(row[:end]) for row, end in zip(terms, ends)])
        t = total + part
        comp = comp + ((np.maximum(total, part) - t) + np.minimum(total, part))
        total = t
        sums[rows[stopped]] = (total + comp)[stopped]
        going = ~stopped
        if not going.any():
            return sums
        rows, columns = rows[going], columns[:, going]
        if n == 0 and width < _BLOCK:
            width = _BLOCK  # sum the rest again from term 0
            continue
        total, comp, term, carry = total[going], comp[going], terms[going, -1], flags[going, -2:]
        n += width


def _row(i: int, t: float, delta: float, w: float):
    """The series behind ``k_i`` at threshold ``t`` and ``w = t/(1+t)``, and its finish.

    Returns ``(x, a, c, scale, p, q, r, b)``: the sum
    ``f = scale * 2F1(a, 1; c; x)`` (see :func:`_sums`) gives
    ``k_i = p * (q * f / r + b)``.  A direct row has ``p = q = r = 1`` and
    ``b = 0``, which gives ``f`` itself; a connection row (``w > 0.99``)
    holds the formula's prefactor, series factor, ``1 + t`` and second term.
    """
    if i == 0:
        # k0 = delta*T/(1-delta) * 2F1(1, 1-delta; 2-delta; -T); after the
        # Pfaff map this is (delta/(1-delta)) * w * 2F1(1, 1; 2-delta; w).
        if w <= NEAR_UNIT_W:
            return w, 1.0, 2.0 - delta, delta / (1.0 - delta) * w, 1.0, 1.0, 1.0, 0.0
        a0 = math.gamma(2.0 - delta) * math.gamma(-delta) / (math.gamma(1.0 - delta) ** 2)
        b0 = math.gamma(2.0 - delta) * math.gamma(delta)
        p, q, r, b = delta / (1.0 - delta), a0 * w, 1.0, b0 * (w * (1.0 + t)) ** delta
        return 1.0 - w, 1.0, 1.0 + delta, 1.0, p, q, r, b
    # k_i = delta*T^i/(i-delta) * 2F1(i+1, i-delta; i+1-delta; -T); folding the
    # overflow-prone T^i prefactor through the Pfaff map gives
    # (delta/(i-delta)) * w^i/(1+T) * 2F1(i+1, 1; i+1-delta; w).
    if w <= NEAR_UNIT_W or i * (1.0 - w) > 1.0:
        # The connection formula cancels catastrophically once i*(1-w) >> 1
        # (k_i ~ exp(-i(1-w)) while both its terms stay O(1)); the direct
        # series needs only ~37/(1-w) <~ 37*i terms there, so prefer it.
        scale = delta / (i - delta) * w**i / (1.0 + t)
        return w, i + 1.0, i + 1.0 - delta, scale, 1.0, 1.0, 1.0, 0.0
    a_i = -(i - delta) / (1.0 + delta)
    b_i = math.gamma(1.0 + delta) * math.exp(float(gammaln(i + 1.0 - delta) - gammaln(i + 1.0)))
    p, q, r, b = delta / (i - delta), a_i * w**i, 1.0 + t, b_i * (w * (1.0 + t)) ** delta
    return 1.0 - w, i + 1.0, 2.0 + delta, 1.0, p, q, r, b


def _coeff_range(jobs, alpha: float) -> list[np.ndarray]:
    """k_start .. k_{stop-1} for each ``(threshold, start, stop)`` job at ``alpha``.

    The rows are sorted by first-block length; consecutive rows are summed
    by :func:`_sums` as one batch, padded to the longest, in chunks of at
    most ``_BATCH_CELLS`` first-block elements.  A chunk closes early when
    padding it to the next row would add more than ``_PAD_CELLS`` cells.
    Every row is then finished by its ``(p, q, r, b)`` in four elementwise
    operations on the summed array, and each job gets its rows as one
    float64 view of it.

    The rows are kept as one flat list of the eight :func:`_row` fields, not
    as an object per row: a batch holds thousands of rows, and as many live
    objects would set off the garbage collector several times per batch.
    """
    delta = 2.0 / alpha
    fields = []
    for threshold, start, stop in jobs:
        w = threshold / (1.0 + threshold)
        for i in range(start, stop):
            fields.extend(_row(i, threshold, delta, w))
    heads = [_head_terms(x) for x in fields[0::8]]
    chunks, chunk, width = [], [], 0
    for n in sorted(range(len(heads)), key=heads.__getitem__):
        m = heads[n]
        if chunk and ((len(chunk) + 1) * m > _BATCH_CELLS or len(chunk) * (m - width) > _PAD_CELLS):
            chunks.append((width, chunk))
            chunk = []
        chunk.append(n)
        width = m
    chunks.append((width, chunk))
    columns = np.array([fields[k::8] for k in range(8)])
    sums = np.empty(len(heads))
    for m, chunk in chunks:
        sums[chunk] = _sums(columns[:4, chunk, None], m)
    p, q, r, b = columns[4:]
    sums = p * (q * sums / r + b)
    values, n = [], 0
    for _, start, stop in jobs:
        values.append(sums[n : n + stop - start])
        n += stop - start
    return values


def _shown(value, text=str) -> str:
    """``text(value)`` for an error message; an int too long for it is given by its digit count."""
    try:
        return text(value)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        digits = int(math.log10(abs(value))) + 1
        digits -= abs(value) < 10 ** (digits - 1)  # log10 may round up near a power of 10
        return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


def _check_positive(value, name: str, allow_zero: bool = False) -> None:
    """Finite and > 0, or >= 0 where ``allow_zero``; an int too large for a float is not finite."""
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ConfigError(f"{name} must be finite, got {_shown(value)}")
    if value < 0.0 or value == 0.0 and not allow_zero:
        raise ConfigError(f"{name} must be {'>= 0' if allow_zero else 'positive'}, got {value}")


def _check_count(value, name: str, least: int, most: int | None = None) -> None:
    """A whole number (int or integral float) from ``least`` to ``most``; nan and inf fail.

    The bounds are compared before anything converts ``value`` to a float, so
    an int too large for one fails the cap, or passes where there is none.
    """
    if most is not None and value > most:
        raise ConfigError(f"{name} must be at most {most}, got {_shown(value)}")
    if not value >= least or value % 1:  # `% 1` is nan, so truthy, for inf
        raise ConfigError(f"{name} must be an integer >= {least}, got {_shown(value)}")


def _check_alpha(alpha: float) -> None:
    """A path-loss exponent: finite and above 2, where the interference sum converges."""
    if alpha <= 2.0:
        raise ConfigError(f"alpha must exceed 2, got {_shown(alpha)}")
    _check_positive(alpha, "alpha")


def _check_activity(p_a: float) -> None:
    """An active probability in (0, 1]."""
    if not 0.0 < p_a <= 1.0:
        why = " (an interference-free network has unbounded spectral efficiency)" if p_a <= 0 else ""
        raise ConfigError(f"active probability must lie in (0, 1], got {_shown(p_a)}{why}")


def coeff_k(i: int, threshold: float, alpha: float) -> float:
    """Interference-distribution coefficient k_i(T, alpha), non-negative.

    ``k_0`` scales the Rayleigh (single-antenna) outage; the higher orders
    fill the lower-triangular Toeplitz system used for multi-antenna outage.
    Computed as the one-row :func:`_coeff_range`, bypassing the table memo.
    """
    _check_count(i, "coefficient order", 0, MAX_ANTENNAS - 1)
    _check_positive(threshold, "threshold")
    _check_alpha(alpha)
    return float(_coeff_range([(float(threshold), int(i), int(i) + 1)], float(alpha))[0][0])


@lru_cache(maxsize=4)
def _tables(alpha: float) -> dict:
    """Longest coefficient table computed so far per threshold, for one alpha.

    Each value is a read-only float64 array that no other table shares; a
    longer table replaces the old one whole, so a concurrent reader sees one
    or the other and at worst repeats work, as with the solutions of
    :mod:`trs_planner.coverage`.  A group is not bounded in size: the tables
    of the four most recent exponents are kept whole.
    """
    return {}


def coefficient_table(size: int, thresholds, alpha: float) -> list:
    """The first ``size`` coefficients k_0 .. k_{size-1} at each threshold and ``alpha``.

    ``thresholds`` is any iterable of thresholds (a list, a tuple, a numpy
    array, a ``range``); a bare number is not one and raises ``TypeError``.
    Returns a list with one read-only float64 array of length ``size`` per
    threshold, a view of the table this call found or built.  Tables are kept
    per ``alpha`` (see :func:`_tables`), and every table that is missing or
    too short is extended in one :func:`_coeff_range` call.
    """
    _check_count(size, "table size", 1, MAX_ANTENNAS)
    keys = []
    for t in thresholds:
        if not 0.0 < t <= _FLOAT_MAX:
            _check_positive(t, "threshold")
        keys.append(float(t))
    _check_alpha(alpha)
    alpha = float(alpha)
    store = _tables(alpha)
    tables = {t: store.get(t, ()) for t in keys}
    jobs = [(t, len(table), size) for t, table in tables.items() if len(table) < size]
    for (t, _, _), rows in zip(jobs, _coeff_range(jobs, alpha) if jobs else ()):
        table = np.concatenate((tables[t], rows))
        table.setflags(write=False)
        tables[t] = store[t] = table
    return [tables[t][:size] for t in keys]
