"""The published TRS tables compared at the precision the paper printed.

Every published TRS is 1/ΔW, where ΔW = W0 − W1 is the spectrum a unit step
of the lever saves and both spectra were printed to 0.01 MHz.  So the
published value fixes ΔW only to round(100/published) hundredths of a MHz,
and at ΔW of a few hundredths one quantum is a large relative error: a 20%
check there tests the paper's rounding, not the model.  Each cell here rounds
the model's W0 and W1 to 0.01 MHz the same way and asserts the signed
distance from the published ΔW in quanta, so rounding and a real model
difference no longer look alike.

Ten cells lie within 3 quanta of the paper's rounding.  Four lie far off:
dense λ_b = 100 (the only cell at ρ = 1, +32% in TRS), both M = 1 rows, and
sparse λ_b = 1.  Criteria 5 and 6 of ``test_acceptance.py`` keep asserting
the published values at 20%.
"""

import pytest
from test_acceptance import TABLE_I, TABLE_II

from trs_planner.trs import required_spectrum

LAMBDA_U = 100.0
NEAR_QUANTA = 3

# (table, row, cell) -> model ΔW minus published ΔW, in 0.01 MHz quanta
QUANTA = {
    ("antennas", "sparse", 1): 20,
    ("antennas", "sparse", 4): 0,
    ("antennas", "sparse", 8): 3,
    ("antennas", "sparse", 16): 1,
    ("antennas", "dense", 1): -25,
    ("antennas", "dense", 4): 0,
    ("antennas", "dense", 8): 1,
    ("antennas", "dense", 16): 1,
    ("density", "sparse", 1.0): -52,
    ("density", "sparse", 5.0): -2,
    ("density", "sparse", 10.0): 1,
    ("density", "dense", 100.0): -58,
    ("density", "dense", 500.0): 1,
    ("density", "dense", 1000.0): 0,
}
FAR_CELLS = {
    ("density", "dense", 100.0),
    ("antennas", "sparse", 1),
    ("antennas", "dense", 1),
    ("density", "sparse", 1.0),
}


def _steps():
    """(key, target rate, (lambda_b, M) before and after the step, published TRS) per cell."""
    for row, spec in TABLE_I.items():
        for m, published in spec["published"].items():
            lam = spec["lambda_b"]
            yield ("antennas", row, m), spec["rate"], ((lam, m), (lam, m + 1)), published
    for row, spec in TABLE_II.items():
        for lam, published in spec["published"].items():
            yield ("density", row, lam), spec["rate"], ((lam, 1), (lam + 1.0, 1)), published


STEPS = list(_steps())


def test_every_published_cell_is_covered():
    assert {key for key, *_ in STEPS} == set(QUANTA)
    assert {key for key, quanta in QUANTA.items() if abs(quanta) > NEAR_QUANTA} == FAR_CELLS


@pytest.mark.parametrize("key, rate, step, published", STEPS,
                         ids=["{}-{}-{:g}".format(*key) for key, *_ in STEPS])
def test_spectrum_step_in_printed_quanta(key, rate, step, published):
    w0, w1 = (required_spectrum(rate, lam, m, LAMBDA_U) for lam, m in step)
    model_quanta = round(100.0 * w0) - round(100.0 * w1)
    published_quanta = round(100.0 / published)
    assert model_quanta - published_quanta == QUANTA[key]
