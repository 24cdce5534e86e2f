"""Density and antenna answers against the independent rate of ``answer_oracle.py``.

The sparse scenario's x1.5 headline points (``tests/test_headline.py``): W
held at its base value meets 1.5 times the 15 Mbps target at lambda_b of
about 15.10 with one antenna, or at M = 3 with lambda_b = 10 held.
"""

from answer_oracle import check_antennas, check_density
from trs_planner.trs import required_antennas, required_density, required_spectrum

LAMBDA_U = 100.0
TARGET = 1.5 * 15.0


def test_density_answer_meets_the_oracle_rate():
    w = required_spectrum(15.0, 10.0, 1, LAMBDA_U)
    lambda_b = required_density(TARGET, w, 1, LAMBDA_U)
    assert round(lambda_b, 2) == 15.10
    passed, residual = check_density(TARGET, w, 1, lambda_b, LAMBDA_U, 4.0)
    assert passed, residual


def test_antenna_answer_is_the_least_count_meeting_the_oracle_rate():
    w = required_spectrum(15.0, 10.0, 1, LAMBDA_U)
    antennas = required_antennas(TARGET, w, 10.0, LAMBDA_U)
    assert antennas == 3
    passed, residual, below = check_antennas(TARGET, w, 10.0, antennas, LAMBDA_U, 4.0)
    assert passed, (residual, below)
