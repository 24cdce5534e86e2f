"""Spectral efficiency against the independent mpmath oracle of ``se_oracle.py``."""

import pytest

from se_oracle import CERTIFIED_ABS, ORACLE_MAX_ERR, oracle_se
from trs_planner.coverage import spectral_efficiency


# (p_a, M, alpha): low and full activity, alpha from 3 to 4.5, M <= 4 to keep
# the oracle to about a second a point
@pytest.mark.parametrize("p_a, antennas, alpha", [
    (0.5, 1, 4.0), (0.2, 2, 3.5), (0.9, 4, 4.0), (0.05, 3, 4.5), (0.6, 4, 3.0),
])
def test_spectral_efficiency_matches_oracle(p_a, antennas, alpha):
    exact, err = oracle_se(p_a, antennas, alpha)
    assert err <= ORACLE_MAX_ERR
    assert abs(spectral_efficiency(p_a, antennas, alpha) - float(exact)) <= CERTIFIED_ABS
