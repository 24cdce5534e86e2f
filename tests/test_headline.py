"""The paper's headline claim: the TRS of spectrum rises with the rate demanded.

Each bundled scenario holds W at its base value (the spectrum meeting its
target at its own density and one antenna) and scales the demand by 1, 1.5
and 2.  Along the density path the station density meeting the scaled demand
is solved with M held; along the antenna path the antenna count is solved
with lambda_b held.  The unit-step TRS at each solved point must rise
strictly along each path.  The expected values are the model's, to three
significant figures (ROADMAP finding F12).
"""

import pytest

from trs_planner.trs import (
    required_antennas,
    required_density,
    required_spectrum,
    trs_spectrum_antennas,
    trs_spectrum_density,
)

LAMBDA_U = 100.0
FACTORS = (1.0, 1.5, 2.0)
# scenario: (base lambda_b, base target Mbps)
SCENARIOS = {"sparse": (10.0, 15.0), "dense": (1000.0, 420.0)}
# scenario: (lambda_b per factor, TRS per factor)
DENSITY_PATH = {
    "sparse": ((10.0, 15.10, 20.34), (0.159, 0.236, 0.319)),
    "dense": ((1000.0, 3227.0, 9587.0), (35.6, 154.0, 583.0)),
}
# scenario: (M per factor, TRS per factor)
ANTENNA_PATH = {
    "sparse": ((1, 3, 6), (0.0524, 0.158, 0.319)),
    "dense": ((1, 7, 56), (0.0848, 0.701, 7.08)),
}
PRINTED = 5e-3  # relative width of three significant figures


def _strictly_rising(values):
    return all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_trs_rises_with_demand_along_the_density_path(scenario):
    lambda_b, target = SCENARIOS[scenario]
    w = required_spectrum(target, lambda_b, 1, LAMBDA_U)
    densities, magnitudes = [], []
    for factor in FACTORS:
        lam = required_density(factor * target, w, 1, LAMBDA_U)
        densities.append(lam)
        magnitudes.append(trs_spectrum_density(factor * target, lam, 1, LAMBDA_U).magnitude)
    assert _strictly_rising(magnitudes), magnitudes
    expected_densities, expected_trs = DENSITY_PATH[scenario]
    assert densities == pytest.approx(expected_densities, rel=PRINTED)
    assert magnitudes == pytest.approx(expected_trs, rel=PRINTED)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_trs_rises_with_demand_along_the_antenna_path(scenario):
    lambda_b, target = SCENARIOS[scenario]
    w = required_spectrum(target, lambda_b, 1, LAMBDA_U)
    counts, magnitudes = [], []
    for factor in FACTORS:
        m = required_antennas(factor * target, w, lambda_b, LAMBDA_U)
        counts.append(m)
        magnitudes.append(trs_spectrum_antennas(factor * target, lambda_b, m, LAMBDA_U).magnitude)
    assert _strictly_rising(magnitudes), magnitudes
    expected_counts, expected_trs = ANTENNA_PATH[scenario]
    assert counts == list(expected_counts)
    assert magnitudes == pytest.approx(expected_trs, rel=PRINTED)
