import math

import numpy as np
import pytest

from geoksat.weights import (check_weights, power_law_weights,
                             power_law_total_asymptotic, prefix_mass,
                             second_moment, uniform_weights, weights_from_file)


def test_power_law_values():
    w = power_law_weights(10, 3.0)
    assert w[0] == 1.0
    assert w[3] == pytest.approx(0.5)  # 4^(-1/2)
    assert np.all(np.diff(w) < 0)


def test_power_law_rejects_small_beta():
    for beta in (2.0, 1.5, -1.0):
        with pytest.raises(ValueError):
            power_law_weights(10, beta)
    with pytest.raises(ValueError):
        power_law_weights(0, 3.0)


def test_total_matches_asymptotic_leading_term():
    n = 1_000_000
    for beta in (2.5, 3.5):
        w = power_law_weights(n, beta)
        lead = power_law_total_asymptotic(n, beta)
        assert abs(math.fsum(w) / lead - 1.0) < 0.02


def test_total_is_exact_sum():
    w = check_weights([0.1] * 10)
    assert math.fsum(w) == pytest.approx(1.0, rel=1e-12)


def test_probabilities_sum_to_one():
    for w in (power_law_weights(1000, 2.5), uniform_weights(17),
              check_weights([3.0, 1.0, 2.5])):
        assert abs((w / math.fsum(w)).sum() - 1.0) < 1e-9


def test_prefix_mass_basics():
    w = uniform_weights(8)
    for i in range(1, 9):
        assert prefix_mass(w, i) == pytest.approx(i / 8)
    assert prefix_mass(power_law_weights(100, 3.0), 100) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        prefix_mass(w, 0)
    with pytest.raises(ValueError):
        prefix_mass(w, 9)


def test_prefix_mass_sorts_explicit_sequences():
    w = check_weights([1.0, 5.0, 2.0])
    assert prefix_mass(w, 1) == pytest.approx(5.0 / 8.0)


def test_prefix_mass_monotone_and_concave():
    w = power_law_weights(500, 2.7)
    vals = np.array([prefix_mass(w, i) for i in range(1, 501)])
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.diff(vals, 2) <= 1e-15)


def test_prefix_mass_power_law_shape():
    # F(i) tracks (i/n)^((beta-2)/(beta-1)) up to a constant; fit the
    # constant at one index and predict another within 10%
    beta, n = 2.5, 100_000
    w = power_law_weights(n, beta)
    expo = (beta - 2) / (beta - 1)
    const = prefix_mass(w, 10_000) / (10_000 / n) ** expo
    predicted = const * (1_000 / n) ** expo
    assert abs(prefix_mass(w, 1_000) / predicted - 1.0) < 0.10


def test_second_moment_basics():
    assert second_moment(check_weights([2.5])) == pytest.approx(1.0)
    assert second_moment(uniform_weights(64)) == pytest.approx(1 / 64)


def test_second_moment_log_regime_beta_3():
    ratios = []
    for n in (10**3, 10**4, 10**5):
        ratios.append(second_moment(power_law_weights(n, 3.0)) * n / math.log(n))
    assert max(ratios) / min(ratios) < 1.25


def test_second_moment_regimes():
    # beta < 3: sum p^2 ~ n^(-2(beta-2)/(beta-1)); beta > 3: ~ 1/n
    for beta, expo in ((2.5, 2 * (2.5 - 2) / (2.5 - 1)), (3.5, 1.0)):
        vals = []
        for n in (10**3, 10**4, 10**5):
            vals.append(second_moment(power_law_weights(n, beta)) * n**expo)
        assert max(vals) / min(vals) < 2.0


def test_rejects_bad_weights():
    for bad in ([1.0, 0.0], [1.0, -2.0], [], [1.0, math.nan],
                [1.0, math.inf], [-math.inf, 1.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            check_weights(bad)
    assert check_weights([2, 3]).dtype == float


def test_weights_file_round_trip(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("# comment\n1.5\n2.0\n\n0.25\n")
    assert np.array_equal(weights_from_file(path), [1.5, 2.0, 0.25])


@pytest.mark.parametrize("bad", [[2.0, -1.0], [1.0, math.nan], [], [1.0, 0.0],
                                 [1.0, math.inf]])
def test_moment_helpers_reject_bad_sequences(bad):
    with pytest.raises(ValueError, match="weights"):
        second_moment(bad)
    with pytest.raises(ValueError, match="weights"):
        prefix_mass(bad, 1)


def test_moment_helpers_take_plain_lists():
    assert prefix_mass([1.0, 2.0], 1) == pytest.approx(2.0 / 3.0)
    assert second_moment([1.0, 1.0]) == pytest.approx(0.5)


def test_prefix_mass_sums_exactly():
    # each 4e-17 is below half an ulp of the running prefix near 1: a plain
    # cumsum drops all of them, compensated summation keeps them
    w = check_weights([1.0] + [4e-17] * 1000)
    assert prefix_mass(w, 501) > prefix_mass(w, 1)
    assert prefix_mass(w, 1001) == pytest.approx(1.0, abs=1e-15)
