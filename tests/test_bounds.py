import json
import pathlib

import pytest

from chancomp.bounds import (
    lb_measured_qcm,
    lb_qcm_isometry,
    lb_random_qcm,
    param_count_extreme,
    table1,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_bounds.json").read_text()
)


def test_lb_random_hand_values():
    assert lb_random_qcm(1, 1) == 2
    assert lb_random_qcm(1, 2) == 5
    assert lb_random_qcm(2, 2) == 23
    # m = 0 reduces to ceil((2^n - 1)/2 - 3n/4)
    assert lb_random_qcm(0, 3) == 2  # ceil(3.5 - 2.25)
    assert lb_random_qcm(0, 1) == 0


def test_lb_measured_hand_values():
    assert lb_measured_qcm(1, 2) == 2
    assert lb_measured_qcm(2, 2) == 2
    assert lb_measured_qcm(2, 1) == 0


def test_lb_measured_corollary_value():
    # n < m branch: ceil((4^n - 3n - 1)/6) = ceil(9/6) for (3, 2)
    assert lb_measured_qcm(3, 2) == 2


def test_lb_qcm_isometry_hand_values():
    assert lb_qcm_isometry(1, 1) == 0
    assert lb_qcm_isometry(1, 2) == 2
    assert lb_qcm_isometry(0, 1) == 0


def test_param_count_hand_values():
    assert param_count_extreme(1, 1) == 8
    assert param_count_extreme(2, 2) == 96
    assert param_count_extreme(0, 3) == 14  # 2^{n+1} - 2


@pytest.mark.parametrize("m", range(6))
@pytest.mark.parametrize("n", range(6))
def test_bounds_match_golden_grid(m, n):
    want = GOLDEN[f"{m},{n}"]
    assert lb_random_qcm(m, n) == want["lb_random"]
    assert lb_measured_qcm(m, n) == want["lb_measured"]
    assert lb_qcm_isometry(m, n) == want["lb_qcm_isometry"]
    assert param_count_extreme(m, n) == want["param_count_extreme"]


@pytest.mark.parametrize("m", range(6))
def test_lower_bounds_monotone_in_n(m):
    for fn in (lb_random_qcm, lb_measured_qcm, lb_qcm_isometry):
        vals = [fn(m, n) for n in range(6)]
        assert vals == sorted(vals), (fn.__name__, m, vals)


def test_measured_at_most_random_when_m_le_n():
    for m in range(1, 6):
        for n in range(m, 6):
            assert lb_measured_qcm(m, n) <= lb_random_qcm(m, n)


def test_table1_report():
    rep = table1(1, 2)
    assert rep.lb_measured == 2
    assert rep.ub_asymptotic_qcm == 4**3
    assert rep.ub_asymptotic_random == 2**4
    assert rep.ub_asymptotic_measured == 1 * 2**3 + 2**3
    assert (rep.qubits_qcm, rep.qubits_random, rep.qubits_measured) == (5, 3, 2)


def test_table1_qubit_columns():
    assert table1(2, 1).qubits_measured == 3   # m + 1
    assert table1(1, 2).qubits_measured == 2   # n
    assert table1(1, 1).ub_asymptotic_random == 8


def test_table1_measured_upper_bound_cases():
    assert table1(2, 1).ub_asymptotic_measured == 1 * 2**5
    assert table1(2, 3).ub_asymptotic_measured == 2 * 2**5 + 2**5


def test_all_values_nonnegative():
    for m in range(6):
        for n in range(6):
            rep = table1(m, n)
            assert min(
                rep.lb_qcm, rep.lb_random, rep.lb_measured,
                rep.param_count_extreme, rep.ub_asymptotic_qcm,
                rep.ub_asymptotic_random, rep.ub_asymptotic_measured,
            ) >= 0


@pytest.mark.parametrize("m,n", [(-3, 1), (1, -1), (-1, -1)])
def test_table1_rejects_negative_sizes(m, n):
    with pytest.raises(ValueError, match="non-negative"):
        table1(m, n)


def test_table1_size_limit():
    # 4^7000 has 4,215 digits: every field still converts to str under the
    # 4,300-digit default; one qubit more is refused before any power
    rep = table1(7000, 0)
    assert len(str(rep.ub_asymptotic_qcm)) == 4215
    for m, n in [(7000, 1), (5_000_000, 1), (100_000_000_000, 1)]:
        with pytest.raises(ValueError, match="at most 7000"):
            table1(m, n)
