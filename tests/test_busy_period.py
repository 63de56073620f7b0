import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transient_queue import (CycleMoments, Deterministic, Erlang, Exponential,
                             HyperExponential, QueueModel, Uniform,
                             busy_cramer_abscissa, busy_lst, busy_mean,
                             cycle_moments, parse_service_spec, simulate_cycle)

from oracles import (erlang_busy_abscissa_closed_form,
                     md1_busy_abscissa_closed_form,
                     mm1_busy_abscissa_closed_form, mm1_busy_lst_closed_form)

MM1 = QueueModel(0.5, Exponential(1.0))

STABLE_MODELS = [
    MM1,
    QueueModel(0.8, Exponential(1.0)),
    QueueModel(0.5, Deterministic(1.0)),
    QueueModel(0.3, Erlang(2, 2.0)),
    QueueModel(0.4, HyperExponential((0.3, 0.7), (1.0, 2.0))),
    QueueModel(0.6, Uniform(0.5, 1.5)),
]


def test_queue_model_rejects_unstable():
    with pytest.raises(ValueError, match="rho"):
        QueueModel(2.0, Exponential(1.0))
    with pytest.raises(ValueError, match="rho"):
        QueueModel(1.0, Deterministic(1.0))


def test_queue_model_rejects_non_finite_rate():
    for lam in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            QueueModel(lam, Exponential(1.0))


def test_busy_lst_examples():
    assert busy_lst(MM1, 0.0) == pytest.approx(1.0, abs=1e-10)
    for s in (0.1, 1.0):
        assert busy_lst(MM1, s) == pytest.approx(
            mm1_busy_lst_closed_form(0.5, 1.0, s), abs=1e-10)


def test_busy_lst_rejects_negative_s():
    for s in (-0.01, math.nan):
        with pytest.raises(ValueError, match="s >= 0"):
            busy_lst(MM1, s)


@pytest.mark.parametrize("model", STABLE_MODELS,
                         ids=lambda m: m.service.spec_string())
def test_busy_lst_decreasing_and_bounded(model):
    s_grid = np.linspace(0.0, 5.0, 26)
    values = [busy_lst(model, float(s)) for s in s_grid]
    assert all(0.0 < v <= 1.0 + 1e-12 for v in values)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("rho", [0.5, 0.999, 0.9999])
def test_mm1_busy_lst_is_the_closed_form_to_rounding(rho):
    # the root is flat to first order 1 - rho at s = 0, so rounding in
    # beta moves it by about eps / (1 - rho)
    model = QueueModel(rho, Exponential(1.0))
    bound = 10.0 * sys.float_info.epsilon / (1.0 - rho)
    for s in [0.0, 1e-6, *np.linspace(0.01, 5.0, 100).tolist()]:
        exact = mm1_busy_lst_closed_form(rho, 1.0, s)
        assert abs(busy_lst(model, s) - exact) <= bound, s


FIVE_LAWS = ["exp:rate=1", "det:value=1", "erlang:shape=2,rate=2",
             "hyperexp:w=0.3|0.7,rate=1|2", "uniform:lo=0.5,hi=1.5"]


@pytest.mark.parametrize("spec", FIVE_LAWS)
@pytest.mark.parametrize("rho", [0.5, 0.99, 0.9999, 0.99999])
def test_busy_lst_in_heavy_traffic(spec, rho, monkeypatch):
    # in [0, 1] and nonincreasing in s, out to s = inf, each call at
    # most 40 evaluations of the service transform
    service = parse_service_spec(spec)
    model = QueueModel(rho / service.moment(1), service)
    calls = []
    lst = type(service).lst
    monkeypatch.setattr(type(service), "lst",
                        lambda self, s: calls.append(s) or lst(self, s))
    s_grid = [0.0, 1e-12, 1e-6, *np.geomspace(1e-4, 1e4, 60).tolist(),
              math.inf]
    values = []
    for s in s_grid:
        calls.clear()
        values.append(busy_lst(model, s))
        assert len(calls) <= 40, s
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("model", STABLE_MODELS,
                         ids=lambda m: m.service.spec_string())
def test_busy_lst_slope_matches_mean(model):
    h = 1e-5
    slope = -(busy_lst(model, h) - busy_lst(model, 0.0)) / h
    assert slope == pytest.approx(busy_mean(model), rel=1e-3)


def test_busy_mean_examples():
    assert busy_mean(MM1) == 2.0
    assert busy_mean(QueueModel(0.5, Deterministic(1.0))) == 2.0
    assert busy_mean(QueueModel(0.8, Exponential(1.0))) == pytest.approx(5.0)


def test_cycle_moments_mm1():
    cm = cycle_moments(MM1)
    assert cm.cycle_mean == pytest.approx(4.0)
    assert cm.cycle_mean == pytest.approx(1.0 / MM1.arrival_rate + cm.busy_mean,
                                          abs=1e-12)
    assert cm.cycle_second == pytest.approx(32.0)
    assert cm.cycle_second / (2 * cm.cycle_mean**2) == pytest.approx(1.0)


@pytest.mark.parametrize("model", [MM1, QueueModel(0.5, Deterministic(1.0))],
                         ids=("mm1", "md1"))
def test_cycle_moments_vs_simulation(model):
    cm = cycle_moments(model)
    n = 100_000
    rng = np.random.default_rng([314, 4, 0])
    busy = np.empty(n)
    total = np.empty(n)
    for i in range(n):
        path = simulate_cycle(model, rng)
        busy[i] = path.busy_length
        total[i] = path.cycle_length
    # crude stderr for the second moment via the fourth-moment bound of a
    # cycle sample; generous factors keep this a 3-sigma-style check
    assert busy.mean() == pytest.approx(cm.busy_mean, rel=0.05)
    assert total.mean() == pytest.approx(cm.cycle_mean, rel=0.03)
    assert np.mean(total**2) == pytest.approx(cm.cycle_second, rel=0.15)


def test_cycle_moments_jensen_guard():
    with pytest.raises(ValueError):
        CycleMoments(busy_mean=1.0, cycle_mean=4.0, cycle_second=15.0)


def test_abscissa_examples():
    got = busy_cramer_abscissa(MM1, tol=1e-5)
    assert got == pytest.approx(mm1_busy_abscissa_closed_form(0.5, 1.0),
                                abs=1e-4)
    got = busy_cramer_abscissa(QueueModel(0.25, Exponential(1.0)), tol=1e-5)
    assert got == pytest.approx(0.25, abs=1e-4)


ABSCISSA_CASES = [
    *(pytest.param(QueueModel(lam, Exponential(1.0)),
                   mm1_busy_abscissa_closed_form(lam, 1.0), id=f"mm1-{lam}")
      for lam in (0.5, 0.9, 0.98)),
    *(pytest.param(QueueModel(lam, Deterministic(1.0)),
                   md1_busy_abscissa_closed_form(lam, 1.0), id=f"md1-{lam}")
      for lam in (0.5, 0.9)),
    *(pytest.param(QueueModel(lam, Erlang(2, 2.0)),
                   erlang_busy_abscissa_closed_form(lam, 2, 2.0),
                   id=f"erlang-{lam}")
      for lam in (0.5, 0.9)),
    # short service time: the maximizer sits at z = ln(0.5) / 0.1 < -1, so
    # the bracket for bounded service has to grow before the search
    pytest.param(QueueModel(5.0, Deterministic(0.1)),
                 md1_busy_abscissa_closed_form(5.0, 0.1), id="md1-fast"),
    # heavy traffic: z* -> 0, so an absolute bracket width loses s*
    *(pytest.param(QueueModel(lam, Exponential(1.0)),
                   mm1_busy_abscissa_closed_form(lam, 1.0), id=f"mm1-{lam}")
      for lam in (0.999, 0.9999)),
    *(pytest.param(QueueModel(lam, Deterministic(1.0)),
                   md1_busy_abscissa_closed_form(lam, 1.0), id=f"md1-{lam}")
      for lam in (0.999, 0.9999)),
    *(pytest.param(QueueModel(lam, Erlang(2, 2.0)),
                   erlang_busy_abscissa_closed_form(lam, 2, 2.0),
                   id=f"erlang-{lam}")
      for lam in (0.999, 0.9999)),
]


@pytest.mark.parametrize("model, expected", ABSCISSA_CASES)
def test_abscissa_matches_closed_form(model, expected):
    assert busy_cramer_abscissa(model) == pytest.approx(expected, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.05, 0.99), mu=st.floats(0.95, 4.0),
       s=st.floats(0.0, 4.0))
def test_busy_lst_matches_closed_form_mm1(lam, mu, s):
    if lam / mu >= 0.99:
        return
    model = QueueModel(lam, Exponential(mu))
    assert busy_lst(model, s) == pytest.approx(
        mm1_busy_lst_closed_form(lam, mu, s), abs=1e-12)
