"""Independent oracles the tests check the library against.

Everything here is deliberately built from different primitives than the
code under test: power series and mpmath's 40-digit Bessel functions
instead of backward recurrences, an ODE integrator instead of Bessel sums,
closed forms instead of fixed points, and a plain Lindley walk over the
arrivals instead of the vectorized workload kernel.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from transient_queue import Curve, McConfig, QueueModel, simulate_cycle
from transient_queue.simulate import _stream, _DOMAIN_FIRST_CYCLE, _DOMAIN_PHI


def bessel_series_scaled(n: int, x: float) -> float:
    """e^{-x} I_n(x) from the defining power series, summed with fsum."""
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    terms = []
    k = 0
    while True:
        log_term = ((2 * k + n) * math.log(x / 2.0)
                    - math.lgamma(k + 1) - math.lgamma(k + n + 1))
        terms.append(math.exp(log_term) if log_term > -745.0 else 0.0)
        if k > 2 and terms[-1] < 1e-25 * max(math.fsum(terms), 1e-300):
            break
        k += 1
        if k > 100_000:
            raise RuntimeError("series oracle did not converge")
    return math.exp(-x) * math.fsum(terms)


def mm1_busy_lst_closed_form(lam: float, mu: float, s: float) -> float:
    """Minimal root of the M/M/1 busy-period quadratic
    lam g^2 - (lam + mu + s) g + mu = 0, as 2 mu / (a + sqrt(D)): the
    discriminant D = (mu - lam)^2 + s (2 (lam + mu) + s) and everything
    after it add positive terms only, so no step cancels near rho = 1."""
    a = lam + mu + s
    disc = (mu - lam) ** 2 + s * (2.0 * (lam + mu) + s)
    return 2.0 * mu / (a + math.sqrt(disc))


def mm1_busy_abscissa_closed_form(lam: float, mu: float) -> float:
    """Where the busy-period quadratic loses its real root."""
    return lam + mu - 2.0 * math.sqrt(lam * mu)


def md1_busy_abscissa_closed_form(lam: float, d: float) -> float:
    """Busy-period abscissa of M/D/1 with service time d: the maximum of
    lam (1 - e^{-zd}) - z, attained at z = ln(lam d) / d."""
    return lam - 1.0 / d - math.log(lam * d) / d


def erlang_busy_abscissa_closed_form(lam: float, k: int, r: float) -> float:
    """Busy-period abscissa of M/E_k/1 with Erlang(k, rate r) service: the
    maximum of lam (1 - (r/(r+z))^k) - z, where (r+z)^{k+1} = lam k r^k."""
    z = (lam * k * r**k) ** (1.0 / (k + 1)) - r
    return lam * (1.0 - (r / (r + z)) ** k) - z


def birth_death_pn(lam: float, mu: float, t: float,
                   n_states: int = 200) -> np.ndarray:
    """State probabilities of the truncated birth-death chain at time t.

    Runge-Kutta integration (DOP853) of the forward equations with a
    reflecting upper boundary, from an empty system.
    """
    def rhs(_t, p):
        dp = np.empty_like(p)
        dp[0] = mu * p[1] - lam * p[0]
        dp[1:-1] = lam * p[:-2] + mu * p[2:] - (lam + mu) * p[1:-1]
        dp[-1] = lam * p[-2] - mu * p[-1]
        return dp

    p0 = np.zeros(n_states)
    p0[0] = 1.0
    sol = solve_ivp(rhs, (0.0, t), p0, method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=False)
    if not sol.success:
        raise RuntimeError(f"ODE oracle failed: {sol.message}")
    return sol.y[:, -1]


def skellam_pn(lam: float, mu: float, t: float, n_max: int) -> np.ndarray:
    """P_n(t), n = 0 .. n_max, of the M/M/1 queue started empty, as
    rho^n (d_n + d_{n+1} + (1 - rho) sum_{k >= n+2} d_k), where
    d_k = P(Poisson(mu t) - Poisson(lam t) = k) is summed from products of
    Poisson probabilities, each built by the recurrence p_j = p_{j-1} m / j.
    Every sum has positive terms only and runs until they underflow, so the
    entries are good to about 1e-13 relative while mu t stays small enough
    for e^{-mu t} to be a normal number."""
    n = n_max + 600
    j = np.arange(1, n)
    pois_mu = np.cumprod(np.concatenate([[math.exp(-mu * t)], mu * t / j]))
    pois_lam = np.cumprod(np.concatenate([[math.exp(-lam * t)], lam * t / j]))
    assert pois_mu[-1] == 0.0 and pois_lam[-1] == 0.0
    d = np.array([math.fsum(pois_mu[k:] * pois_lam[: n - k]) for k in range(n)])
    rho = lam / mu
    return np.array([rho**m * (d[m] + d[m + 1] + (1.0 - rho)
                               * math.fsum(d[m + 2:]))
                     for m in range(n_max + 1)])


def mm1_series_mp(lam: float, mu: float, t: float):
    """(phi, P_0) of the M/M/1 queue started empty, at 40 digits: the
    summands d_k = e^{-(lam+mu)t} r^k I_k(x), x = 2 sqrt(lam mu) t and
    r = sqrt(mu/lam), each from mpmath's besseli, run past their peak at
    (mu - lam) t until one falls below 1e-50 of the largest; then
    P_n = rho^n (d_n + d_{n+1} + (1 - rho) sum_{k >= n+2} d_k) and
    phi = sum_n n P_n / mu, both cut where the d_k are."""
    with mpmath.workdps(40):
        lam, mu, t = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.mpf(t)
        x = 2 * mpmath.sqrt(lam * mu) * t
        r = mpmath.sqrt(mu / lam)
        scale = mpmath.exp(-(lam + mu) * t)
        d = []
        while (len(d) < (mu - lam) * t + 2
               or d[-1] > mpmath.mpf("1e-50") * max(d)):
            d.append(scale * r ** len(d) * mpmath.besseli(len(d), x))
        d += [mpmath.mpf(0)] * 2
        tail = [mpmath.mpf(0)] * (len(d) + 1)  # tail[k] = sum_{j>=k} d_j
        for k in range(len(d) - 1, -1, -1):
            tail[k] = tail[k + 1] + d[k]
        rho = lam / mu
        pn = [rho**n * (d[n] + d[n + 1] + (1 - rho) * tail[n + 2])
              for n in range(len(d) - 1)]
        phi = mpmath.fsum(n * p for n, p in enumerate(pn)) / mu
        return float(phi), float(pn[0])


def mm1_gaps_mp(lam: float, mu: float, t: float):
    """(phi_inf - phi(t), P_0(t) - (1 - rho)) of the M/M/1 queue started
    empty, from the integrals along the branch cut of its transforms, with
    x(y) = lam + mu - 2 sqrt(lam mu) cos y:

      phi_inf - phi(t)   = (2 lam / pi) int_0^pi e^{-x(y) t} sin^2 y / x(y)^2 dy
      P_0(t) - (1 - rho) = (2 lam / pi) int_0^pi e^{-x(y) t} sin^2 y / x(y) dy

    by 40-digit quadrature on panels that double in width from the peak's
    width at y = 0 out to pi.  No term cancels, so each gap is accurate
    relative to itself at any t; at t = 0 they are lam / (mu (mu - lam))
    and rho."""
    with mpmath.workdps(40):
        lam, mu, t = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.mpf(t)
        g = mpmath.sqrt(lam * mu)

        def integrand(power):
            def f(y):
                x = lam + mu - 2 * g * mpmath.cos(y)
                return mpmath.exp(-x * t) * mpmath.sin(y) ** 2 / x**power
            return f

        # e^{-x t} peaks within 1 / sqrt(g t) of y = 0, 1 / x^2 within
        # sqrt(x(0) / g)
        width = mpmath.sqrt((lam + mu - 2 * g) / g)
        if t > 0:
            width = min(width, 1 / mpmath.sqrt(g * t))
        cuts = [mpmath.mpf(0)]
        while width < mpmath.pi:
            cuts.append(width)
            width *= 2
        cuts.append(mpmath.pi)
        scale = 2 * lam / mpmath.pi
        return (float(scale * mpmath.quad(integrand(2), cuts)),
                float(scale * mpmath.quad(integrand(1), cuts)))


def birth_death_phi(lam: float, mu: float, t: float,
                    n_states: int = 400) -> float:
    """Mean workload E N(t) / mu from the ODE oracle."""
    p = birth_death_pn(lam, mu, t, n_states)
    return float(np.dot(p, np.arange(n_states))) / mu


def rbm_mean_ratio(tau: float) -> float:
    """H_1(tau) = 1 - 2 (1 + tau) Phi^c(sqrt tau) + 2 sqrt(tau) phi(sqrt tau),
    the mean at time tau of reflected Brownian motion with drift -1 and
    variance 1 started at 0, over its stationary mean 1/2 (Abate and Whitt,
    1987): the heavy-traffic limit of phi(t) / phi_inf on the time scale
    t = tau lam E S^2 / (1 - rho)^2."""
    root = math.sqrt(tau)
    upper_tail = 0.5 * math.erfc(root / math.sqrt(2.0))
    density = math.exp(-0.5 * tau) / math.sqrt(2.0 * math.pi)
    return 1.0 - 2.0 * (1.0 + tau) * upper_tail + 2.0 * root * density


def poisson_renewal(t):
    """Renewal function (zeroth term included) for Exp(1) cycles."""
    return 1.0 + np.asarray(t, dtype=float)


def erlang2_renewal(t):
    """Renewal function (zeroth term included) for Erlang(2, rate 1) cycles."""
    t = np.asarray(t, dtype=float)
    return 1.0 + t / 2.0 - 0.25 + np.exp(-2.0 * t) / 4.0


def renewal_by_recursion(cdf_values) -> np.ndarray:
    """The discrete renewal equation the library solves, point by point in
    80-bit long double: H_0 = 1 and
    H_i = 1 + sum_{j=1}^{i} dF_j (H_{i-j} + H_{i-j+1}) / 2,
    with dF_j = F_j - F_{j-1}; the j = 1 term holds H_i itself, so each
    step divides by 1 - dF_1 / 2."""
    F = np.asarray(cdf_values, dtype=np.longdouble)
    dF = np.diff(F, prepend=F[0])
    H = np.ones(len(F), dtype=np.longdouble)
    for i in range(1, len(F)):
        lo = H[i - 1 :: -1]   # H_{i-j},     j = 1 .. i
        hi = H[i - 1 : 0 : -1]  # H_{i-j+1}, j = 2 .. i
        known = np.dot(dF[1 : i + 1], lo) + np.dot(dF[2 : i + 1], hi)
        H[i] = (1.0 + 0.5 * known) / (1.0 - 0.5 * dF[1])
    return H


def phi_by_midpoint_sums(q, H) -> np.ndarray:
    """phi_i = q_i + sum_{j=1}^{i} (H_j - H_{j-1}) (q_{i-j} + q_{i-j+1}) / 2,
    summed directly one point at a time: q against dH, with the unit atom
    at 0 and each cell's increment of H at the cell's midpoint."""
    q = np.asarray(q, dtype=float)
    dH = np.diff(np.asarray(H, dtype=float))  # H_j - H_{j-1}, j = 1 .. n-1
    phi = q.copy()
    for i in range(1, len(q)):
        # q_{i-j} and q_{i-j+1} for j = 1 .. i
        phi[i] += np.dot(dH[:i], 0.5 * (q[i - 1 :: -1] + q[i:0:-1]))
    return phi


def workload_by_lindley(epochs, services, times) -> np.ndarray:
    """Workload from empty at sorted times, by walking the sorted arrivals:
    a gap drains the workload at unit rate but not below 0, and an arrival
    adds its service, w <- max(w - gap, 0) + s."""
    out = np.zeros(len(times))
    w = 0.0     # workload just after the last arrival walked
    last = 0.0  # epoch of that arrival
    j = 0
    for i, t in enumerate(times):
        while j < len(epochs) and epochs[j] <= t:
            w = max(w - (epochs[j] - last), 0.0) + services[j]
            last = epochs[j]
            j += 1
        out[i] = max(w - (t - last), 0.0)
    return out


def cycles_by_lindley(gaps, services):
    """Areas under the workload and lengths of the regeneration cycles of a
    path from empty, by walking the arrivals one at a time: a gap that
    outlasts the workload w closes the cycle (its last piece of area is
    w^2/2), a shorter one drains w by the gap.  Returns every cycle the
    arrivals close; the last arrival's cycle stays open, its next gap
    unknown."""
    areas = []
    lengths = []
    start = 0.0
    epoch = gaps[0]
    w = services[0]
    area = 0.0
    for gap, s in zip(gaps[1:], services[1:]):
        if gap >= w:
            end = epoch + w
            areas.append(area + 0.5 * w * w)
            lengths.append(end - start)
            start, area, w = end, 0.0, 0.0
        else:
            area += w * gap - 0.5 * gap * gap
            w -= gap
        epoch += gap
        w += s
    return np.array(areas), np.array(lengths)


def phi_by_cycle_concatenation(model: QueueModel, cfg: McConfig) -> Curve:
    """Mean workload estimated by walking explicit regeneration cycles.

    Independent of the vectorized path sampler in estimate_phi: cycles are
    simulated one by one, laid end to end, and the workload is read off
    their arrivals by a Lindley walk.  Uses its own stream domain offset so
    draws never coincide.
    """
    times = cfg.grid.times()
    n = len(times)
    s1 = np.zeros(n)
    s2 = np.zeros(n)
    for rep in range(cfg.replications):
        rng = _stream(cfg.base_seed, _DOMAIN_PHI + 1000, rep)
        epochs = []
        services = []
        start = 0.0
        while start <= times[-1]:
            path = simulate_cycle(model, rng)
            epochs.extend(start + path.epochs)
            services.extend(path.services)
            start += path.cycle_length
        w = workload_by_lindley(epochs, services, times)
        s1 += w
        s2 += w * w
    mean = s1 / cfg.replications
    var = np.maximum(s2 - cfg.replications * mean**2, 0.0) / max(cfg.replications - 1, 1)
    return Curve(cfg.grid, mean, stderr=np.sqrt(var / cfg.replications))


def _mean_curve(grid, rows) -> Curve:
    """Column means of ``rows`` with their standard errors."""
    return Curve(grid, rows.mean(axis=0),
                 stderr=rows.std(axis=0, ddof=1) / math.sqrt(len(rows)))


def first_cycles_by_simulate_cycle(model: QueueModel, cfg: McConfig):
    """q, the cycle-length excess and the cycle CDF from first cycles
    simulated one at a time, as three curves.

    Independent of the block cycle cutter in first_cycle_study: each
    replication draws one cycle event by event with simulate_cycle from its
    own stream (in a domain of its own, so draws never coincide), and W is
    read off its arrivals by a Lindley walk.
    """
    times = cfg.grid.times()
    w = np.empty((cfg.replications, len(times)))
    lengths = np.empty(cfg.replications)
    for rep in range(cfg.replications):
        path = simulate_cycle(
            model, _stream(cfg.base_seed, _DOMAIN_FIRST_CYCLE + 1000, rep))
        w[rep] = workload_by_lindley(path.epochs, path.services, times)
        lengths[rep] = path.cycle_length
    excess = np.maximum(lengths[:, None] - times, 0.0)
    cdf = np.mean(lengths[:, None] <= times, axis=0)
    return (_mean_curve(cfg.grid, w), _mean_curve(cfg.grid, excess),
            Curve(cfg.grid, cdf))


def csv_text_by_cell(header, columns) -> str:
    """``header``, then one line per row of the equal-length ``columns``,
    each cell formatted on its own by Python's ``"%.17g"``."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join("%.17g" % float(x) for x in row))
    return "\n".join(lines) + "\n"
