"""The benchmark's workloads.

An op is the sequence of public library calls one CLI command makes, called
directly and in the same order, starting from the command line the user
would type (parsed with the CLI's own parser).  Models, grids, laws and the
parser are built once per process (the set-up that ``setup_s`` times).  Each
workload also knows how to check one op's output and which CLI run must
reproduce its op 0 exactly.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from transient_queue import (EXP_WITH_SQRT_T, Erlang, Exponential, McConfig,
                             Mm1Model, QueueModel, TimeGrid,
                             busy_cramer_abscissa, busy_lst, busy_mean,
                             cycle_moments, estimate_phi, estimate_stationary,
                             first_cycle_study, fit_decay_rate,
                             parse_service_spec, phi_asymptotic, phi_curve,
                             phi_via_renewal, read_curve_csv, renewal_function,
                             renewal_residual, stationary_pk, write_curve_csv)
from transient_queue.cli import build_parser
from transient_queue.renewal import Curve

# Statistical checks allow this many standard errors, so that a correct
# change which re-seeds the streams does not fail an op by chance.
K_SE = 6.0

HEAVY_SPEC = "hyperexp:w=0.5|0.5,rate=0.6|3"
FIVE_LAWS = ("exp:rate=1", "det:value=1", "erlang:shape=2,rate=2",
             HEAVY_SPEC, "uniform:lo=0.5,hi=1.5")


class CliMismatch(RuntimeError):
    """The CLI did not reproduce the op's output."""


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_grid(t_max: float, step: float) -> TimeGrid:
    """The grid the CLI builds from ``--t-max`` and ``--step``."""
    return TimeGrid(step=step, n_points=int(math.floor(t_max / step + 1e-9)) + 1)


def run_cli(root: Path, argv: list) -> str:
    """Run ``transient-queue <argv>`` from the checkout's sources; return stdout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "transient_queue.cli", *argv],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        raise CliMismatch(f"transient-queue {argv[0]} exited "
                          f"{proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _csv_columns(path) -> dict:
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}


class Workload:
    name = ""
    threads = 1
    target_se = None  # stderr that s_to_target_se aims at; None if deterministic

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.parser = build_parser()

    def prepare(self) -> None:
        """Reference values for the checks; computed outside every timed region."""

    def op(self, seed: int, span) -> dict:
        raise NotImplementedError

    def check(self, result: dict) -> list:
        """(module, message) for every property the op's output violates."""
        raise NotImplementedError

    def cli_check(self, root: Path, seed: int, result: dict) -> None:
        """Raise CliMismatch unless the CLI reproduces op ``result`` (seed ``seed``)."""
        raise NotImplementedError

    def _parse(self, argv, span):
        with span("cli.parse_args"):
            return self.parser.parse_args(argv)


class SeededWorkload(Workload):
    """A stochastic CLI command on one model and grid, seeded per op."""

    command = ""
    lam = service = t_max = step = reps = None

    def __init__(self, out_dir):
        super().__init__(out_dir)
        self.model = QueueModel(self.lam, parse_service_spec(self.service))
        self.grid = make_grid(self.t_max, self.step)

    def argv(self, seed, threads=None, output=None):
        return [self.command, "--lambda", str(self.lam),
                "--service", self.service, "--t-max", str(self.t_max),
                "--step", str(self.step), "--reps", str(self.reps),
                "--seed", str(seed), "--threads", str(threads or self.threads),
                "-o", str(output or self.out_dir / f"{self.name}.csv")]


class McPhi(SeededWorkload):
    """``transient-queue simulate`` on the paper's M/M/1 at acceptance grid."""

    name, command = "mc_phi", "simulate"
    lam, service, t_max, step, reps = 0.5, "exp:rate=1", 40.0, 0.05, 4096
    target_se = 0.005

    def prepare(self):
        exact = Mm1Model(self.lam, self.model.service.rate)
        self.reference = phi_curve(exact, self.grid)
        self.phi_inf = stationary_pk(self.model)
        # the stationary estimate's own stderr is badly low on the rare
        # short-tailed samples, so its check also allows the typical stderr
        horizon = 1000.0 * cycle_moments(self.model).cycle_mean
        self.stationary_se = float(np.median(
            [estimate_stationary(self.model, horizon, seed=s)[1]
             for s in range(1, 10)]))

    def op(self, seed, span):
        args = self._parse(self.argv(seed), span)
        cfg = McConfig(replications=args.reps, base_seed=args.seed,
                       grid=self.grid)
        with span("simulate.estimate_phi", units=args.reps,
                  sim_time=args.reps * self.grid.horizon):
            curve = estimate_phi(self.model, cfg, threads=args.threads)
        with span("renewal.write_curve_csv") as rec:
            write_curve_csv(curve, args.output)
        rec["units"] = os.path.getsize(args.output)
        with span("busy_period.cycle_moments"):
            horizon = 1000.0 * cycle_moments(self.model).cycle_mean
        with span("simulate.estimate_stationary", sim_time=horizon):
            stationary = estimate_stationary(self.model, horizon, seed=args.seed)
        return {"curve": curve, "stationary": stationary, "csv": args.output,
                "max_se2": float(np.max(curve.stderr) ** 2)}

    def check(self, result):
        bad = []
        curve, ref = result["curve"], self.reference
        diff = np.abs(curve.values - ref.values)
        se = curve.stderr
        z = np.divide(diff, se, out=np.where(diff > 0, np.inf, 0.0), where=se > 0)
        if not np.all(np.isfinite(curve.values)) or z.max() > K_SE:
            bad.append(("simulate", f"phi curve max |z| {z.max():.3g} against "
                                    f"the exact M/M/1 curve exceeds {K_SE}"))
        est, est_se = result["stationary"]
        allowed = K_SE * max(est_se, self.stationary_se)
        if not abs(est - self.phi_inf) <= allowed:
            bad.append(("simulate", f"stationary estimate {est:.4g} is not "
                                    f"within {allowed:.3g} of {self.phi_inf}"))
        return bad

    def cli_check(self, root, seed, result):
        out = self.out_dir / "cli-simulate.csv"
        summary = json.loads(run_cli(root, self.argv(seed, output=out)))
        if out.read_bytes() != Path(result["csv"]).read_bytes():
            raise CliMismatch("simulate CSV differs from the op's CSV")
        est, se = result["stationary"]
        if (summary["phi_stationary_estimate"], summary["stderr"]) != (est, se):
            raise CliMismatch("simulate stationary summary differs from the op")


class RenewalHeavy(SeededWorkload):
    """``transient-queue renewal`` on a heavy-tailed law at rho = 0.9."""

    name, command, threads = "renewal_heavy", "renewal", 2
    lam, service, t_max, step, reps = 0.9, HEAVY_SPEC, 80.0, 0.02, 1536
    target_se = 0.1

    def prepare(self):
        cm = cycle_moments(self.model)
        self.cycle_mean = cm.cycle_mean
        self.excess0_se = math.sqrt((cm.cycle_second - cm.cycle_mean**2)
                                    / self.reps)

    def op(self, seed, span):
        args = self._parse(self.argv(seed), span)
        cfg = McConfig(replications=args.reps, base_seed=args.seed,
                       grid=self.grid)
        with span("simulate.first_cycle_study", units=args.reps) as rec:
            study = first_cycle_study(self.model, cfg, threads=args.threads)
        rec["sim_time"] = float(study.cycle_lengths.sum())
        rec["longest"] = float(study.cycle_lengths.max())
        with span("renewal.renewal_function", units=self.grid.n_points):
            H = renewal_function(study.cycle_cdf)
        with span("renewal.phi_via_renewal"):
            curve = phi_via_renewal(study.q, H)
        with span("renewal.write_curve_csv") as rec:
            write_curve_csv(curve, args.output)
        rec["units"] = os.path.getsize(args.output)
        return {"study": study, "H": H, "curve": curve, "csv": args.output,
                "max_se2": float(np.max(curve.stderr) ** 2)}

    def check(self, result):
        bad = []
        study, H, curve = result["study"], result["H"], result["curve"]
        q, excess = study.q, study.excess
        se0 = max(float(excess.stderr[0]), self.excess0_se)
        if not abs(excess.values[0] - self.cycle_mean) <= K_SE * se0:
            bad.append(("simulate", f"mean cycle {excess.values[0]:.4g} is not "
                                    f"within {K_SE} SE of {self.cycle_mean:.4g}"))
        combined = np.sqrt(q.stderr**2 + excess.stderr**2)
        if not np.all(q.values <= excess.values + 3.0 * combined + 1e-12):
            bad.append(("simulate", "q exceeds the cycle-excess bound"))
        if not np.all(curve.values >= q.values - 1e-12 * np.maximum(q.values, 1.0)):
            bad.append(("renewal", "phi falls below q"))
        residual = float(np.max(np.abs(renewal_residual(H, study.cycle_cdf))))
        if not residual <= 1e-9 * float(H.values[-1]):
            bad.append(("renewal", f"renewal residual {residual:.3g}"))
        if not np.all(np.isfinite(curve.values)):
            bad.append(("renewal", "phi is not finite"))
        return bad

    def cli_check(self, root, seed, result):
        out = self.out_dir / "cli-renewal.csv"
        run_cli(root, self.argv(seed, threads=1, output=out))
        if out.read_bytes() != Path(result["csv"]).read_bytes():
            raise CliMismatch(f"renewal --threads 1 CSV differs from the op's "
                              f"CSV at --threads {self.threads}")


def poisson_renewal(t):
    """Renewal function (zeroth term included) of Exponential(1) cycles."""
    return 1.0 + t


def erlang2_renewal(t):
    """Renewal function (zeroth term included) of Erlang(2, rate 1) cycles."""
    return 0.75 + t / 2.0 + np.exp(-2.0 * t) / 4.0


def mm1_busy_lst(lam, mu, s):
    """Closed-form busy-period transform of the M/M/1 queue."""
    a = lam + mu + s
    return (a - np.sqrt(a * a - 4.0 * lam * mu)) / (2.0 * lam)


class Analytic(Workload):
    """No RNG: ``mm1-exact``, renewal on closed-form CDFs, five
    ``busy-period`` runs and ``fit-rate`` on the exact curve."""

    name = "analytic"
    lam, mu, t_max, step = 0.5, 1.0, 100.0, 0.2
    s_grid, window = "0:5:0.1", "40:100"

    def __init__(self, out_dir):
        super().__init__(out_dir)
        self.exact_model = Mm1Model(self.lam, self.mu)
        self.mm1_queue = QueueModel(self.lam, Exponential(self.mu))
        self.grid = make_grid(self.t_max, self.step)
        self.laws = {spec: QueueModel(self.lam, parse_service_spec(spec))
                     for spec in FIVE_LAWS}
        lo, hi, step = map(float, self.s_grid.split(":"))
        self.svals = np.arange(lo, hi + 1e-12, step)
        self.renewal_grid = make_grid(80.0, 0.01)
        t = self.renewal_grid.times()
        self.cdfs = {"poisson": Curve(self.renewal_grid, Exponential(1.0).cdf(t)),
                     "erlang2": Curve(self.renewal_grid, Erlang(2, 1.0).cdf(t))}
        self.csv = self.out_dir / f"{self.name}.csv"
        lo, hi = map(float, self.window.split(":"))
        times = self.grid.times()
        self.window_points = int(np.count_nonzero((times >= lo) & (times <= hi)))

    def argvs(self, output=None):
        out = str(output or self.csv)
        return {
            "mm1-exact": ["mm1-exact", "--lambda", str(self.lam), "--mu",
                          str(self.mu), "--t-max", str(self.t_max), "--step",
                          str(self.step), "-o", out],
            "busy-period": {spec: ["busy-period", "--lambda", str(self.lam),
                                   "--service", spec, "--s-grid", self.s_grid,
                                   "--abscissa", "-o", out]
                            for spec in FIVE_LAWS},
            "fit-rate": ["fit-rate", "--input", out, "--window", self.window,
                         "--model", "sqrt", "--lambda", str(self.lam),
                         "--mu", str(self.mu)],
        }

    def op(self, seed, span):
        argvs = self.argvs()
        n = self.grid.n_points
        times = self.grid.times()
        self._parse(argvs["mm1-exact"], span)
        with span("mm1.phi_curve.default", units=n):
            exact = phi_curve(self.exact_model, self.grid)
        with span("mm1.phi_curve.paper_literal", units=n):
            literal = phi_curve(self.exact_model, self.grid, paper_literal=True)
        with span("mm1.phi_asymptotic", units=n - 1):
            asym = np.array([phi_asymptotic(self.exact_model, float(t))
                             for t in times[1:]])
        with span("renewal.write_curve_csv") as rec:
            write_curve_csv(exact, self.csv)
        rec["units"] = os.path.getsize(self.csv)

        renewal = {}
        for name, cdf in self.cdfs.items():
            with span("renewal.renewal_function", units=cdf.grid.n_points):
                renewal[name] = renewal_function(cdf)

        busy = {}
        for spec, model in self.laws.items():
            self._parse(argvs["busy-period"][spec], span)
            with span("busy_period.busy_mean"):
                busy_mean(model)
            with span("busy_period.cycle_moments"):
                cycle_moments(model)
            with span("busy_period.busy_cramer_abscissa"):
                abscissa = busy_cramer_abscissa(model, tol=1e-4)
            with span("busy_period.busy_lst", units=len(self.svals)):
                lst = np.array([busy_lst(model, float(s)) for s in self.svals])
            busy[spec] = (abscissa, lst)

        args = self._parse(argvs["fit-rate"], span)
        with span("renewal.read_curve_csv"):
            stored = read_curve_csv(args.input)
        with span("analysis.stationary_pk"):
            phi_inf = stationary_pk(self.mm1_queue)
        with span("analysis.fit_decay_rate"):
            fit = fit_decay_rate(stored, phi_inf,
                                 tuple(map(float, args.window.split(":"))),
                                 EXP_WITH_SQRT_T)
        return {"exact": exact, "literal": literal, "asym": asym,
                "renewal": renewal, "busy": busy, "fit": fit,
                "phi_inf": phi_inf, "csv": self.csv}

    def check(self, result):
        bad = []
        t = self.renewal_grid.times()
        for name, closed in (("poisson", poisson_renewal(t)),
                             ("erlang2", erlang2_renewal(t))):
            err = float(np.max(np.abs(result["renewal"][name].values - closed)))
            if not err <= 1e-3:
                bad.append(("renewal", f"{name} renewal function off by {err:.3g}"))
        abscissa, lst = result["busy"]["exp:rate=1"]
        err = float(np.max(np.abs(lst - mm1_busy_lst(self.lam, self.mu, self.svals))))
        if not err <= 1e-10:
            bad.append(("busy_period", f"M/M/1 busy_lst off by {err:.3g}"))
        if not 0.0807 <= abscissa <= 0.0909:
            bad.append(("busy_period", f"M/M/1 abscissa {abscissa:.5g} outside "
                                       f"[0.0807, 0.0909]"))
        for spec, (a, values) in result["busy"].items():
            if not (a > 0 and np.all((values > 0) & (values <= 1.0))):
                bad.append(("busy_period", f"{spec}: abscissa {a:.4g} or "
                                           f"busy_lst outside (0, 1]"))
        exact = result["exact"].values
        if not (exact[0] == 0.0 and np.all(np.diff(exact) >= 0.0)
                and abs(exact[-1] - result["phi_inf"]) <= 1e-4):
            bad.append(("mm1", "exact curve does not rise from 0 to within "
                               "1e-4 of the stationary value"))
        if not (result["literal"].values[0] == 1.0
                and np.all(np.isfinite(result["asym"]))):
            bad.append(("mm1", "literal curve or asymptote malformed"))
        fit = result["fit"]
        if not (fit.rate > 0 and fit.n_points == self.window_points):
            bad.append(("analysis", f"decay fit rate {fit.rate:.4g} on "
                                    f"{fit.n_points} points"))
        return bad

    def cli_check(self, root, seed, result):
        argvs = self.argvs(output=self.out_dir / "cli-analytic.csv")
        run_cli(root, argvs["mm1-exact"])
        cols = _csv_columns(self.out_dir / "cli-analytic.csv")
        if not (np.array_equal(cols["phi_exact"], result["exact"].values)
                and np.array_equal(cols["phi_paper_literal"],
                                   result["literal"].values)
                and np.array_equal(cols["phi_asymptotic"][1:], result["asym"])):
            raise CliMismatch("mm1-exact columns differ from the op's curves")
        summary = json.loads(run_cli(root, argvs["busy-period"]["exp:rate=1"]))
        abscissa, lst = result["busy"]["exp:rate=1"]
        cols = _csv_columns(self.out_dir / "cli-analytic.csv")
        if summary["cramer_abscissa"] != abscissa or not np.array_equal(
                cols["busy_lst"], lst):
            raise CliMismatch("busy-period output differs from the op")
        fit = json.loads(run_cli(root, self.argvs()["fit-rate"]))
        if fit != dict(result["fit"].as_dict(), phi_inf=result["phi_inf"]):
            raise CliMismatch("fit-rate output differs from the op's fit")


WORKLOADS = {w.name: w for w in (McPhi, RenewalHeavy, Analytic)}
