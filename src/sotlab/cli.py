"""Command-line interface: every probe and experiment behind one binary.

Usage pattern: `sot <subcommand> --config cfg.json --out results.csv --seed 7`.
Configs are JSON; outputs are CSV with `#`-prefixed metadata lines (version,
command, seed, config hash) so plotting tools can ingest them directly while
provenance is preserved. A fixed (config, seed) pair always produces
byte-identical output.

Exit codes: 0 success, 2 config/schema problems (message names the offending
field), 3 numeric failures inside a computation.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys

import click
import numpy as np

from . import (__version__, acceptance, concentration, constructions,
               divergences, experiments, functional_ineq, tail_bounds,
               transport)
from .dist_core import AtomicDistribution, SmoothedMixture, SubgaussianProfile


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")


def _fail_config(msg: str):
    click.echo(msg, err=True)
    sys.exit(2)


def _fail_numeric(msg: str):
    click.echo(f"numeric failure: {msg}", err=True)
    sys.exit(3)


def _load_config(path: str) -> tuple[dict, str]:
    if path is None:
        _fail_config("config error at --config: a config file is required")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        _fail_config(f"config error at --config: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        _fail_config(f"config error at <root>: invalid JSON ({exc})")
    if not isinstance(cfg, dict):
        _fail_config("config error at <root>: expected a JSON object")
    return cfg, hashlib.sha256(raw).hexdigest()


def _get(cfg: dict, field: str, typ, required: bool = True, default=None,
         choices=None, path: str = ""):
    loc = f"{path}.{field}" if path else field
    if field not in cfg:
        if required:
            raise ConfigError(loc, "missing required field")
        return default
    v = cfg[field]
    if typ is float and isinstance(v, int):
        v = float(v)
    if typ is not None and not isinstance(v, typ):
        raise ConfigError(loc, f"expected {getattr(typ, '__name__', typ)}, "
                               f"got {type(v).__name__}")
    if choices is not None and v not in choices:
        raise ConfigError(loc, f"must be one of {sorted(choices)}")
    return v


def _build_distribution(obj, path: str):
    """Distribution spec: either inline atoms or a named construction."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    if "atoms" in obj:
        try:
            return AtomicDistribution.from_json_obj(obj), None
        except KeyError as exc:
            raise ConfigError(f"{path}.atoms", f"missing key {exc}")
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}.atoms", str(exc))
    family = _get(obj, "family", str, path=path,
                  choices={"two_point", "chi2_hard", "w2_schedule"})
    K = _get(obj, "K", float, path=path)
    try:
        if family == "two_point":
            h = _get(obj, "h", float, path=path)
            return constructions.bernoulli_two_point(h, K), None
        if family == "chi2_hard":
            k_max = _get(obj, "k_max", int, path=path)
            c = _get(obj, "c", float, required=False, path=path)
            if c is None:
                c = constructions.chi2_admissible_c(K)
            return constructions.chi2_hard_example(K, c, k_max), None
        k_max = _get(obj, "k_max", int, path=path)
        sigma = _get(obj, "sigma", float, required=False, default=1.0, path=path)
        dist, schedule = constructions.w2_hard_example(K, sigma, k_max)
        return dist, schedule
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _write_csv(out: str, command: str, seed, cfg_hash: str,
               columns: list, rows: list, extra_meta: dict | None = None):
    lines = [f"# version: {__version__}",
             f"# command: {command}",
             f"# seed: {seed if seed is not None else '-'}",
             f"# config_sha256: {cfg_hash}"]
    for k, v in (extra_meta or {}).items():
        lines.append(f"# {k}: {_fmt(v)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _resolve_seed(cli_seed, cfg: dict, required: bool):
    if cli_seed is not None:
        return int(cli_seed)
    if "seed" in cfg:
        s = cfg["seed"]
        if not isinstance(s, int) or s < 0:
            raise ConfigError("seed", "expected a nonnegative integer")
        return s
    if required:
        raise ConfigError("seed", "a seed is required (use --seed or the "
                                  "config's 'seed' field); no nondeterministic "
                                  "runs")
    return None


def _common(f):
    f = click.option("--config", "config_path", type=str, default=None,
                     help="JSON config file")(f)
    f = click.option("--out", "out_path", type=str, default=None,
                     help="output file (CSV unless noted); stdout if omitted")(f)
    f = click.option("--seed", type=int, default=None, help="RNG seed "
                     "(overrides the config's seed)")(f)
    return f


@click.group()
@click.version_option(__version__)
def main():
    """Numerical laboratory for smoothed-empirical-measure convergence."""


def _run(command, body, config_path, out_path, seed, seed_required):
    cfg, cfg_hash = _load_config(config_path)
    try:
        rseed = _resolve_seed(seed, cfg, required=seed_required)
        plan = body(cfg)        # validation phase: raises ConfigError only
    except ConfigError as exc:
        _fail_config(str(exc))
    try:
        columns, rows, meta = plan(rseed)
    except Exception as exc:
        _fail_numeric(str(exc))
    _write_csv(out_path, command, rseed, cfg_hash, columns, rows, meta)


# ---------------------------------------------------------------------------


@main.command()
@_common
def construct(config_path, out_path, seed):
    """Build a named distribution; emit its atoms (and schedule) as JSON."""
    cfg, cfg_hash = _load_config(config_path)
    try:
        rseed = _resolve_seed(seed, cfg, required=False)
        dist, schedule = _build_distribution(cfg, "<root>")
    except ConfigError as exc:
        _fail_config(str(exc))
    obj = {"version": __version__, "command": "construct",
           "seed": rseed, "config_sha256": cfg_hash,
           "distribution": dist.to_json_obj()}
    if schedule is not None:
        obj["schedule"] = {
            "kappa": schedule.kappa, "M": schedule.M, "C": schedule.C,
            "c_k": list(schedule.c_k), "r_k": list(schedule.r_k),
            "t_k": list(schedule.t_k), "log_p_k": list(schedule.log_p_k),
            "n_k": list(schedule.n_k),
        }
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


@main.command()
@_common
def w2(config_path, out_path, seed):
    """Exact quantile-coupling W2^2 between two smoothed mixtures."""
    def body(cfg):
        A, _ = _build_distribution(_get(cfg, "A", dict), "A")
        B, _ = _build_distribution(_get(cfg, "B", dict), "B")
        sa = _get(cfg, "sigma_a", float, required=False,
                  default=_get(cfg, "sigma", float, required=False, default=1.0))
        sb = _get(cfg, "sigma_b", float, required=False, default=sa)
        tol = _get(cfg, "tol", float, required=False, default=1e-9)

        def run(rseed):
            ev = transport.w2_squared(SmoothedMixture(A, sa),
                                      SmoothedMixture(B, sb), tol=tol)
            return (["w2sq", "tail_bound", "quad_error", "n_eval"],
                    [(ev.total, ev.tail_bound, ev.quad_error, ev.n_eval)], {})
        return run
    _run("w2", body, config_path, out_path, seed, seed_required=False)


@main.command("mi-probe")
@_common
def mi_probe(config_path, out_path, seed):
    """Chi-square or Renyi mutual information across the Gaussian channel."""
    def body(cfg):
        dist, _ = _build_distribution(_get(cfg, "dist", dict), "dist")
        sigma = _get(cfg, "sigma", float, required=False, default=1.0)
        kind = _get(cfg, "kind", str, choices={"chi2", "renyi"})
        lam = _get(cfg, "lam", float, required=(kind == "renyi"))
        radius = _get(cfg, "truncation_radius", float, required=False)
        tol = _get(cfg, "tol", float, required=False, default=1e-9)

        def run(rseed):
            if kind == "chi2":
                est = divergences.chi2_mutual_information(dist, sigma, radius, tol)
            else:
                est = divergences.renyi_mutual_information(dist, sigma, lam,
                                                           radius, tol)
            rows = [(k, float(x), part) for k, (x, part) in
                    enumerate(zip(dist.locations, est.partial_by_atom))]
            meta = {"value": est.value,
                    "truncation_radius": est.truncation_radius,
                    "quadrature_error": est.quadrature_error}
            return ["k", "location", "part"], rows, meta
        return run
    _run("mi-probe", body, config_path, out_path, seed,
         seed_required=False)


@main.command("rate-scan")
@_common
def rate_scan(config_path, out_path, seed):
    """Monte Carlo n-sweep and log-log rate fit; writes <out>.fit.json too."""
    def body(cfg):
        family = _get(cfg, "family", str,
                      choices={"two_point", "bernoulli", "kl"})
        K = _get(cfg, "K", float)
        sigma = _get(cfg, "sigma", float, required=False, default=1.0)
        n_list = _get(cfg, "n_list", list)
        if not n_list or not all(isinstance(n, int) and n > 1 for n in n_list):
            raise ConfigError("n_list", "expected a list of integers > 1")
        trials = _get(cfg, "trials", int, required=False, default=200)
        tol = _get(cfg, "tol", float, required=False, default=1e-8)
        h = _get(cfg, "h", float, required=False, default=2.0)
        epsilon = _get(cfg, "epsilon", float, required=False, default=0.02)

        def run(rseed):
            meta = {"family": family, "K": K, "sigma": sigma}
            if family == "bernoulli":
                plan, series = experiments.bernoulli_scan(
                    K, sigma, epsilon, n_list, trials, rseed, tol)
                rows = [("w2",) + q for q in series.points]
                rows += [("w2sq",) + q for q in plan.w2sq_series.points]
                fit = experiments.fit_rate(series)
                meta.update({"epsilon": epsilon, "delta": plan.delta,
                             "zeta": plan.zeta})
            else:
                p = constructions.bernoulli_two_point(h, K)
                children = np.random.SeedSequence(rseed).spawn(len(n_list))
                pts = []
                mc = (experiments.mc_expected_kl if family == "kl"
                      else experiments.mc_expected_w2sq)
                for n, c in zip(sorted(n_list), children):
                    r = mc(p, sigma, n, trials, c)
                    pts.append((n, r.estimate, r.stderr, r.trials))
                series = experiments.RateSeries(points=tuple(pts))
                fit = experiments.fit_rate(series)
                metric = "kl" if family == "kl" else "w2sq"
                rows = [(metric,) + q for q in series.points]
                meta["h"] = h
            meta.update({"slope": fit.slope, "slope_stderr": fit.slope_stderr,
                         "r_squared": fit.r_squared})
            if out_path is not None:
                with open(out_path + ".fit.json", "w") as fh:
                    json.dump({"slope": fit.slope, "intercept": fit.intercept,
                               "slope_stderr": fit.slope_stderr,
                               "r_squared": fit.r_squared}, fh, indent=2,
                              sort_keys=True)
                    fh.write("\n")
            return ["metric", "n", "estimate", "stderr", "trials"], rows, meta
        return run
    _run("rate-scan", body, config_path, out_path, seed,
         seed_required=True)


@main.command("concentration")
@_common
def concentration_cmd(config_path, out_path, seed):
    """Weighted CDF statistic replications or gap-event frequencies."""
    def body(cfg):
        mode = _get(cfg, "mode", str,
                    choices={"weighted", "berry_esseen", "gap"})
        if mode == "weighted":
            n = _get(cfg, "n", int)
            delta = _get(cfg, "delta", float)
            reps = _get(cfg, "replications", int)
            dist_cfg = _get(cfg, "dist", dict, required=False)
            sigma = _get(cfg, "sigma", float, required=False, default=1.0)
            if dist_cfg is not None:
                dist, _ = _build_distribution(dist_cfg, "dist")
            else:
                dist = AtomicDistribution.from_weights(np.array([0.0]),
                                                       np.array([1.0]))

            def run(rseed):
                rep = concentration.weighted_cdf_concentration(
                    SmoothedMixture(dist, sigma), n, delta, reps, rseed)
                rows = [(i, s, rep.bound, s > rep.bound)
                        for i, s in enumerate(rep.statistics)]
                return (["replication", "statistic", "bound", "violated"],
                        rows, {"violation_rate": rep.violation_rate})
            return run
        if mode == "berry_esseen":
            h = _get(cfg, "h", float)
            K = _get(cfg, "K", float)
            sigma = _get(cfg, "sigma", float, required=False, default=1.0)
            n = _get(cfg, "n", int)
            reps = _get(cfg, "replications", int)

            def run(rseed):
                fr = concentration.berry_esseen_event_frequency(
                    h, K, sigma, n, reps, rseed)
                return _frequency_rows(fr)
            return run
        K = _get(cfg, "K", float)
        sigma = _get(cfg, "sigma", float, required=False, default=1.0)
        k_max = _get(cfg, "k_max", int, required=False, default=4)
        k = _get(cfg, "k", int)
        reps = _get(cfg, "replications", int)
        n = _get(cfg, "n", int, required=False)

        def run(rseed):
            dist, schedule = constructions.w2_hard_example(K, sigma, k_max)
            fr = concentration.schedule_gap_dominance(schedule, dist, sigma, k,
                                                      reps, rseed, n=n)
            return _frequency_rows(fr)
        return run
    _run("concentration", body, config_path, out_path, seed,
         seed_required=True)


def _frequency_rows(fr):
    cols = ["applicable", "replications", "frequency", "level", "band",
            "passed", "diagnostic"]
    row = (fr.applicable, fr.replications,
           fr.frequency if fr.frequency is not None else math.nan,
           fr.level, fr.band if fr.band is not None else math.nan,
           fr.passed if fr.passed is not None else False,
           fr.diagnostic.replace(",", ";"))
    return cols, [row], {}


@main.command("tail-probe")
@_common
def tail_probe(config_path, out_path, seed):
    """Tail-mass vs smoothed-density envelope constants on an r-grid."""
    def body(cfg):
        dist, _ = _build_distribution(_get(cfg, "dist", dict), "dist")
        K = _get(cfg, "K", float)
        sigma = _get(cfg, "sigma", float, required=False, default=1.0)
        epsilon = _get(cfg, "epsilon", float)
        kind = _get(cfg, "kind", str, choices={"upper", "lower"})
        r_min = _get(cfg, "r_min", float, required=False, default=0.0)
        r_max = _get(cfg, "r_max", float)
        points = _get(cfg, "r_points", int, required=False, default=101)
        profile = SubgaussianProfile(K=K)

        def run(rseed):
            grid = np.linspace(r_min, r_max, points)
            if kind == "upper":
                rep = tail_bounds.tail_density_inequality_probe(
                    dist, profile, epsilon, grid, sigma)
                rows = list(zip(grid, rep.log_tail, rep.log_density, rep.ratio))
                return (["r", "log_tail", "log_density", "ratio"], rows,
                        {"M_hat": rep.M_hat, "log_M_hat": rep.log_M_hat,
                         "beta": rep.beta, "epsilon": epsilon})
            rep = tail_bounds.density_tail_lower_probe(
                dist, profile, epsilon, grid, sigma)
            rows = list(zip(grid, rep.log_ratio))
            return (["r", "log_ratio"], rows,
                    {"C_hat": rep.C_hat, "log_C_hat": rep.log_C_hat,
                     "last_decade_min": rep.last_decade_min,
                     "passed": rep.passed, "beta": rep.beta,
                     "epsilon": epsilon})
        return run
    _run("tail-probe", body, config_path, out_path, seed,
         seed_required=False)


@main.command("lsi-probe")
@_common
def lsi_probe(config_path, out_path, seed):
    """Log-Sobolev constant lower bounds along an h-grid."""
    def body(cfg):
        K = _get(cfg, "K", float)
        sigma = _get(cfg, "sigma", float, required=False, default=1.0)
        h_list = _get(cfg, "h_list", list)
        if not h_list or not all(isinstance(h, (int, float)) for h in h_list):
            raise ConfigError("h_list", "expected a list of numbers")
        x1 = _get(cfg, "x1", float, required=False)
        x2 = _get(cfg, "x2", float, required=False)

        def run(rseed):
            rows = []
            for h in h_list:
                pr = functional_ineq.lsi_lower_bound(float(h), K, sigma, x1, x2)
                rows.append((pr.h, pr.q1, pr.q2, pr.q3, pr.q4, pr.q5,
                             pr.lsi_lower))
            return (["h", "q1", "q2", "q3", "q4", "q5", "bound"], rows, {})
        return run
    _run("lsi-probe", body, config_path, out_path, seed,
         seed_required=False)


@main.command("t2-probe")
@_common
def t2_probe(config_path, out_path, seed):
    """Transportation-inequality W2^2/KL ratios along an h-grid."""
    def body(cfg):
        K = _get(cfg, "K", float)
        sigma = _get(cfg, "sigma", float, required=False, default=1.0)
        delta = _get(cfg, "delta", float)
        h_list = _get(cfg, "h_list", list)
        if not h_list or not all(isinstance(h, (int, float)) for h in h_list):
            raise ConfigError("h_list", "expected a list of numbers")

        def run(rseed):
            rows = []
            for h in h_list:
                pr = functional_ineq.t2_lower_bound(float(h), K, sigma, delta)
                rows.append((pr.h, pr.q_h, pr.w2sq, pr.kl, pr.ratio, pr.method))
            return (["h", "q_h", "w2sq", "kl", "ratio", "method"], rows, {})
        return run
    _run("t2-probe", body, config_path, out_path, seed,
         seed_required=False)


@main.command()
@click.option("--out", "out_path", type=str, default=None,
              help="optional CSV results file")
@click.option("--seed", type=int, default=None,
              help=f"RNG seed (default {acceptance.DEFAULT_SEED})")
@click.option("--quick", is_flag=True, default=False,
              help="reduced statistical resolution, same assertions")
def accept(out_path, seed, quick):
    """Run the full acceptance suite; exit 0 iff every criterion passes."""
    rseed = seed if seed is not None else acceptance.DEFAULT_SEED
    try:
        results = acceptance.run_all(quick=quick, seed=rseed)
    except Exception as exc:
        _fail_numeric(str(exc))
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        click.echo(f"[{mark}] {r.criterion:>2}  {r.name:<{width}}  "
                   f"{r.seconds:7.1f}s  {r.detail}")
    n_pass = sum(r.passed for r in results)
    click.echo(f"{n_pass}/{len(results)} criteria passed "
               f"({'quick' if quick else 'full'} mode, seed {rseed})")
    if out_path is not None:
        _write_csv(out_path, "accept", rseed, "-",
                   ["criterion", "name", "passed", "seconds", "detail"],
                   [(r.criterion, r.name, r.passed, r.seconds,
                     r.detail.replace(",", ";")) for r in results],
                   {"quick": quick})
    sys.exit(0 if n_pass == len(results) else 3)


if __name__ == "__main__":
    main()
