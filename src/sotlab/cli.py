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

import dataclasses
import hashlib
import json
import math
import sys

import click
import numpy as np

from . import (__version__, acceptance, concentration, constructions,
               divergences, experiments, functional_ineq, tail_bounds,
               transport)
from .dist_core import AtomicDistribution, SmoothedMixture


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")


def _fail(code: int, msg: str):
    click.echo(msg, err=True)
    sys.exit(code)


def _load_config(path: str) -> tuple[dict, str]:
    if path is None:
        raise ConfigError("--config", "a config file is required")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError("--config", str(exc))
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("<root>", f"invalid JSON ({exc})")
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "expected a JSON object")
    return cfg, hashlib.sha256(raw).hexdigest()


def _get(cfg: dict, field: str, typ, required: bool = True, default=None,
         choices=None, minimum=None, path: str = ""):
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
    if minimum is not None and v < minimum:
        raise ConfigError(loc, f"must be >= {minimum}")
    return v


def _known(cfg: dict, fields, path: str = ""):
    """Reject a field of cfg that is not in `fields`, before anything runs: a
    misspelled field would otherwise leave its setting at the default."""
    unknown = sorted(set(cfg) - set(fields))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}" if path else unknown[0],
                          f"unknown field; known fields are {sorted(fields)}")


def _positive(cfg: dict, field: str, required: bool = True, default=None,
              path: str = ""):
    """A number field that must be > 0 when present."""
    v = _get(cfg, field, float, required=required, default=default, path=path)
    if v is not None and not v > 0.0:
        raise ConfigError(f"{path}.{field}" if path else field,
                          f"{field} must be positive")
    return v


def _sigma(cfg: dict, path: str = "") -> float:
    return _positive(cfg, "sigma", required=False, default=1.0, path=path)


def _positive_list(cfg: dict, field: str) -> list:
    """A required, nonempty list field of positive numbers, as floats."""
    v = _get(cfg, field, list)
    if not v or not all(isinstance(x, (int, float)) and x > 0 for x in v):
        raise ConfigError(field, "expected a list of positive numbers")
    return [float(x) for x in v]


def _above_sigma(K: float, sigma: float):
    """K as the probes and the bernoulli scan need it: above sigma."""
    if not K > sigma:
        raise ConfigError("K", f"must be > sigma = {sigma!r}")


def _check_probe(check, h_list: list, *args):
    """check(h, *args), a two-point parameter check, at every h: a
    ParameterError is a config error at the field it names (h_list for h)."""
    try:
        for h in h_list:
            check(h, *args)
    except constructions.ParameterError as exc:
        raise ConfigError("h_list" if exc.name == "h" else exc.name, str(exc))


def _n_list(cfg: dict) -> list:
    n_list = _get(cfg, "n_list", list)
    if not n_list or not all(isinstance(n, int) and n > 1 for n in n_list):
        raise ConfigError("n_list", "expected a list of integers > 1")
    return n_list


# the fields of a named construction besides family and K
_FAMILY_FIELDS = {"two_point": ("h",), "chi2_hard": ("k_max", "c"),
                  "w2_schedule": ("k_max", "sigma")}


def _build_distribution(obj, path: str):
    """Distribution spec: either inline atoms or a named construction."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    if "atoms" in obj:
        _known(obj, ("atoms",), path)
        try:
            return AtomicDistribution.from_json_obj(obj), None
        except KeyError as exc:
            raise ConfigError(f"{path}.atoms", f"missing key {exc}")
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}.atoms", str(exc))
    family = _get(obj, "family", str, path=path, choices=set(_FAMILY_FIELDS))
    _known(obj, ("family", "K", *_FAMILY_FIELDS[family]), path)
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
        return constructions.w2_hard_example(K, _sigma(obj, path), k_max)
    except ValueError as exc:
        raise ConfigError(path, str(exc))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _csv_text(command: str, seed, cfg_hash: str, columns: list, rows: list,
              meta: dict) -> str:
    lines = [f"# version: {__version__}",
             f"# command: {command}",
             f"# seed: {seed if seed is not None else '-'}",
             f"# config_sha256: {cfg_hash}"]
    lines += [f"# {k}: {_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(out: str | None, text: str):
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


@click.group()
@click.version_option(__version__)
def main():
    """Numerical laboratory for smoothed-empirical-measure convergence."""


def _subcommand(name: str, seed_required: bool):
    """Register fn(cfg, seed, out_path) as `sot <name>` with --config, --out
    and --seed. fn returns (columns, rows, meta) for a CSV table, or a dict
    for a JSON document; both start with version, command, seed and config
    hash. Only this module raises ConfigError, so it means a bad config
    (exit 2) wherever it comes from; any other exception exits 3."""
    def register(fn):
        @main.command(name, help=fn.__doc__)
        @click.option("--seed", type=int, default=None, help="RNG seed "
                      "(overrides the config's seed)")
        @click.option("--out", "out_path", type=str, default=None,
                      help="output file (CSV unless noted); stdout if omitted")
        @click.option("--config", "config_path", type=str, default=None,
                      help="JSON config file")
        def command(config_path, out_path, seed):
            try:
                cfg, cfg_hash = _load_config(config_path)
                rseed = _resolve_seed(seed, cfg, seed_required)
                result = fn(cfg, rseed, out_path)
            except ConfigError as exc:
                _fail(2, str(exc))
            except Exception as exc:
                _fail(3, f"numeric failure: {exc}")
            if isinstance(result, dict):
                head = {"version": __version__, "command": name,
                        "seed": rseed, "config_sha256": cfg_hash}
                text = _json_text({**head, **result})
            else:
                text = _csv_text(name, rseed, cfg_hash, *result)
            _write(out_path, text)
        return command
    return register


# ---------------------------------------------------------------------------


@_subcommand("construct", seed_required=False)
def construct(cfg, seed, out_path):
    """Build a named distribution; emit its atoms (and schedule) as JSON."""
    # the whole config is the spec, with the seed every config may carry
    spec = {k: v for k, v in cfg.items() if k != "seed"}
    dist, schedule = _build_distribution(spec, "<root>")
    obj = {"distribution": dist.to_json_obj()}
    if schedule is not None:
        obj["schedule"] = {
            "kappa": schedule.kappa, "M": schedule.M, "C": schedule.C,
            "c_k": list(schedule.c_k), "r_k": list(schedule.r_k),
            "t_k": list(schedule.t_k), "log_p_k": list(schedule.log_p_k),
            "n_k": list(schedule.n_k),
        }
    return obj


@_subcommand("w2", seed_required=False)
def w2(cfg, seed, out_path):
    """Exact quantile-coupling W2^2 between two smoothed mixtures."""
    _known(cfg, ("A", "B", "sigma", "sigma_a", "sigma_b", "tol", "seed"))
    A, _ = _build_distribution(_get(cfg, "A", dict), "A")
    B, _ = _build_distribution(_get(cfg, "B", dict), "B")
    sa = _positive(cfg, "sigma_a", required=False, default=_sigma(cfg))
    sb = _positive(cfg, "sigma_b", required=False, default=sa)
    tol = _get(cfg, "tol", float, required=False, default=1e-9)
    ev = transport.w2_squared(SmoothedMixture(A, sa), SmoothedMixture(B, sb),
                              tol=tol)
    return (["w2sq", "tail_bound", "quad_error", "n_eval"],
            [(ev.total, ev.tail_bound, ev.quad_error, ev.n_eval)],
            {"certified": ev.certified()})


@_subcommand("mi-probe", seed_required=False)
def mi_probe(cfg, seed, out_path):
    """Chi-square or Renyi mutual information across the Gaussian channel."""
    _known(cfg, ("dist", "sigma", "kind", "lam", "truncation_radius", "tol",
                 "seed"))
    dist, _ = _build_distribution(_get(cfg, "dist", dict), "dist")
    sigma = _sigma(cfg)
    kind = _get(cfg, "kind", str, choices={"chi2", "renyi"})
    lam = _get(cfg, "lam", float, required=(kind == "renyi"))
    if kind == "renyi" and not 1.0 < lam < 2.0:
        raise ConfigError("lam", "must lie in (1, 2)")
    radius = _positive(cfg, "truncation_radius", required=False)
    tol = _get(cfg, "tol", float, required=False, default=1e-9)
    if not 0.0 < tol < 1.0:
        raise ConfigError("tol", "must lie in (0, 1)")
    if kind == "chi2":
        est = divergences.chi2_mutual_information(dist, sigma, radius, tol)
    else:
        est = divergences.renyi_mutual_information(dist, sigma, lam, radius,
                                                   tol)
    rows = [(k, float(x), part) for k, (x, part) in
            enumerate(zip(dist.locations, est.partial_by_atom))]
    return (["k", "location", "part"], rows,
            {"value": est.value, "truncation_radius": est.truncation_radius,
             "quadrature_error": est.quadrature_error,
             "gap_bound": est.gap_bound, "n_eval": est.n_eval})


@_subcommand("rate-scan", seed_required=True)
def rate_scan(cfg, seed, out_path):
    """Monte Carlo n-sweep and log-log rate fit; writes <out>.fit.json too,
    and <out>.plan.json (the per-n h, t, p_h, feasible) for bernoulli."""
    _known(cfg, ("family", "K", "sigma", "n_list", "trials", "tol", "h",
                 "epsilon", "seed"))
    family = _get(cfg, "family", str, choices={"two_point", "bernoulli", "kl"})
    K = _positive(cfg, "K")
    sigma = _sigma(cfg)
    if family == "bernoulli":
        _above_sigma(K, sigma)
    n_list = _n_list(cfg)
    trials = _get(cfg, "trials", int, required=False, default=200, minimum=2)
    # the estimator's own default: mc_expected_kl's, or mc_expected_w2sq's
    tol = _get(cfg, "tol", float, required=False,
               default=1e-10 if family == "kl" else 1e-8)
    h = _positive(cfg, "h", required=False, default=2.0)
    epsilon = _get(cfg, "epsilon", float, required=False, default=0.02)
    meta = {"family": family, "K": K, "sigma": sigma}
    plan = None
    if family == "bernoulli":
        plan, series = experiments.bernoulli_scan(K, sigma, epsilon, n_list,
                                                  trials, seed, tol)
        rows = [("w2",) + q for q in series.points]
        rows += [("w2sq",) + q for q in plan.w2sq_series.points]
        meta.update({"epsilon": epsilon, "delta": plan.delta,
                     "zeta": plan.zeta})
    else:
        metric, mc = (("kl", experiments.mc_expected_kl) if family == "kl"
                      else ("w2sq", experiments.mc_expected_w2sq))
        series = experiments.rate_series(
            mc, constructions.bernoulli_two_point(h, K), sigma, n_list,
            trials, seed, tol)
        rows = [(metric,) + q for q in series.points]
        meta["h"] = h
    fit = experiments.fit_rate(series)
    meta.update({"slope": fit.slope, "slope_stderr": fit.slope_stderr,
                 "r_squared": fit.r_squared})
    if out_path is not None:
        _write(out_path + ".fit.json", _json_text(dataclasses.asdict(fit)))
        if plan is not None:
            _write(out_path + ".plan.json",
                   _json_text({"records": [dataclasses.asdict(r)
                                           for r in plan.records]}))
    return ["metric", "n", "estimate", "stderr", "trials"], rows, meta


@_subcommand("phase-scan", seed_required=True)
def phase_scan(cfg, seed, out_path):
    """E[W2^2] rate slope of the two-point family for each K across K = sigma."""
    _known(cfg, ("K_list", "sigma", "n_list", "trials", "seed"))
    K_list = _positive_list(cfg, "K_list")
    sigma = _sigma(cfg)
    n_list = _n_list(cfg)
    trials = _get(cfg, "trials", int, required=False, default=100, minimum=2)
    rows = experiments.phase_scan(K_list, sigma, n_list, trials, seed)
    return (["K", "slope", "slope_stderr", "r_squared", "alpha"],
            [(r["K"], r["slope"], r["slope_stderr"], r["r_squared"],
              tail_bounds.alpha_exponent(r["K"], sigma)) for r in rows], {})


# the fields of each concentration mode besides mode, sigma, n and replications
_CONCENTRATION_FIELDS = {"weighted": ("delta", "dist"),
                         "berry_esseen": ("h", "K"),
                         "gap": ("K", "k_max", "k")}


@_subcommand("concentration", seed_required=True)
def concentration_cmd(cfg, seed, out_path):
    """Weighted CDF statistic replications or gap-event frequencies."""
    mode = _get(cfg, "mode", str, choices=set(_CONCENTRATION_FIELDS))
    _known(cfg, ("mode", "sigma", "n", "replications", "seed",
                 *_CONCENTRATION_FIELDS[mode]))
    if mode == "weighted":
        n = _get(cfg, "n", int, minimum=1)
        delta = _get(cfg, "delta", float)
        if not delta > 0.0:
            raise ConfigError("delta", "must be > 0")
        reps = _get(cfg, "replications", int, minimum=1)
        dist_cfg = _get(cfg, "dist", dict, required=False)
        sigma = _sigma(cfg)
        if dist_cfg is not None:
            dist, _ = _build_distribution(dist_cfg, "dist")
        else:
            dist = AtomicDistribution.from_weights(np.array([0.0]),
                                                   np.array([1.0]))
        rep = concentration.weighted_cdf_concentration(
            SmoothedMixture(dist, sigma), n, delta, reps, seed)
        rows = [(i, s, rep.bound, s > rep.bound)
                for i, s in enumerate(rep.statistics)]
        return (["replication", "statistic", "bound", "violated"], rows,
                {"violation_rate": rep.violation_rate})
    if mode == "berry_esseen":
        h = _positive(cfg, "h")
        K = _positive(cfg, "K")
        sigma = _sigma(cfg)
        n = _get(cfg, "n", int, minimum=1)
        reps = _get(cfg, "replications", int, minimum=1)
        fr = concentration.berry_esseen_event_frequency(h, K, sigma, n, reps,
                                                        seed)
    else:
        K = _positive(cfg, "K")
        sigma = _sigma(cfg)
        k_max = _get(cfg, "k_max", int, required=False, default=4)
        k = _get(cfg, "k", int, minimum=1)
        if k >= k_max:
            raise ConfigError("k", f"must be < k_max = {k_max}")
        reps = _get(cfg, "replications", int, minimum=1)
        n = _get(cfg, "n", int, required=False, minimum=1)
        dist, schedule = constructions.w2_hard_example(K, sigma, k_max)
        fr = concentration.schedule_gap_dominance(schedule, dist, sigma, k,
                                                  reps, seed, n=n)
    row = (fr.applicable, fr.replications,
           fr.frequency if fr.frequency is not None else math.nan,
           fr.level, fr.band if fr.band is not None else math.nan,
           fr.passed if fr.passed is not None else False,
           fr.diagnostic.replace(",", ";"))
    return (["applicable", "replications", "frequency", "level", "band",
             "passed", "diagnostic"], [row], {})


@_subcommand("tail-probe", seed_required=False)
def tail_probe(cfg, seed, out_path):
    """Tail-mass vs smoothed-density envelope constants on an r-grid."""
    _known(cfg, ("dist", "K", "sigma", "epsilon", "kind", "r_min", "r_max",
                 "r_points", "seed"))
    dist, _ = _build_distribution(_get(cfg, "dist", dict), "dist")
    K = _positive(cfg, "K")
    sigma = _sigma(cfg)
    if sigma != 1.0:
        raise ConfigError("sigma", "must be 1: the probe is defined at the "
                                   "sigma = 1 normalization")
    epsilon = _get(cfg, "epsilon", float)
    kind = _get(cfg, "kind", str, choices={"upper", "lower"})
    r_min = _get(cfg, "r_min", float, required=False, default=0.0)
    r_max = _get(cfg, "r_max", float)
    points = _get(cfg, "r_points", int, required=False, default=101,
                  minimum=1)
    beta = tail_bounds.beta_exponent(K)
    if not 0.0 < epsilon < beta:
        raise ConfigError("epsilon", f"must lie in (0, beta) = (0, {beta!r})")
    grid = np.linspace(r_min, r_max, points)
    if kind == "upper":
        rep = tail_bounds.tail_density_inequality_probe(dist, K, epsilon,
                                                        grid)
        return (["r", "log_tail", "log_density", "ratio"],
                list(zip(grid, rep.log_tail, rep.log_density, rep.ratio)),
                {"M_hat": rep.M_hat, "log_M_hat": rep.log_M_hat,
                 "beta": rep.beta, "epsilon": epsilon})
    rep = tail_bounds.density_tail_lower_probe(dist, K, epsilon, grid)
    return (["r", "log_ratio"], list(zip(grid, rep.log_ratio)),
            {"C_hat": rep.C_hat, "log_C_hat": rep.log_C_hat,
             "last_decade_min": rep.last_decade_min, "passed": rep.passed,
             "beta": rep.beta, "epsilon": epsilon})


@_subcommand("lsi-probe", seed_required=False)
def lsi_probe(cfg, seed, out_path):
    """Log-Sobolev constant lower bounds along an h-grid."""
    for field in ("x1", "x2"):
        if field in cfg:
            raise ConfigError(field, "not a setting: the bound is taken at "
                                     "x1 -> -inf with x2 = h sqrt(sigma/K)")
    _known(cfg, ("K", "sigma", "h_list", "seed"))
    K = _positive(cfg, "K")
    sigma = _sigma(cfg)
    h_list = _positive_list(cfg, "h_list")
    _check_probe(constructions.bernoulli_two_point, h_list, K)
    probes = [functional_ineq.lsi_lower_bound(h, K, sigma) for h in h_list]
    return (["h", "log_q3", "log_q4", "log_q5", "bound"],
            [(p.h, *p.log_q, p.lsi_lower) for p in probes], {})


@_subcommand("t2-probe", seed_required=False)
def t2_probe(cfg, seed, out_path):
    """Transportation-inequality W2^2/KL ratios along an h-grid."""
    _known(cfg, ("K", "sigma", "delta", "h_list", "seed"))
    K = _positive(cfg, "K")
    sigma = _sigma(cfg)
    _above_sigma(K, sigma)
    delta = _get(cfg, "delta", float)
    h_list = _positive_list(cfg, "h_list")
    _check_probe(functional_ineq.check_t2_parameters, h_list, K, sigma, delta)
    probes = [functional_ineq.t2_lower_bound(h, K, sigma, delta)
              for h in h_list]
    return (["h", "log_q_h", "log_w2sq", "log_kl", "log_ratio", "method"],
            [(p.h, p.log_q_h, p.log_w2sq, p.log_kl, p.log_ratio, p.method)
             for p in probes], {})


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
        _fail(3, f"numeric failure: {exc}")
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        click.echo(f"[{mark}] {r.criterion:>2}  {r.name:<{width}}  "
                   f"{r.seconds:7.1f}s  {r.detail}")
    n_pass = sum(r.passed for r in results)
    click.echo(f"{n_pass}/{len(results)} criteria passed "
               f"({'quick' if quick else 'full'} mode, seed {rseed})")
    if out_path is not None:
        _write(out_path, _csv_text(
            "accept", rseed, "-",
            ["criterion", "name", "passed", "seconds", "detail"],
            [(r.criterion, r.name, r.passed, r.seconds,
              r.detail.replace(",", ";")) for r in results],
            {"quick": quick}))
    sys.exit(0 if n_pass == len(results) else 3)


if __name__ == "__main__":
    main()
