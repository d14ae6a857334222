"""Command-line harness: simulate, verify, norms, audit, compare.

Exit codes: 0 all checks passed / run finished; 1 a check failed; 2 bad
configuration or input; 3 numerical abort (failing time printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from .besov import BesovParams, MuWeight, besov_diff, besov_lp, sqrt_weight
from .config import config_from_file, write_manifest, write_ndjson
from .curve import (Curve, fft_coeffs, grid_values, magnitude, parseval_norm,
                    power_spectrum, read_curve, spectral_derivative, theta_grid,
                    wavenumbers, write_curve)
from .evolution import (_MU_WEIGHTS, FORMS, SimState, SimulationAbort,
                        law_from_config, make_initial_curve, right_hand_sides,
                        simulate)
from . import diagnostics as diag
from . import kernels
from . import operators as ops
from .tension import hookean


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except SimulationAbort as exc:
        print(f"numerical abort at t={exc.t:.6g}: {exc.reason}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state in it."""
    parser = argparse.ArgumentParser(prog="peskin-lab",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured evolution")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", help="override output.dir")
    p_sim.set_defaults(run=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="identity sweeps for kernels and operators")
    p_ver.add_argument("--suite", default="all", choices=[*_SUITES, "all"])
    p_ver.add_argument("--samples", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(run=_cmd_verify)

    p_nrm = sub.add_parser("norms", help="Besov norms of a curve file")
    p_nrm.add_argument("--in", dest="infile", required=True)
    p_nrm.add_argument("--s", type=float, default=0.5)
    p_nrm.add_argument("--p", type=float, default=2.0)
    p_nrm.add_argument("--r", type=float, default=1.0)
    p_nrm.add_argument("--mu", default="one", help="one, log, or file:PATH")
    p_nrm.add_argument("--method", default="diff", choices=["diff", "lp"])
    p_nrm.add_argument("--field", default="derivative",
                       choices=["derivative", "position"])
    p_nrm.set_defaults(run=_cmd_norms)

    p_aud = sub.add_parser("audit", help="run a trajectory audit")
    p_aud.add_argument("--audit", required=True, choices=list(_AUDITS))
    p_aud.add_argument("--config", required=True)
    p_aud.set_defaults(run=_cmd_audit)

    p_cmp = sub.add_parser("compare", help="stability audit on two curve files")
    p_cmp.add_argument("--in-a", dest="in_a", required=True)
    p_cmp.add_argument("--in-b", dest="in_b", required=True)
    p_cmp.add_argument("--config", required=True)
    p_cmp.set_defaults(run=_cmd_compare)
    return parser


def _cmd_simulate(args) -> int:
    cfg = config_from_file(args.config)
    out_dir = args.out or cfg.output_dir
    if out_dir is None:
        raise ValueError("no output directory (set output.dir or --out)")
    if os.path.exists(os.path.join(out_dir, "manifest.txt")):
        raise FileExistsError(f"{out_dir} holds a finished run; reruns are refused")
    traj = simulate(cfg)  # an input error or an abort leaves no directory
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for t, curve in zip(traj.times, traj.curves):
        name = f"snap_{round(t / cfg.dt):06d}.curve"
        write_curve(curve, os.path.join(out_dir, name))
        names.append(name)
    write_ndjson(os.path.join(out_dir, "diag.ndjson"), traj.records)
    write_manifest(out_dir, cfg, names + ["diag.ndjson"])
    print(f"wrote {len(traj.curves)} snapshots to {out_dir}")
    return 0


def _verify_kernels(samples: int, seed: int):
    rng = np.random.default_rng(seed)
    checks = {}
    z = rng.standard_normal((samples, 2))
    z *= (10.0 ** rng.uniform(-3, 3, samples) / magnitude(z))[:, None]
    u = rng.standard_normal((samples, 2))
    checks["cancellation_max"] = (float(np.max(kernels.cancellation_residual(u, z))),
                                  1e-12)
    a = rng.standard_normal((samples, 2))
    b = rng.standard_normal((samples, 2))
    d = rng.standard_normal((samples, 2))
    d += np.sign(d) * 0.1  # keep |d| away from zero
    direct = kernels.kernel_K(a, b, d, form="direct")
    split = kernels.kernel_K(a, b, d, form="split")
    scale = max(1.0, float(np.max(np.abs(direct))))
    checks["K_direct_vs_split"] = (float(np.max(np.abs(direct - split))), 1e-12)
    swapped = kernels.kernel_K(b, a, d, form="direct")
    # symmetry and orientation independence measured relative to the
    # kernel magnitude (entries grow like 1/|d|^2)
    checks["K_symmetry"] = (float(np.max(np.abs(direct - swapped))) / scale, 1e-14)
    # orientation independence: the mirror M = diag(1, -1) reverses the
    # orientation of perp and so negates R(d); K, quadratic in R, must obey
    # K(Ma, Mb, Md) = M K(a, b, d) M
    mirror = np.array([1.0, -1.0])
    mirrored = kernels.kernel_K(a * mirror, b * mirror, d * mirror, form="direct")
    checks["K_orientation"] = (
        float(np.max(np.abs(direct - mirrored * np.outer(mirror, mirror)))) / scale,
        1e-14)
    return checks


def _verify_operators(samples: int, seed: int):
    rng = np.random.default_rng(seed)
    checks = {}
    n = 256
    k = np.arange(1, 65)
    f = np.cos(np.outer(theta_grid(n), k))  # column k - 1 holds cos(k theta)
    worst = float(np.max(np.abs(ops.lambda_sine(f) - k * f)))
    checks["sine_eigenvalue_max_err"] = (worst, 1e-7)
    lam = ops.symbol(n, 8 * n).lam_tilde
    ks = np.abs(wavenumbers(n))
    mask = ks >= 1
    ratio = lam[mask] / ks[mask]
    ok = float(np.max(np.abs(ratio - np.clip(ratio, 1.0 / np.pi**2, 0.25))))
    checks["tilde_ratio_bracket_excess"] = (ok, 0.0)
    f = rng.standard_normal(n)
    f -= f.mean()
    # column i is lp_project(f, js[i]): every block from one forward and
    # one inverse transform
    pieces = grid_values(fft_coeffs(f)[:, None] * ops.lp_family(n).blocks.T)
    total = pieces.sum(axis=1)
    checks["lp_reconstruction"] = (float(np.max(np.abs(total - f))), 1e-10)
    return checks


def _verify_formulation(seed: int):
    rng = np.random.default_rng(seed)
    n, m = 128, 512
    checks = {"bi_vs_reduced_rel": (0.0, 1e-6),
              "deriv_vs_deriv_of_reduced_rel": (0.0, 1e-6),
              "split_identity": (0.0, 1e-10)}
    for _ in range(3):
        curve = _random_bandlimited_curve(rng, n, modes=16, amp=0.2)
        st = SimState.make(curve, hookean(1.0), m=m)
        fields = dict(zip(FORMS, right_hand_sides(st, *FORMS)))
        rb, rr = fields["position_bi"], fields["position_reduced"]
        rel = _rel_l2(rb - rr, rr)
        checks["bi_vs_reduced_rel"] = (max(checks["bi_vs_reduced_rel"][0], rel), 1e-6)
        raw = fields["derivative"]
        rd = raw - raw.mean(axis=0)  # rhs_derivative's projection
        rds = spectral_derivative(rr)
        rds -= rds.mean(axis=0)
        rel = _rel_l2(rd - rds, rds)
        checks["deriv_vs_deriv_of_reduced_rel"] = (
            max(checks["deriv_vs_deriv_of_reduced_rel"][0], rel), 1e-6)
        resid = raw - (-fields["dissipation"] + fields["remainder"])
        checks["split_identity"] = (
            max(checks["split_identity"][0], float(np.max(np.abs(resid)))), 1e-10)
    return checks


def _random_bandlimited_curve(rng, n: int, modes: int, amp: float) -> Curve:
    """The unit circle plus sum_k amp k^-3 (a cos(k theta) + b sin(k theta))
    per component, k = 1 .. modes, with a and b standard normal, drawn k by
    k, component by component, a before b."""
    k = np.arange(1, modes + 1)
    draws = rng.standard_normal((modes, 2, 2)) * (amp * k**-3.0)[:, None, None]
    kth = np.multiply.outer(theta_grid(n), k)
    pert = np.cos(kth) @ draws[..., 0] + np.sin(kth) @ draws[..., 1]
    return Curve.from_nodes(Curve.circle(n).nodes + pert)


def _rel_l2(diff: np.ndarray, ref: np.ndarray) -> float:
    num = parseval_norm(power_spectrum(diff))
    den = parseval_norm(power_spectrum(ref))
    return num / den if den > 0 else num


_SUITES = {  # verify --suite -> checks(samples, seed), in the order "all" runs
    "kernels": _verify_kernels,
    "operators": _verify_operators,
    "formulation": lambda samples, seed: _verify_formulation(seed),
}


def _cmd_verify(args) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for suite in suites:
        checks = _SUITES[suite](args.samples, args.seed)
        for name, (value, tol) in checks.items():
            ok = value <= tol
            failed |= not ok
            print(f"[{suite}] {name}: {value:.3e} <= {tol:.0e} "
                  f"{'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0


def _mu_from_arg(arg: str) -> MuWeight | None:
    if arg == "one":
        return None
    if arg == "log":
        return MuWeight.log4()
    if arg.startswith("file:"):
        table = np.loadtxt(arg[5:])
        return MuWeight(table=np.atleast_1d(table))
    raise ValueError(f"unknown mu weight {arg!r}")


def _cmd_norms(args) -> int:
    curve = read_curve(args.infile)
    values = curve.derivative().nodes if args.field == "derivative" else curve.nodes
    params = BesovParams(args.s, args.p, args.r, _mu_from_arg(args.mu))
    value = besov_diff(values, params) if args.method == "diff" \
        else besov_lp(values, params)
    print(json.dumps({"file": args.infile, "field": args.field, "s": args.s,
                      "p": args.p, "r": args.r, "mu": args.mu,
                      "method": args.method, "value": value}, sort_keys=True))
    return 0


def _apriori(cfg) -> diag.AuditReport:
    """The apriori audit of the configured run, weighted by mu.kind as the
    run's records are."""
    traj = simulate(cfg)
    mu = _MU_WEIGHTS[cfg.mu_kind](traj.derivs[0].nodes)
    return diag.apriori_audit(traj, mu, law_from_config(cfg).lam)


_AUDITS = {  # audit --audit -> the report for a config
    "apriori": _apriori,
    "smoothing": lambda cfg: diag.smoothing_audit(
        simulate(cfg), mode="rough" if cfg.init_kind == "random-sobolev" else "smooth"),
    "stability": lambda cfg: diag.stability_audit(make_initial_curve(cfg), cfg),
    "equilibrium": lambda cfg: diag.equilibrium_audit(simulate(cfg)),
}


def _cmd_audit(args) -> int:
    report = _AUDITS[args.audit](config_from_file(args.config))
    print(json.dumps({"audit": report.name, "passed": report.passed,
                      "measured": report.measured,
                      "thresholds": report.thresholds,
                      "digest": report.inputs_digest}, sort_keys=True))
    return 0 if report.passed else 1


def _cmd_compare(args) -> int:
    cfg = config_from_file(args.config)
    report = diag.stability_audit(read_curve(args.in_a), cfg, y0=read_curve(args.in_b),
                                  omega=sqrt_weight(MuWeight.log4()))
    print(json.dumps({"audit": report.name, "passed": report.passed,
                      "measured": report.measured}, sort_keys=True))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
