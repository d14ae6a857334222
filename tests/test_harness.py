import json
from dataclasses import fields

import numpy as np
import pytest

from peskin_lab.cli import main
from peskin_lab.config import (
    canonical_text,
    parse_flat,
    sim_config_from_dict,
    write_manifest,
)
from peskin_lab.curve import Curve, write_curve
from peskin_lab.evolution import SimConfig


EQ_CONFIG = """
# equilibrium circle, short run
grid.n = 32
grid.m = 128
time.dt = 0.005
time.horizon = 0.02
time.scheme = imex
init.kind = circle
tension.kind = hookean
tension.k0 = 1.0
output.stride = 2
seed = 0
"""


def test_parse_flat_values():
    flat = parse_flat("a.b = 3\nc = 2.5\nd = true\ne = hello\n"
                      "f = [1.0, 2.0]\ng = 'quoted'\n# comment\n")
    assert flat == {"a.b": 3, "c": 2.5, "d": True, "e": "hello",
                    "f": [1.0, 2.0], "g": "quoted"}


def test_parse_flat_rejects_garbage():
    with pytest.raises(ValueError):
        parse_flat("just words\n")


def test_sim_config_mapping():
    cfg = sim_config_from_dict(parse_flat(EQ_CONFIG))
    assert cfg.n == 32 and cfg.m == 128 and cfg.scheme == "imex"
    assert cfg.dt == 0.005
    with pytest.raises(ValueError):
        sim_config_from_dict({"bogus.key": 1})


@pytest.mark.parametrize("bad, key", [
    (dict(n=32.0), "grid.n"), (dict(m=128.0), "grid.m"), (dict(seed=True), "seed"),
    (dict(dt=True), "time.dt"), (dict(tension_k0="1"), "tension.k0"),
    (dict(tension_globalize="false"), "tension.globalize"),
    (dict(tension_globalize=1), "tension.globalize"),
    (dict(scheme=None), "time.scheme"), (dict(init_file=3), "init.file"),
    (dict(tension_window=(0.5,)), "tension.window"),
    (dict(tension_window=(0.5, True)), "tension.window"),
    (dict(output_stride=0), "output.stride"), (dict(horizon=float("inf")), "time.horizon"),
    (dict(dt=float("nan")), "time.dt"), (dict(horizon=0.1005), "whole number"),
    (dict(scheme="foo"), "time.scheme"), (dict(init_kind="foo"), "init.kind"),
    (dict(tension_kind="foo"), "tension.kind"), (dict(mu_kind="foo"), "mu.kind"),
    (dict(init_kind="fourier-file"), "init.file"),
    (dict(tension_kind="table"), "tension.table"),
    # a real value is finite, and a floor at or below 0 would switch the
    # arc-chord abort off
    (dict(tension_k0=float("nan")), "tension.k0 must be finite"),
    (dict(init_radius=float("inf")), "init.radius must be finite"),
    (dict(tension_p=-float("inf")), "tension.p must be finite"),
    (dict(tension_window=(0.5, float("inf"))), "tension.window must be finite"),
    (dict(tension_window=[float("nan"), 2]), "tension.window must be finite"),
    (dict(rho_floor=float("nan")), "rho.floor must be finite"),
    (dict(rho_floor=-1.0), "rho.floor must be positive"),
    (dict(rho_floor=0.0), "rho.floor must be positive")])
def test_sim_config_checks_every_setting(bad, key):
    with pytest.raises(ValueError, match=key):
        SimConfig(**bad)


def test_sim_config_keeps_the_given_numbers():
    # an int stays an int (the manifest shows it as written); the window
    # becomes a tuple of floats; Optional fields take None
    cfg = SimConfig(n=np.int64(32), dt=1, horizon=2, tension_k0=2,
                    tension_window=[1, 3], m=None, rho_floor=None)
    assert (cfg.dt, cfg.horizon, cfg.tension_k0) == (1, 2, 2)
    assert type(cfg.tension_k0) is int and cfg.steps == 2
    assert cfg.tension_window == (1.0, 3.0)
    assert all(type(v) is float for v in cfg.tension_window)
    assert "tension.k0 = 2\n" in canonical_text(cfg)


def test_canonical_text_round_trip():
    cfg = sim_config_from_dict(parse_flat(EQ_CONFIG))
    text = canonical_text(cfg)
    again = sim_config_from_dict(parse_flat(text))
    assert again == cfg


def test_canonical_text_round_trips_every_setting():
    # every SimConfig field off its default comes back through the key table
    changed = dict(
        n=48, m=192, dt=2.5e-3, horizon=0.5, scheme="rk4",
        init_kind="ellipse", init_radius=1.5, init_a=3.0, init_b=0.5,
        init_perturb_mode=3, init_perturb_amp=0.1, init_rough_exponent=1.8,
        init_rough_amp=0.2, init_file="start.curve", tension_kind="power",
        tension_k0=2.0, tension_coef=0.5, tension_p=3.0,
        tension_window=(0.25, 4.0), tension_globalize=True,
        tension_table="table.txt", output_stride=3, output_dir="runs/a",
        seed=7, rho_floor=0.05, mu_kind="construct", diag_beta_points=512)
    assert set(changed) == {f.name for f in fields(SimConfig)}
    cfg = SimConfig(**changed)
    assert all(getattr(cfg, f.name) != f.default for f in fields(SimConfig))
    text = canonical_text(cfg)
    assert len(text.splitlines()) == len(changed)
    assert sim_config_from_dict(parse_flat(text)) == cfg


def test_manifest_immutable(tmp_path):
    cfg = SimConfig(n=32)
    write_manifest(tmp_path, cfg, ["x"])
    with pytest.raises(FileExistsError):
        write_manifest(tmp_path, cfg, ["x"])


def _write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cli_simulate_outputs(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, EQ_CONFIG)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    assert (out / "manifest.txt").exists()
    assert (out / "diag.ndjson").exists()
    snaps = sorted(out.glob("snap_*.curve"))
    assert len(snaps) >= 2
    records = [json.loads(line) for line in (out / "diag.ndjson").read_text().splitlines()]
    for rec in records:
        for key in ("t", "arc_chord", "l2", "h_half", "h1", "besov_half_mu",
                    "step_scheme"):
            assert key in rec
    # manifests are immutable: a second run into the same dir fails cleanly
    rc = main(["simulate", "--config", cfg_path, "--out", str(out)])
    assert rc == 2


def test_cli_simulate_deterministic(tmp_path):
    cfg_path = _write_config(tmp_path, EQ_CONFIG.replace("circle", "circle"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "diag.ndjson").read_bytes() == (out2 / "diag.ndjson").read_bytes()
    for snap in out1.glob("snap_*.curve"):
        assert snap.read_bytes() == (out2 / snap.name).read_bytes()


def test_cli_bad_config_exit_code(tmp_path):
    cfg_path = _write_config(tmp_path, "grid.n = 32\nbogus.key = 1\n")
    assert main(["simulate", "--config", cfg_path, "--out",
                 str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("bad, message", [
    ("grid.m = 100", "multiple"), ("grid.m = 0", "multiple"),
    ("time.horizon = 0.0225", "whole number"), ("time.dt = 0", "time.dt"),
    ("time.dt = -0.005", "time.dt"), ("time.horizon = -0.02", "time.horizon"),
    ("grid.m = 128.0", "grid.m"),
    ("grid.n = 32.0\ninit.kind = random-sobolev", "grid.n"),
    ("output.stride = 0", "output.stride"), ("output.stride = -2", "output.stride"),
    ("output.stride = 1.5", "output.stride"),
    ("init.perturb_mode = 2.5", "init.perturb_mode"),
    ("seed = 1.5\ninit.kind = random-sobolev", "seed"),
    ("diag.beta_points = 1024.0", "diag.beta_points"),
    ("tension.window = 0.5", "tension.window"), ("time.dt = abc", "time.dt"),
    ("init.radius = abc", "init.radius"), ("rho.floor = abc", "rho.floor"),
    ("time.horizon = true", "time.horizon"), ("tension.k0 = true", "tension.k0"),
    ('tension.globalize = "false"', "tension.globalize"),
    ("tension.globalize = 1", "tension.globalize"),
    ("tension.kind = arctan\ntension.window = [0.5, 0.0]", "0 < a < b"),
    ("tension.kind = arctan\ntension.window = [2.0, 1.0]", "0 < a < b"),
    ("tension.kind = arctan\ntension.window = [-1.0, 2.0]", "0 < a < b")])
def test_cli_rejects_inconsistent_grid_and_horizon(tmp_path, capsys, bad, message):
    # the appended lines override their keys (last one wins); the run is
    # rejected before the output directory is made
    cfg_path = _write_config(tmp_path, EQ_CONFIG + bad + "\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad, key", [
    ("time.scheme = foo", "time.scheme"), ("init.kind = foo", "init.kind"),
    ("tension.kind = foo", "tension.kind"), ("mu.kind = foo", "mu.kind"),
    ("init.kind = fourier-file", "init.file"), ("tension.kind = table", "tension.table")])
def test_cli_rejects_unknown_choices_before_any_output(tmp_path, capsys, bad, key):
    # every choice and its companion key is checked when the config loads,
    # before the output directory is made
    cfg_path = _write_config(tmp_path, EQ_CONFIG + bad + "\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_cli_refused_rerun_keeps_the_first_run(tmp_path, capsys):
    out = tmp_path / "out"
    first = _write_config(tmp_path, EQ_CONFIG)
    assert main(["simulate", "--config", first, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    other = tmp_path / "other.cfg"
    other.write_text(EQ_CONFIG + "grid.n = 64\ngrid.m = 256\n")
    assert main(["simulate", "--config", str(other), "--out", str(out)]) == 2
    assert "refused" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_cli_names_snapshots_by_step(tmp_path):
    # 25 steps at stride 10: the last step is written too, as snap_000025
    cfg_path = _write_config(tmp_path, EQ_CONFIG + "time.horizon = 0.125\n"
                             "output.stride = 10\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("snap_*.curve")) == [
        f"snap_{i:06d}.curve" for i in (0, 10, 20, 25)]


def test_cli_table_not_covering_initial_stretch_exits_2(tmp_path, capsys):
    # the unit circle has stretch 1, below the table's range
    table = tmp_path / "t.txt"
    table.write_text("1.5 1.5\n2.0 2.2\n3.0 3.5\n")
    cfg_path = _write_config(tmp_path, EQ_CONFIG + "tension.kind = table\n"
                             f"tension.table = {table}\n")
    assert main(["simulate", "--config", cfg_path, "--out",
                 str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "range [1.5, 3.0]" in err and "tension.globalize" in err


def test_cli_odd_beta_points_exits_2_before_any_output(tmp_path, capsys):
    # an odd half-offset beta grid has a node at beta = 0; the first
    # record's Besov norm rejects it before any step or snapshot
    cfg_path = _write_config(tmp_path, EQ_CONFIG + "diag.beta_points = 513\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert "513" in capsys.readouterr().err
    assert not out.exists()


def test_cli_zero_beta_points_exits_2_before_any_output(tmp_path, capsys):
    # an empty beta grid crashed the first record with ZeroDivisionError
    cfg_path = _write_config(tmp_path, EQ_CONFIG + "diag.beta_points = 0\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert "beta_points must be even and at least 2, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad, code, message", [
    ("tension.kind = table\ntension.table = {missing}", 2, "not found"),
    ("init.kind = fourier-file\ninit.file = {nan_curve}", 2, "must be finite"),
    ("init.kind = fourier-file\ninit.file = {short_curve}", 2, "header N=16 but 32"),
    ("init.radius = 0.0", 2, "arc-chord number is 0"),
    ("rho.floor = 2.0", 3, "numerical abort"),
    ("rho.floor = -1.0", 2, "rho.floor must be positive"),
    ("rho.floor = 0.0", 2, "rho.floor must be positive"),
    ("rho.floor = nan", 2, "rho.floor must be finite"),
    ("tension.k0 = nan", 2, "tension.k0 must be finite")],
    ids=["missing-table", "nan-node", "truncated", "degenerate", "abort",
         "negative-floor", "zero-floor", "nan-floor", "nan-k0"])
def test_cli_failed_run_leaves_no_output_directory(tmp_path, capsys, bad, code,
                                                   message):
    # found while the law or the initial curve is built (a curve file with a
    # nan node, or with more nodes than its header's N, once started a run
    # that aborted with exit 3), by the initial arc-chord number (a circle of
    # radius 0 once aborted with exit 3), or by the first step (a floor above
    # the circle's grid arc-chord number, 0.64); a bad value is found when
    # the config is read (a floor of -1, 0 or nan once ran on with the
    # abort off, and a nan k0 once aborted with exit 3).
    # test_cli_rejects_inconsistent_grid_and_horizon covers a grid found
    # inconsistent when the state is built
    nan_curve, short_curve = tmp_path / "nan.curve", tmp_path / "short.curve"
    write_curve(Curve.circle(32), nan_curve)
    short_curve.write_text(nan_curve.read_text().replace("N=32", "N=16"))
    lines = nan_curve.read_text().splitlines()
    lines[3] = "nan 0.0"
    nan_curve.write_text("\n".join(lines) + "\n")
    bad = bad.format(missing=tmp_path / "missing.txt", nan_curve=nan_curve,
                     short_curve=short_curve)
    cfg_path = _write_config(tmp_path, EQ_CONFIG + bad + "\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_file_curve_default_alpha_grid(tmp_path):
    # no grid.* keys: the alpha grid follows the file's node count (96),
    # not the default grid.n
    path = tmp_path / "start.curve"
    write_curve(Curve.ellipse(96, a=1.2, b=1.0), path)
    cfg_path = _write_config(tmp_path, f"""
init.kind = fourier-file
init.file = {path}
time.dt = 0.005
time.horizon = 0.01
tension.kind = hookean
output.stride = 1
""")
    assert main(["simulate", "--config", cfg_path, "--out",
                 str(tmp_path / "o")]) == 0


def test_cli_abort_exit_code(tmp_path):
    cfg_path = _write_config(tmp_path, EQ_CONFIG + "rho.floor = 99.0\n")
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 3


def test_cli_verify(capsys):
    assert main(["verify", "--suite", "kernels", "--samples", "200"]) == 0
    out = capsys.readouterr().out
    assert "cancellation_max" in out and "PASS" in out


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    # rebuilding the argparse tree cost 0.76 ms on every main call
    import argparse

    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for _ in range(2):
        assert main(["verify", "--suite", "kernels", "--samples", "200"]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_cli_verify_all(capsys):
    tolerances = {"bi_vs_reduced_rel": 1e-6,
                  "deriv_vs_deriv_of_reduced_rel": 1e-6,
                  "split_identity": 1e-10}
    assert main(["verify", "--suite", "all"]) == 0
    lines = [line[len("[formulation] "):] for line in capsys.readouterr().out.splitlines()
             if line.startswith("[formulation] ")]
    assert sorted(line.split(":")[0] for line in lines) == sorted(tolerances)
    for line in lines:
        name, rest = line.split(": ")
        assert float(rest.split()[0]) <= tolerances[name], line


def test_verify_curves_match_their_mode_loop():
    # verify's curves are sums over modes of drawn cos and sin terms; the
    # outer-product form keeps the loop's draw order
    from peskin_lab.cli import _random_bandlimited_curve
    from peskin_lab.curve import theta_grid

    n, modes, amp = 128, 16, 0.2
    th = theta_grid(n)
    loop_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):
        pert = np.zeros((n, 2))
        for k in range(1, modes + 1):
            scale = amp * k**-3.0
            for c in range(2):
                pert[:, c] += scale * (loop_rng.standard_normal() * np.cos(k * th)
                                       + loop_rng.standard_normal() * np.sin(k * th))
        want = Curve.circle(n).nodes + pert
        got = _random_bandlimited_curve(rng, n, modes, amp).nodes
        assert np.max(np.abs(got - want)) <= 1e-14


def test_cli_norms(tmp_path, capsys):
    path = tmp_path / "circle.curve"
    write_curve(Curve.circle(64), path)
    rc = main(["norms", "--in", str(path), "--s", "0.5", "--p", "2",
               "--r", "1"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    # B^{1/2}_{2,1} of the circle derivative: same single-mode closed form
    from scipy.integrate import quad

    val, _ = quad(lambda b: b**-1.5 * np.sin(b / 2.0), 0, np.pi)
    oracle = np.sqrt(2.0 * np.pi) * 4.0 * val
    assert abs(rec["value"] - oracle) / oracle < 0.02


@pytest.mark.parametrize("table, message", [
    ("1.0\nnan\n2.0\n", "must be finite and positive"),
    ("1.0\n-3.0\n-2.0\n", "must be finite and positive"),
    ("0.0\n1.0\n", "must be finite and positive"),
    ("50\n1\n", "must be non-decreasing")],
    ids=["nan", "negative", "zero", "decreasing"])
def test_cli_norms_rejects_a_bad_weight_table(tmp_path, capsys, table, message):
    # such tables once printed a NaN, a negative norm or (50, 1) a weighted
    # norm of 411.37, and exited 0
    path, mu = tmp_path / "circle.curve", tmp_path / "mu.txt"
    write_curve(Curve.circle(32), path)
    mu.write_text(table)
    assert main(["norms", "--in", str(path), "--mu", f"file:{mu}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("audit, extra, message", [
    ("smoothing", "init.kind = random-sobolev\ntime.horizon = 0.0",
     "positive time"),
    ("equilibrium", "init.perturb_mode = 2\ninit.perturb_amp = 0.05\n"
     "time.horizon = 0.01", "at least two outputs"),
    ("apriori", "time.horizon = 0.0", "positive time"),
    ("smoothing", "time.horizon = 0.0", "positive time"),
    ("stability", "time.horizon = 0.0", "positive time")],
    ids=["smoothing-zero-horizon", "equilibrium-two-outputs",
         "apriori-zero-horizon", "smoothing-smooth-zero-horizon",
         "stability-zero-horizon"])
def test_cli_audit_without_data_for_its_fit_exits_2(tmp_path, capsys, audit,
                                                    extra, message):
    # a zero-horizon smoothing audit once exited 1 with a traceback, an
    # equilibrium audit on outputs at t = 0 and 0.01 once passed on a line
    # through one point, and the zero-horizon apriori, smooth-mode smoothing
    # and stability audits once passed with no time in the run
    cfg_path = _write_config(tmp_path, EQ_CONFIG + extra + "\n")
    assert main(["audit", "--audit", audit, "--config", cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_audit_equilibrium(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, EQ_CONFIG)
    rc = main(["audit", "--audit", "equilibrium", "--config", cfg_path])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["passed"] is True


def test_cli_compare(tmp_path, capsys):
    a = tmp_path / "a.curve"
    b = tmp_path / "b.curve"
    write_curve(Curve.circle(32), a)
    th = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    radial = 1.0 + 0.02 * np.cos(2 * th)
    write_curve(Curve.from_nodes(
        np.stack([radial * np.cos(th), radial * np.sin(th)], 1)), b)
    cfg_path = _write_config(tmp_path, EQ_CONFIG)
    rc = main(["compare", "--in-a", str(a), "--in-b", str(b),
               "--config", cfg_path])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert "ratios" in rec["measured"]


def test_cli_compare_checks_node_counts_before_any_run(tmp_path, capsys,
                                                       monkeypatch):
    # curves of 32 and 64 nodes once ran both simulations and then failed
    # on numpy's broadcast error
    import peskin_lab.diagnostics as diag

    runs = []
    monkeypatch.setattr(diag, "simulate", lambda *a, **k: runs.append(a))
    a, b = tmp_path / "a.curve", tmp_path / "b.curve"
    write_curve(Curve.circle(32), a)
    write_curve(Curve.circle(64), b)
    cfg_path = _write_config(tmp_path, EQ_CONFIG)
    rc = main(["compare", "--in-a", str(a), "--in-b", str(b),
               "--config", cfg_path])
    assert rc == 2
    assert "32 and 64 nodes" in capsys.readouterr().err
    assert runs == []


def test_cli_apriori_audit_weights_by_mu_kind(tmp_path, capsys):
    # the audit once used the log4 weight whatever mu.kind said
    from pathlib import Path

    from peskin_lab import diagnostics as diag
    from peskin_lab.config import config_from_file
    from peskin_lab.evolution import law_from_config, simulate

    text = (Path(__file__).resolve().parent.parent / "configs" / "perturbed.cfg").read_text()
    assert "time.horizon = 2.0\n" in text
    text = text.replace("time.horizon = 2.0\n", "time.horizon = 0.1\n") + "mu.kind = one\n"
    cfg_path = _write_config(tmp_path, text)
    rc = main(["audit", "--audit", "apriori", "--config", cfg_path])
    rec = json.loads(capsys.readouterr().out)
    cfg = config_from_file(cfg_path)
    want = diag.apriori_audit(simulate(cfg), None, law_from_config(cfg).lam)
    assert rec["measured"] == want.measured
    assert rc == (0 if want.passed else 1)
