import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geoksat
from geoksat.cli import main
from geoksat.dimacs import parse_dimacs
from geoksat.experiments import ReportRecord


def run_cli(args):
    return main(args)


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: the library's one numeric dependency is numpy
    src = str(Path(geoksat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, geoksat.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_generate_writes_dimacs(tmp_path):
    out = tmp_path / "inst.cnf"
    run_cli(["generate", "--model", "powerlaw", "-n", "30", "-m", "60",
             "-k", "3", "--beta", "2.5", "--seed", "5", "-o", str(out)])
    f, comments = parse_dimacs(out)
    assert f.n == 30 and f.m == 60 and f.k == 3
    assert any("seed = 5" in c for c in comments)


def test_generate_geometric_with_sites(tmp_path):
    out = tmp_path / "geo.cnf"
    sites = tmp_path / "sites.json"
    run_cli(["generate", "--model", "geometric", "-n", "25", "--delta", "2",
             "-k", "2", "--d", "2", "--p-norm", "2", "-T", "0.5",
             "--seed", "9", "-o", str(out), "--sites-out", str(sites)])
    f, _ = parse_dimacs(out)
    assert f.m == 50
    data = json.loads(sites.read_text())
    assert len(data["positions"]) == 25


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
    args = ["generate", "--model", "uniform", "-n", "20", "-m", "40", "-k", "3",
            "--seed", "77"]
    run_cli(args + ["-o", str(a)])
    run_cli(args + ["-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_validation_messages(tmp_path, capsys):
    with pytest.raises(SystemExit, match="beta must be > 2"):
        run_cli(["generate", "--model", "powerlaw", "-n", "10", "-m", "5",
                 "-k", "2", "--beta", "1.9", "--seed", "1"])
    with pytest.raises(SystemExit, match="k must satisfy"):
        run_cli(["generate", "--model", "uniform", "-n", "3", "-m", "5",
                 "-k", "4", "--seed", "1"])
    with pytest.raises(SystemExit, match="temperature must be >= 0"):
        run_cli(["generate", "--model", "geometric", "-n", "10", "-m", "5",
                 "-k", "2", "-T", "-0.5", "--seed", "1"])
    with pytest.raises(SystemExit):
        run_cli(["generate", "--model", "uniform", "-n", "10", "-m", "5",
                 "-k", "2", "--p-norm", "0", "--seed", "1"])


def test_p_norm_above_the_underflow_bound(tmp_path):
    with pytest.raises(SystemExit, match="error: p-norm .*INFINITY"):
        run_cli(["generate", "--model", "geometric", "-n", "10", "-m", "5",
                 "-k", "2", "--p-norm", "400", "--seed", "1",
                 "-o", str(tmp_path / "x.cnf")])


_VC = ["voronoi-count", "--seed", "1", "-n", "10"]
_NICE = ["experiment", "--kind", "NICE_FRACTION", "--n-values", "10",
         "-k", "2", "--d", "2", "--p-norm", "2", "-T", "0.5"]


@pytest.mark.parametrize("argv, message", [
    (_VC + ["-k", "2", "--samples", "0"], "samples must be >= 1"),
    (_VC + ["-k", "0"], "k = 0 must satisfy 1 <= k"),
    (["voronoi-count", "--seed", "1", "-n", "0", "-k", "1"],
     "n must be >= 1"),
    (["generate", "--model", "uniform", "-n", "10", "--delta", "-3",
      "-k", "2", "--seed", "1"], "delta must be > 0"),
    (["experiment", "--kind", "REGION_SCALING", "--n-values", "10",
      "-k", "2", "--d", "2", "--p-norm", "2", "--sample-factor", "0"],
     "sample_factor must be >= 1"),
    (_NICE + ["-m", "0"], "m must be >= 1"),
    (_NICE + ["--delta", "-1"], "delta must be > 0"),
    (_NICE + ["--audit", "0"], "audit must be >= 1"),
])
def test_non_positive_sizes_are_rejected(argv, message, tmp_path):
    with pytest.raises(SystemExit, match="error: " + message):
        run_cli(argv + ["-o", str(tmp_path / "out")])


_TEMPERATURE = "temperature must be >= 0 and finite"


@pytest.mark.parametrize("argv, message", [
    (["generate", "--model", "geometric", "-n", "10", "-m", "5", "-k", "2",
      "-T", "inf", "--seed", "1"], _TEMPERATURE),
    (["generate", "--model", "powerlaw", "-n", "10", "-m", "5", "-k", "2",
      "--beta", "2.5", "-T", "nan", "--seed", "1"], _TEMPERATURE),
    (["experiment", "--kind", "NICE_FRACTION", "--n-values", "50", "--seeds", "1",
      "-k", "3", "--d", "2", "--p-norm", "2", "-T", "nan", "--delta", "1"],
     _TEMPERATURE),
    # unchecked, an infinite delta overflows round(delta * n) into a traceback
    (["generate", "--model", "powerlaw", "-n", "10", "-k", "3", "--delta",
      "inf", "--beta", "2.5", "--seed", "1"], "delta must be > 0 and finite"),
    (["generate", "--model", "powerlaw", "-n", "10", "-m", "5", "-k", "3",
      "--beta", "inf", "--seed", "1"], "beta must be > 2"),
    (["moments", "--beta", "inf", "--n-values", "100"], "beta must be > 2"),
    (["experiment", "--kind", "NICE_FRACTION", "--n-values", "50", "--seeds", "1",
      "-k", "3", "--d", "2", "--p-norm", "2", "-T", "0.5", "--delta", "inf"],
     "delta must be > 0 and finite"),
], ids=["generate_inf", "powerlaw_nan", "experiment_nan", "delta_inf",
        "beta_inf", "moments_beta_inf", "experiment_delta_inf"])
def test_non_finite_temperature_is_rejected(argv, message, tmp_path):
    with pytest.raises(SystemExit, match="^error: " + message):
        run_cli(argv + ["-o", str(tmp_path / "out")])


def test_seed_is_required():
    with pytest.raises(SystemExit):
        run_cli(["generate", "--model", "uniform", "-n", "10", "-m", "5",
                 "-k", "2"])


@pytest.mark.parametrize("argv, missing", [
    (["voronoi-count", "-n", "10", "-k", "2"], "--seed"),
    (["voronoi-count", "-n", "10", "--seed", "1"], "-k"),
    (["voronoi-count", "-n", "10"], "-k, --seed"),
    (["generate", "-n", "10", "-m", "5", "-k", "2", "--seed", "1"], "--model"),
])
def test_missing_required_options(argv, missing, capsys):
    with pytest.raises(SystemExit, match=f"error: .*required: {missing}$"):
        run_cli(argv)
    assert capsys.readouterr().out == ""


def test_uniform_model_rejects_beta(tmp_path):
    # --beta used to switch the draw to power-law weights under a
    # "c model = uniform" comment
    for command in ("generate", "core"):
        with pytest.raises(SystemExit, match="error: --model uniform takes no --beta"):
            run_cli([command, "--model", "uniform", "-n", "8", "-m", "3", "-k", "2",
                     "--beta", "3", "--seed", "1", "-o", str(tmp_path / "x")])


def test_weights_file_rejects_beta(tmp_path):
    # the file's weights used to win over --beta without a word
    weights = tmp_path / "w.txt"
    weights.write_text("\n".join(str(i) for i in range(1, 7)) + "\n")
    out = tmp_path / "inst.cnf"
    for model in ("powerlaw", "geometric"):
        with pytest.raises(SystemExit, match="error: --weights-file gives the "
                                             "weights: drop --beta"):
            run_cli(["generate", "--model", model, "--weights-file", str(weights),
                     "-n", "6", "-m", "3", "-k", "2", "--beta", "3", "--seed", "1",
                     "-o", str(out)])
    # without --beta the file is the weight source, and the comments say so
    run_cli(["generate", "--model", "powerlaw", "--weights-file", str(weights),
             "-n", "6", "-m", "3", "-k", "2", "--seed", "1", "-o", str(out)])
    _, comments = parse_dimacs(out)
    assert f"weights = {weights}" in comments


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOKSAT_OUTDIR", str(tmp_path / "results"))
    run_cli(["generate", "--model", "uniform", "-n", "10", "-m", "5",
             "-k", "2", "--seed", "3", "-o", "bare.cnf"])
    assert (tmp_path / "results" / "bare.cnf").exists()


def test_core_subcommand(tmp_path):
    cert = tmp_path / "core.json"
    frag = tmp_path / "core.cnf"
    code = run_cli(["core", "--model", "geometric", "-n", "100", "-m", "3200",
                    "-k", "2", "--d", "2", "-T", "0", "--seed", "12",
                    "-o", str(cert), "--fragment-out", str(frag)])
    assert code == 0
    data = json.loads(cert.read_text())
    assert len(data["clause_indices"]) == 4
    back, _ = parse_dimacs(frag)
    assert back.m == 4


def test_core_model_requires_seed_and_sizes(tmp_path):
    base = ["core", "--model", "geometric", "-m", "2000",
            "-o", str(tmp_path / "c.json")]
    with pytest.raises(SystemExit, match="error: .*required: --seed"):
        run_cli(base + ["-n", "30", "-k", "2"])
    with pytest.raises(SystemExit, match="error: .*required: -n"):
        run_cli(base + ["-k", "2", "--seed", "1"])
    with pytest.raises(SystemExit, match="error: .*required: -k"):
        run_cli(base + ["-n", "30", "--seed", "1"])
    assert not (tmp_path / "c.json").exists()


def test_beta_rule_in_every_subcommand(tmp_path):
    weights = tmp_path / "w.txt"
    weights.write_text("1\n2\n3\n")
    for args in (["core", "--model", "powerlaw", "-n", "10", "-m", "5",
                  "-k", "2", "--beta", "2", "--seed", "1"],
                 ["generate", "--model", "uniform", "-n", "3", "-m", "5",
                  "-k", "2", "--weights-file", str(weights), "--beta", "1.5",
                  "--seed", "1"],
                 ["voronoi-count", "-n", "20", "-k", "2", "--beta", "2",
                  "--seed", "1"],
                 ["moments", "--beta", "1.5", "--n-values", "10"],
                 ["experiment", "--kind", "MOMENT_CHECK", "--n-values", "10",
                  "--beta", "nan"]):
        with pytest.raises(SystemExit, match="error: beta must be > 2"):
            run_cli(args)


def test_core_on_dimacs_input(tmp_path):
    inst = tmp_path / "inst.cnf"
    run_cli(["generate", "--model", "geometric", "-n", "80", "-m", "2600",
             "-k", "2", "-T", "0", "--seed", "2", "-o", str(inst)])
    cert = tmp_path / "c.json"
    assert run_cli(["core", "--input", str(inst), "-o", str(cert)]) == 0
    assert cert.exists()


def test_core_none(tmp_path, capsys):
    inst = tmp_path / "small.cnf"
    run_cli(["generate", "--model", "uniform", "-n", "50", "-m", "5",
             "-k", "3", "--seed", "4", "-o", str(inst)])
    code = run_cli(["core", "--input", str(inst), "-o", str(tmp_path / "x.json")])
    assert code == 1
    assert "NONE" in capsys.readouterr().out


def test_voronoi_count_subcommand(tmp_path, capsys):
    run_cli(["voronoi-count", "-n", "50", "-k", "2", "--samples", "2000",
             "--seed", "8"])
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["n"] == 50 and record["count"] >= 1
    assert record["count_half_budget"] <= record["count"]


def test_voronoi_count_on_a_sites_json(tmp_path, capsys):
    sites = tmp_path / "sites.json"
    run_cli(["generate", "--model", "geometric", "-n", "40", "-m", "40",
             "-k", "2", "--beta", "2.5", "--seed", "3",
             "-o", str(tmp_path / "geo.cnf"), "--sites-out", str(sites)])
    weights = json.loads(sites.read_text())["weights"]
    capsys.readouterr()
    run_cli(["voronoi-count", "--sites-json", str(sites), "-k", "2",
             "--samples", "4000", "--seed", "8"])
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["n"] == 40 and record["samples"] == 4000
    assert record["W"] == pytest.approx(sum(weights)) and record["W"] > 40
    assert record["count"] >= 40
    # the file fixes n and the weights: -n and --beta are errors, not ignored
    for extra in (["-n", "40"], ["--beta", "2.5"], ["-n", "10", "--beta", "3"]):
        with pytest.raises(SystemExit, match="error: --sites-json"):
            run_cli(["voronoi-count", "--sites-json", str(sites), "-k", "2",
                     "--seed", "8"] + extra)


def test_voronoi_count_divides_site_weights_by_their_minimum(tmp_path, capsys):
    # a site file's raw weights [2, 4, 3] are the site set [1, 2, 1.5]
    positions = [[0.1, 0.2], [0.6, 0.3], [0.4, 0.8]]
    records = []
    for weights in ([2.0, 4.0, 3.0], [1.0, 2.0, 1.5]):
        path = tmp_path / "sites.json"
        path.write_text(json.dumps({"positions": positions, "weights": weights}))
        assert run_cli(["voronoi-count", "--sites-json", str(path), "-k", "2",
                        "--samples", "2000", "--seed", "4"]) == 0
        records.append(json.loads(capsys.readouterr().out.strip().splitlines()[-1]))
    assert records[0] == records[1] and records[0]["W"] == 4.5


@pytest.mark.parametrize("positions, space", [
    ([[1.5], [0.3]], ["--d", "1", "--p-norm", "1"]),
    ([[0.2, 0.2], [1.3, 0.2]], ["--p-norm", "inf"]),
    ([[0.1, 0.5], [1.9, 0.5]], []),
    ([[0.1, 0.5], [-0.2, 0.5]], [])],
    ids=["p1", "max", "p2", "negative"])
def test_voronoi_count_rejects_sites_outside_the_unit_cube(tmp_path, positions,
                                                           space):
    # such a site file was counted from scores that wrap no difference
    # beyond 1; the closed cube's border is legal
    path = tmp_path / "sites.json"
    path.write_text(json.dumps({"positions": positions, "weights": [1.0, 1.0]}))
    args = ["voronoi-count", "--sites-json", str(path), "-k", "1",
            "--samples", "100", "--seed", "1"] + space
    with pytest.raises(SystemExit, match=r"^error: site positions must be "
                       r"finite and lie in \[0, 1\]$"):
        run_cli(args)
    positions = [[min(max(x, 0.0), 1.0) for x in site] for site in positions]
    path.write_text(json.dumps({"positions": positions, "weights": [1.0, 1.0]}))
    assert run_cli(args) == 0


def test_experiment_subcommand_with_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "MOMENT_CHECK", "n_values": [100],
                               "beta": 3.0}))
    out = tmp_path / "records.jsonl"
    run_cli(["experiment", "--config", str(cfg), "-o", str(out)])
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["kind"] == "MOMENT_CHECK"
    # flags override the file
    run_cli(["experiment", "--config", str(cfg), "--n-values", "50,60",
             "-o", str(out)])
    assert len(out.read_text().splitlines()) == 2


def test_experiment_rejects_bad_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "MOMENT_CHECK", "n_values": [100],
                               "beta": 1.5}))
    with pytest.raises(SystemExit, match="beta must be > 2"):
        run_cli(["experiment", "--config", str(cfg)])


def test_moments_subcommand(capsys):
    run_cli(["moments", "--beta", "3.0", "--n-values", "100,1000"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["measured"]["total"] > 0


_MOMENTS = ["experiment", "--kind", "MOMENT_CHECK", "--n-values", "20",
            "--beta", "3.0"]


def _experiment_records(argv, capsys):
    capsys.readouterr()
    run_cli(argv)
    return [ReportRecord.from_json_line(line)
            for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("flag, value, field, expected", [
    ("-k", "2", "k", 2),
    ("--width", "3", "k", 3),
    ("--beta", "3.5", "beta", 3.5),
    ("--d", "3", "d", 3),
    ("--p-norm", "inf", "p_norm", "inf"),
    ("-T", "0.5", "temperature", 0.5),
    ("--temperature", "0.25", "temperature", 0.25),
    ("--delta", "2.5", "delta", 2.5),
    ("-m", "7", "m", 7),
    ("--clauses", "8", "m", 8),
    ("--samples", "100", "samples", 100),
    ("--sample-factor", "3", "sample_factor", 3),
    ("--audit", "5", "audit", 5),
    ("--weights", "powerlaw", "weights", "powerlaw"),
    ("--seeds", "4,2", "seeds", [4, 2]),
    ("--n-values", "30,20", "n_values", [30, 20]),
])
def test_experiment_flag_sets_its_config_field(flag, value, field, expected,
                                               capsys):
    records = _experiment_records(_MOMENTS + [flag, value], capsys)
    assert records and all(r.params[field] == expected for r in records)


def test_experiment_echoes_only_the_given_fields(capsys):
    # the model defaults of generate and core (d=2, p_norm=2, T=0) must not
    # reach experiment records
    (rec,) = _experiment_records(_MOMENTS, capsys)
    assert set(rec.params) == {"kind", "n_values", "beta",
                               "seeds", "weights"}  # dataclass defaults
    (rec,) = _experiment_records(
        ["experiment", "--kind", "REGION_SCALING", "--n-values", "10",
         "-k", "2", "--d", "2", "--p-norm", "2", "--samples", "50"], capsys)
    assert "temperature" not in rec.params
    assert set(rec.params) == {"kind", "n_values", "k", "d", "p_norm",
                               "samples", "seeds", "weights"}


def test_moments_is_the_moment_check_experiment(capsys):
    preset = _experiment_records(["moments", "--beta", "2.5",
                                  "--n-values", "100,20"], capsys)
    full = _experiment_records(["experiment", "--kind", "MOMENT_CHECK",
                                "--beta", "2.5", "--n-values", "100,20"],
                               capsys)
    assert len(preset) == 2
    assert [r.canonical() for r in preset] == [r.canonical() for r in full]
