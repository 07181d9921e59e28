import io
import json
import math

import numpy as np
import pytest

from geoksat import weights as weights_mod
from geoksat.experiments import (ExperimentConfig, ReportRecord,
                                 balls_into_bins, nice_fraction_audit,
                                 rerun_record, run_experiment, write_records)
from geoksat.generate import draw_geometric_clause_vars
from geoksat.geometry import INFINITY, GeometrySpec
from geoksat.voronoi import knearest, random_sites


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="NOPE", n_values=(10,))
    with pytest.raises(ValueError):
        ExperimentConfig(kind="MOMENT_CHECK", n_values=(10,), beta=2.0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="REGION_SCALING", n_values=(10,), k=11,
                         d=2, p_norm=2)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="NICE_FRACTION", n_values=(10,), k=2, d=2,
                         p_norm=2, temperature=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="REGION_SCALING", n_values=(10,), k=2, d=2,
                         p_norm=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="REGION_SCALING", n_values=(), k=2, d=2, p_norm=2)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="REGION_SCALING", n_values=(10,), k=2, d=2,
                         p_norm=2, weights="powerlaw")


@pytest.mark.parametrize("n", (1, 2))
def test_balls_bins_rejects_n_without_a_threshold(n):
    # the threshold log n / (2 log log n) is undefined at n = 1, 0 at n = 2
    with pytest.raises(ValueError, match="n >= 3"):
        ExperimentConfig(kind="BALLS_BINS", n_values=(10, n))


def test_config_json_round_trip():
    cfg = ExperimentConfig(kind="REGION_SCALING", n_values=(10, 20), seeds=(1,),
                           k=2, d=2, p_norm=INFINITY)
    data = cfg.to_jsonable()
    assert data["p_norm"] == "inf"
    back = ExperimentConfig.from_dict(json.loads(json.dumps(data)))
    assert back.p_norm == INFINITY
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"kind": "MOMENT_CHECK", "n_values": [5],
                                    "beta": 3.0, "bogus": 1})


@pytest.mark.parametrize("kind", ["REGION_SCALING", "NICE_FRACTION",
                                  "CORE_DETECTION"])
def test_beta_with_uniform_weights_is_rejected(kind):
    # the three kinds draw uniform sites then, so beta was echoed and ignored
    config = dict(kind=kind, n_values=(20,), k=2, d=2, p_norm=2,
                  temperature=0.5, beta=2.5)
    with pytest.raises(ValueError, match=f"{kind} reads beta only with "
                       "powerlaw weights"):
        ExperimentConfig(**config)
    assert ExperimentConfig(**config, weights="powerlaw").beta == 2.5
    assert ExperimentConfig(**{**config, "beta": None}).beta is None


def test_config_with_a_region_count_method_is_rejected():
    # counting ranks through knearest alone; a record echoing the former
    # "method" option does not re-run silently
    data = {"kind": "REGION_SCALING", "n_values": [10], "k": 2, "d": 2,
            "p_norm": 2, "method": "auto"}
    with pytest.raises(ValueError, match=r"unknown config keys: \['method'\]"):
        ExperimentConfig.from_dict(data)


def test_balls_into_bins_basics():
    assert balls_into_bins(1, np.array([0.5, 0.5]), 0) == 1
    assert balls_into_bins(37, np.array([1.0]), 0) == 37
    with pytest.raises(ValueError):
        balls_into_bins(10, np.array([0.5, 0.4]), 0)
    with pytest.raises(ValueError):
        balls_into_bins(10, np.array([1.5, -0.5]), 0)
    with pytest.raises(ValueError):
        balls_into_bins(0, np.array([1.0]), 0)


def test_balls_into_bins_deterministic():
    p = np.full(100, 0.01)
    assert balls_into_bins(1000, p, 7) == balls_into_bins(1000, p, 7)


def _collect(cfg):
    return list(run_experiment(cfg))


def test_moment_check_records():
    cfg = ExperimentConfig(kind="MOMENT_CHECK", n_values=(1000, 100), beta=3.0)
    recs = _collect(cfg)
    assert [r.n for r in recs] == [100, 1000]  # sorted ladder
    for r in recs:
        assert r.measured["total"] < r.measured["total_asymptotic"]
        assert "sm_times_n_over_log" in r.measured


def test_region_scaling_record_and_rerun():
    cfg = ExperimentConfig(kind="REGION_SCALING", n_values=(30,), seeds=(2,),
                           k=2, d=2, p_norm=2, sample_factor=50)
    rec = _collect(cfg)[0]
    assert rec.measured["samples"] == 1500
    assert rec.measured["count"] >= 1
    again = rerun_record(rec)
    assert again == rec.measured


def test_nice_fraction_threshold_control():
    cfg = ExperimentConfig(kind="NICE_FRACTION", n_values=(50,), seeds=(0,),
                           k=2, d=2, p_norm=2, temperature=0.0, delta=2.0)
    rec = _collect(cfg)[0]
    assert rec.measured["fraction"] == 1.0
    assert rec.measured["m"] == 100
    assert not rec.measured["temperature_above_theory"]


def test_nice_fraction_flags_high_temperature():
    cfg = ExperimentConfig(kind="NICE_FRACTION", n_values=(30,), seeds=(0,),
                           k=2, d=2, p_norm=2, temperature=1.25, delta=1.0)
    rec = _collect(cfg)[0]
    assert rec.measured["temperature_above_theory"]


def test_core_detection_record():
    cfg = ExperimentConfig(kind="CORE_DETECTION", n_values=(60,), seeds=(3,),
                           k=2, d=2, p_norm=2)
    rec = _collect(cfg)[0]
    assert rec.measured["m"] == 4 * 2 * 2 * 58 + 1
    assert rec.measured["detected"] is True
    again = rerun_record(rec)
    cleaned = {k: v for k, v in again.items() if not k.endswith("_seconds")}
    expect = {k: v for k, v in rec.measured.items() if not k.endswith("_seconds")}
    assert cleaned == expect


def test_expansion_probe_record():
    cfg = ExperimentConfig(kind="EXPANSION_PROBE", n_values=(25,), seeds=(1,),
                           k=3, beta=2.2, delta=1.0, r=3, c=1.0, trials=500)
    rec = _collect(cfg)[0]
    assert "sampled_witness" in rec.measured
    assert "exact_pass" in rec.measured
    if rec.measured["sampled_witness"]:
        assert not rec.measured["exact_pass"]
    # C(400, 1) + C(400, 2) + C(400, 3) subsets exceed the enumeration cap
    over = ExperimentConfig(kind="EXPANSION_PROBE", n_values=(400,), seeds=(1,),
                            k=3, beta=2.2, delta=1.0, r=3, c=1.0, trials=50)
    assert "exact_pass" not in _collect(over)[0].measured


def test_balls_bins_record():
    cfg = ExperimentConfig(kind="BALLS_BINS", n_values=(1000,), seeds=(0, 1))
    recs = _collect(cfg)
    assert len(recs) == 2
    thr = math.ceil(math.log(1000) / (2 * math.log(math.log(1000))))
    assert recs[0].measured["omega_threshold"] == thr


def test_records_canonical_form_reproducible():
    cfg = ExperimentConfig(kind="CORE_DETECTION", n_values=(40,), seeds=(0,),
                           k=2, d=2, p_norm=2)
    a = [r.canonical() for r in run_experiment(cfg)]
    b = [r.canonical() for r in run_experiment(cfg)]
    assert a == b
    # wall time is reported but excluded from the canonical form
    assert "wall_time_s" not in a[0]


def test_write_records_json_lines(tmp_path):
    cfg = ExperimentConfig(kind="MOMENT_CHECK", n_values=(50,), beta=2.5)
    path = tmp_path / "out.jsonl"
    count = write_records(run_experiment(cfg), path)
    assert count == 1
    lines = path.read_text().splitlines()
    rec = ReportRecord.from_json_line(lines[0])
    assert rec.kind == "MOMENT_CHECK" and rec.n == 50
    assert rec.params["beta"] == 2.5


def test_records_stream_to_filelike():
    cfg = ExperimentConfig(kind="MOMENT_CHECK", n_values=(10, 20), beta=2.5)
    buf = io.StringIO()
    assert write_records(run_experiment(cfg), buf) == 2
    assert len(buf.getvalue().splitlines()) == 2


def test_nice_fraction_draws_every_point_before_the_race():
    # the stream holds all clause points, then the race's exponentials, so
    # the record does not depend on the race's clause block
    g = GeometrySpec(d=2, p_norm=2)
    sites = random_sites(300, g, 3, weights_mod.power_law_weights(300, 2.5))
    rng = np.random.default_rng(9)
    pts = rng.random((1100, 2))
    drawn = draw_geometric_clause_vars(pts, sites, 3, 0.5, g, rng)
    nice = np.all(drawn == knearest(pts, sites, 3, g), axis=1).sum()
    assert 0 < nice < 1100
    assert nice_fraction_audit(sites, g, 3, 0.5, 1100, 9) == nice


_NON_FINITE = {"temperature": "temperature must be >= 0 and finite",
               "delta": "delta must be > 0 and finite",
               "beta": "beta must be > 2", "c": "c must be finite",
               "m": "give m or delta, not both"}


@pytest.mark.parametrize("field, value", [
    pytest.param("temperature", math.nan, id="nan"),
    pytest.param("temperature", math.inf, id="inf"),
    pytest.param("temperature", -1.0, id="-1.0"),
    # unchecked, an infinite beta or c is written as "inf", which
    # rerun_record reads back as a string, and a nan c passes every
    # expansion check
    pytest.param("delta", math.inf, id="delta-inf"),
    pytest.param("beta", math.inf, id="beta-inf"),
    pytest.param("c", math.nan, id="c-nan"),
    pytest.param("c", -math.inf, id="c-minus-inf"),
    # beside the config's delta: unchecked, m was sampled and delta echoed
    pytest.param("m", 7, id="m-with-delta")])
def test_temperature_must_be_finite_and_non_negative(field, value):
    config = dict(kind="NICE_FRACTION", n_values=(50,), k=3, d=2, p_norm=2,
                  temperature=0.5, delta=1.0)
    with pytest.raises(ValueError, match=_NON_FINITE[field]):
        ExperimentConfig(**{**config, field: value})
    if field == "temperature":
        sites = random_sites(50, GeometrySpec(d=2, p_norm=2), 1)
        with pytest.raises(ValueError, match=_NON_FINITE[field]):
            nice_fraction_audit(sites, GeometrySpec(d=2, p_norm=2), 3, value,
                                20, 0)
