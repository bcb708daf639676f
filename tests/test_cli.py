import json
import math
import os
import pathlib
import re

import numpy as np
import pytest

from bmx.cli import (_DOMAINS, _MAPS, Scenario, main, parse_call,
                     parse_config, parse_domain, parse_map, parse_region, run,
                     run_scenario)
from bmx.errors import ConfigError
from bmx.geometry import (Annulus, BoundaryLabel, HalfPlane,
                          HalfStripComplement, Rectangle, SpiralPair, Strip,
                          Wedge)
from bmx.maps import Linear
from bmx.rng import RngStream
from bmx.sim import WosConfig
from bmx.stats import estimate_hardy_number, exit_proportion, run_exits

BASIC = """
[scenario.square]
experiment = harmonic_measure
domain = rectangle(1, 1)
start = 0
region = s1
n = 2000
kernel = wos
seed = 42
expect_prob = 0.25
expect_sigmas = 4
"""


def write(tmp_path, text, name="c.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def strip_wall_time(report):
    return {k: v for k, v in report.items() if k != "wall_time_s"}


def test_parse_call_nested():
    assert parse_call("Comb(1, [1, 2.5], [-5], V)") == (
        "comb", [1, [1, 2.5], [-5], "V"])
    assert parse_call("LINEAR(-1+1j)") == ("linear", [-1 + 1j])
    assert parse_call("strip(-1, 1e-3)") == ("strip", [-1, 0.001])
    # A word may carry a sign, so -inf is spelled the way inf is.
    assert parse_call("strip(-inf, +inf)") == ("strip", ["-inf", "+inf"])
    # A bare name is a call with no arguments.
    assert parse_call("koebeslit") == ("koebeslit", [])
    for bad in ("rectangle(a=2, b=1)", "os.system(1)", "rectangle('2', 1)",
                "strip(--inf, 1)"):
        with pytest.raises(ConfigError, match=re.escape(repr(bad))):
            parse_call(bad)
    # A call is not an argument: no spec nests calls.
    with pytest.raises(ConfigError, match=re.escape(
            "bad argument 'linear(2)' in 'linear(linear(2))'")):
        parse_call("linear(linear(2))")


def test_parse_domain_variants():
    assert parse_domain("rectangle(2, 1)") == Rectangle(2, 1)
    assert parse_domain("annulus(1, 7.389056098930650)") == Annulus(
        1, 7.389056098930650)
    assert parse_domain("wedge(1.5707963267948966)") == Wedge(
        1.5707963267948966)
    comb = parse_domain("comb(1, [1, 2], [-5], V)")
    assert comb.side == "V"
    assert parse_domain("comb(1, [1, 3], [-2], w)").side == "W"
    with pytest.raises(ConfigError, match="'X'"):
        parse_domain("comb(1, [1, 3], [-2], X)")
    # A fractional iteration count is an error, not a silent V_1.
    with pytest.raises(ConfigError, match="1.9"):
        parse_domain("comb(1.9, [1, 40], [-50], V)")
    with pytest.raises(ConfigError):
        parse_domain("pentagon(1)")
    with pytest.raises(ConfigError):
        parse_domain("rectangle(1)")


@pytest.mark.parametrize("header, table", [("domain", _DOMAINS),
                                           ("map", _MAPS)])
def test_readme_tables_list_every_spec(header, table):
    # A spec deleted from the CLI cannot stay documented, nor a new one go
    # undocumented.
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    rows = re.search(rf"^\| {header} \| optional \|.*\n\| --- .*\n"
                     rf"((?:\|.*\n)*)", readme, re.M).group(1)
    names = re.findall(r"^\| `(\w+)", rows, re.M)
    assert sorted(names) == sorted(table)


def test_parse_map_variants():
    assert parse_map("linear(3)") == Linear(3)
    assert parse_map("Linear(-2j)") == Linear(-2j)
    for name in ("spiral", "exp", "compose"):
        with pytest.raises(ConfigError, match=f"unknown map '{name}'"):
            parse_map(f"{name}(1)")
    # A zero coefficient makes a constant map, which is not conformal, and
    # an infinite one sends every exit off the plane.
    with pytest.raises(ConfigError, match="'linear'.*nonzero"):
        parse_map("linear(0)")
    with pytest.raises(ConfigError, match="'linear'.*finite.*-inf"):
        parse_map("linear(-inf)")


def test_spaced_digits_are_errors(tmp_path):
    # Spaces do not join digits: "1 2" is an error, not 12.
    with pytest.raises(ConfigError, match=re.escape("'linear(1 2)'")):
        parse_map("linear(1 2)")
    with pytest.raises(ConfigError, match=re.escape("'disk(1 2, 3)'")):
        parse_domain("disk(1 2, 3)")
    rep = run(write(tmp_path, BASIC.replace("start = 0", "start = 1 2")))[0]
    assert rep["error"] == "ConfigError: bad value '1 2' for 'start'"


@pytest.mark.parametrize("parse, spec, required, optional, got", [
    (parse_domain, "wedge(1.5707963267948966, 3)", 1, 0, 2),
    (parse_domain, "koebeslit(5)", 0, 0, 1),
    (parse_map, "linear(1, 2)", 1, 0, 2),
    (parse_domain, "rectangle(2, 1, 5)", 2, 0, 3),
    (parse_domain, "halfstripcomplement(1, 0, 2)", 1, 1, 3),
    (parse_domain, "disk()", 2, 0, 0),
], ids=["wedge", "koebeslit", "linear", "rectangle", "halfstripcomplement",
        "disk"])
def test_argument_count_is_checked(parse, spec, required, optional, got):
    name = spec.split("(")[0]
    with pytest.raises(ConfigError, match=re.escape(
            f"spec '{name}': takes {required} required and {optional} "
            f"optional argument(s), got {got}")):
        parse(spec)


def test_optional_arguments_take_defaults():
    assert parse_domain("halfplane") == HalfPlane("north")
    assert parse_domain("spiralpair()") == SpiralPair("U")
    assert parse_domain("halfstripcomplement(1)") == HalfStripComplement(1, 0)


@pytest.mark.parametrize("spec, message", [
    ("rectangle(-1, 1)", "bad domain spec 'rectangle': rectangle half-sides "
                         "must be positive"),
    ("halfplane(up)", "bad domain spec 'halfplane': unknown half-plane "
                      "direction 'up'"),
    # A signed word reaches the domain's own check, as inf does.
    ("strip(-inf, 1)", "bad domain spec 'strip': Strip.lo must be finite, "
                       "got -inf"),
    ("halfstripcomplement(1, -inf)", "bad domain spec 'halfstripcomplement': "
     "HalfStripComplement.x0 must be finite, got -inf"),
], ids=["rectangle", "halfplane", "strip_minus_inf", "halfstrip_minus_inf"])
def test_bad_domain_parameters_name_the_spec(spec, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_domain(spec)


def test_rejected_inputs_recorded_not_fatal(tmp_path, capsys):
    cfg = """
[scenario.extra_argument]
experiment = moment
domain = wedge(1.5707963267948966, 3)
start = 1
p = 0.5

[scenario.typo_verdict]
experiment = moment
domain = wedge(1.5707963267948966)
start = 1
p = 0.5
expect_verdict = finit

[scenario.moment_verdict_for_hardy]
experiment = hardy
domain = wedge(1.5707963267948966)
a = 1
r_schedule = 4 8
expect_classification = inconclusive

[scenario.short_growth]
experiment = comb_sequence
a = 1 40 41 100 101 900
b = -50 5 -51 6 -52
iterations = 1 3 5
growth = 1.6
""" + BASIC
    path = write(tmp_path, cfg)
    reports = run(path)
    assert [r.get("error") for r in reports] == [
        "ConfigError: bad value for 'domain': bad domain spec 'wedge': takes "
        "1 required and 0 optional argument(s), got 2",
        "ConfigError: bad value 'finit' for 'expect_verdict'",
        "ConfigError: bad value 'inconclusive' for 'expect_classification'",
        "BadParameters: growth schedule has 1 floors for 3 domains",
        None]
    assert not any(r["passed"] for r in reports[:-1])
    assert reports[-1]["passed"]
    assert main(["run", path]) == 1
    assert "[square] probability: pass" in capsys.readouterr().out


def test_parse_region_forms():
    assert parse_region("annulus_inner") == BoundaryLabel.ANNULUS_INNER
    f = parse_region("re>0.5")
    z = np.array([1 + 0j, 0j])
    assert list(f(z, None)) == [True, False]
    g = parse_region("abs<2")
    assert list(g(z, None)) == [True, True]
    with pytest.raises(ConfigError):
        parse_region("left-side")
    with pytest.raises(ConfigError, match="'1e'"):
        parse_region("re>1e")
    with pytest.raises(ConfigError):
        parse_region("line")


def test_unknown_keys_and_sections_error(tmp_path):
    bad = BASIC + "typo_key = 3\n"
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, bad))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[stuff]\nx = 1\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, BASIC.replace(
            "harmonic_measure", "teleport")))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, BASIC.replace("domain = rectangle(1, 1)\n",
                                                   "")))


def test_defaults_materialized_and_round_trip(tmp_path):
    scenarios = parse_config(write(tmp_path, BASIC))
    assert len(scenarios) == 1
    sc = scenarios[0]
    assert dict(sc.params)["expect_sigmas"] == "4"
    echo = run_scenario(sc)["scenario"]
    echoed = Scenario(name=echo["name"], experiment=echo["experiment"],
                      params=tuple(sorted(echo["params"].items())),
                      seed=echo["seed"], workers=echo["workers"],
                      out=echo["out"])
    assert echoed == sc


def test_reports_reproducible_and_worker_independent(tmp_path):
    path = write(tmp_path, BASIC)
    r1 = run(path)[0]
    r2 = run(path)[0]
    assert strip_wall_time(r1) == strip_wall_time(r2)
    r4 = run(path, workers=2)[0]
    assert r4["scenario"]["workers"] == 2
    r1c = strip_wall_time(r1)
    r4c = strip_wall_time(r4)
    r1c["scenario"] = {k: v for k, v in r1c["scenario"].items()
                       if k != "workers"}
    r4c["scenario"] = {k: v for k, v in r4c["scenario"].items()
                       if k != "workers"}
    assert r1c == r4c


def test_seed_precedence(tmp_path, monkeypatch):
    path = write(tmp_path, BASIC)
    assert parse_config(path)[0].seed == 42
    monkeypatch.setenv("BMX_SEED", "7")
    assert parse_config(path)[0].seed == 7
    assert parse_config(path, {"seed": "9"})[0].seed == 9
    monkeypatch.delenv("BMX_SEED")


def test_seed_out_of_range_is_config_error(tmp_path, monkeypatch, capsys):
    # A seed an RngStream rejects fails at parse time, like any bad value,
    # before any scenario runs, whichever layer set it.
    cauchy = """
[scenario.c{k}]
experiment = cauchy
gamma = 2j
alpha_mobius = 1j
alpha_power = 0.5
lambda = 1.0
n = 1000
seed = {seed}
"""
    path = write(tmp_path, cauchy.format(k=1, seed=-1)
                 + cauchy.format(k=2, seed=7))
    with pytest.raises(ConfigError, match="bad value '-1' for 'seed'"):
        parse_config(path)
    assert main(["run", path]) == 1
    assert "bad value '-1' for 'seed'" in capsys.readouterr().err

    good = write(tmp_path, BASIC, "good.cfg")
    with pytest.raises(ConfigError, match=f"'{2**64}'"):
        parse_config(good, {"seed": str(2**64)})
    assert parse_config(good, {"seed": str(2**64 - 1)})[0].seed == 2**64 - 1
    monkeypatch.setenv("BMX_SEED", "-3")
    with pytest.raises(ConfigError, match="bad value '-3' for 'seed'"):
        parse_config(good)


def test_workers_key_below_one_is_config_error(tmp_path):
    # workers = -3 ran serially and echoed -3 in every report.
    path = write(tmp_path, BASIC + "workers = -3\n")
    with pytest.raises(ConfigError, match="bad value '-3' for 'workers'"):
        parse_config(path)


def test_workers_override_below_one_is_config_error(tmp_path, capsys):
    path = write(tmp_path, BASIC)
    with pytest.raises(ConfigError, match="bad value '0' for 'workers'"):
        parse_config(path, {"workers": "0"})
    assert main(["run", path, "--set", "workers=0"]) == 1
    assert "bad value '0' for 'workers'" in capsys.readouterr().err


def test_workers_argument_below_one_is_config_error(tmp_path, capsys):
    # The --workers flag overrides every scenario's key, so it is checked
    # before any scenario runs.
    path = write(tmp_path, BASIC)
    with pytest.raises(ConfigError, match="bad value 0 for 'workers'"):
        run(path, workers=0)
    assert main(["run", path, "--workers", "-1"]) == 1
    assert "bad value -1 for 'workers'" in capsys.readouterr().err


def test_override_changes_echo(tmp_path):
    path = write(tmp_path, BASIC)
    sc = parse_config(path, {"n": "4000"})[0]
    assert dict(sc.params)["n"] == "4000"


def test_cli_exit_codes_and_outputs(tmp_path, capsys):
    path = write(tmp_path, BASIC)
    out = str(tmp_path / "reports")
    code = main(["run", path, "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "probability: pass" in text
    with open(os.path.join(out, "square.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    assert rep["schema"] == 1
    assert rep["passed"] is True

    bad = BASIC.replace("expect_prob = 0.25", "expect_prob = 0.9")
    code = main(["run", write(tmp_path, bad, "bad.cfg")])
    assert code == 2

    code = main(["run", str(tmp_path / "missing.cfg")])
    assert code == 1

    code = main(["run", path, "--set", "oops"])
    assert code == 1


def test_override_applies_where_accepted(tmp_path, capsys):
    # A hardy scenario takes no 'n', so --set n resizes only the others.
    cfg = BASIC + """
[scenario.graph]
experiment = hardy
domain = wedge(1.5707963267948966)
a = 1
r_schedule = 4 8
"""
    path = write(tmp_path, cfg)
    square, graph = parse_config(path, {"n": "4000", "seed": "9"})
    assert dict(square.params)["n"] == "4000"
    assert "n" not in dict(graph.params)
    assert square.seed == graph.seed == 9
    with pytest.raises(ConfigError, match=r"\['nn'\]"):
        parse_config(path, {"n": "4000", "nn": "4000"})
    assert main(["run", path, "--set", "nn=4000"]) == 1
    assert "['nn']" in capsys.readouterr().err


def test_cli_set_override(tmp_path, capsys):
    path = write(tmp_path, BASIC)
    code = main(["run", path, "--set", "seed=4242"])
    assert code == 0
    # Same override twice gives identical output lines.
    first = capsys.readouterr().out
    main(["run", path, "--set", "seed=4242"])
    second = capsys.readouterr().out
    assert first == second


def test_raw_csv_rows(tmp_path):
    path = write(tmp_path, BASIC)
    out = str(tmp_path / "reports")
    reports = run(path, out_dir=out, write_raw=True)
    assert reports[0]["passed"]
    csv_path = os.path.join(out, "square.csv")
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.split(",") == ["scenario", "path_id", "exit_re", "exit_im",
                                 "exit_time", "label", "steps", "status"]
    assert len(rows) == 2000
    assert all(r.split(",")[-1] in ("ok", "max_steps") for r in rows)


PUSHFORWARD = """
[scenario.push]
experiment = pushforward_check
domain = rectangle(2, 1)
start = 0
map = linear(3)
image = rectangle(6, 3)
n = 5000
seed = 0
"""


def test_pushforward_runs_walk_on_spheres(tmp_path):
    # Walk-on-spheres exits carry no exit time and take about 20 jumps
    # each; Euler-Maruyama took about 260 steps per path here.
    path = write(tmp_path, PUSHFORWARD)
    reports = {}
    for workers in (1, 2):
        out = str(tmp_path / f"w{workers}")
        reports[workers] = strip_wall_time(
            run(path, out_dir=out, write_raw=True, workers=workers)[0])
        reports[workers]["scenario"].pop("workers")
        with open(os.path.join(out, "push.csv"), encoding="utf-8") as fh:
            rows = [r.split(",") for r in fh.read().strip().splitlines()[1:]]
        assert len(rows) == 5000
        assert all(r[4] == "" and r[7] == "ok" for r in rows)
        assert np.mean([int(r[6]) for r in rows]) < 50
    assert reports[1] == reports[2]
    assert reports[1]["passed"]
    assert reports[1]["results"] == {"n_ok": 5000, "excluded": 0,
                                     "labels_identical": True}


def test_scenario_errors_recorded_not_fatal(tmp_path):
    cfg = BASIC + """
[scenario.broken]
experiment = harmonic_measure
domain = rectangle(1, 1)
start = 5
region = s1
n = 1000
seed = 1
"""
    reports = run(write(tmp_path, cfg))
    assert len(reports) == 2
    assert reports[0]["passed"]
    assert not reports[1]["passed"]
    assert "PointOutsideDomain" in reports[1]["error"]


def test_bad_map_and_region_recorded_not_fatal(tmp_path):
    cfg = """
[scenario.bad_map]
experiment = pushforward_check
domain = rectangle(1, 1)
start = 0
map = linear(linear(1))
image = rectangle(1, 1)
n = 100

[scenario.bad_region]
experiment = harmonic_measure
domain = rectangle(1, 1)
start = 0
region = re>1e
n = 100
""" + BASIC
    reports = run(write(tmp_path, cfg))
    assert [r["scenario"]["name"] for r in reports] == [
        "bad_map", "bad_region", "square"]
    assert not reports[0]["passed"]
    assert reports[0]["error"].startswith("ConfigError")
    assert not reports[1]["passed"]
    assert reports[1]["error"].startswith("ConfigError")
    assert "'linear(1)'" in reports[0]["error"]
    assert "'1e'" in reports[1]["error"]
    assert reports[2]["passed"]


def test_bad_scenario_value_recorded_not_fatal(tmp_path):
    cfg = """
[scenario.bad_n]
experiment = harmonic_measure
domain = rectangle(1, 1)
start = 0
region = s1
n = lots

[scenario.bad_kernel]
experiment = harmonic_measure
domain = rectangle(1, 1)
start = 0
region = s1
n = 1000
kernel = foo

[scenario.cauchy]
experiment = cauchy
gamma = 2j
alpha_mobius = 1j
alpha_power = 0.5
lambda = 1.0
n = 20000
seed = 7
"""
    reports = run(write(tmp_path, cfg))
    assert [r["scenario"]["name"] for r in reports] == [
        "bad_n", "bad_kernel", "cauchy"]
    assert not reports[0]["passed"]
    assert reports[0]["error"] == "ConfigError: bad value 'lots' for 'n'"
    assert not reports[1]["passed"]
    assert reports[1]["error"] == "ConfigError: bad value 'foo' for 'kernel'"
    assert reports[2]["passed"]


@pytest.mark.parametrize("kernel,key,value,error", [
    ("em", "c", "nan", "BadParameters: EmConfig.c must be finite and "
     "positive, got nan"),
    ("em", "max_steps", "0", "BadParameters: EmConfig.max_steps must be at "
     "least 1, got 0"),
    ("wos", "max_steps", "0", "BadParameters: WosConfig.max_steps must be "
     "at least 1, got 0"),
])
def test_degenerate_kernel_config_recorded_not_fatal(tmp_path, kernel, key,
                                                      value, error):
    cfg = f"""
[scenario.degenerate]
experiment = moment
domain = wedge(1.5707963267948966)
start = 1
p = 0.5
n = 5
kernel = {kernel}
{key} = {value}
""" + BASIC
    reports = run(write(tmp_path, cfg))
    assert [r["scenario"]["name"] for r in reports] == ["degenerate", "square"]
    assert not reports[0]["passed"]
    assert reports[0]["error"] == error
    assert reports[1]["passed"]


def test_degenerate_graph_config_recorded_not_fatal(tmp_path):
    # Checked when the config is built, before any cell is split.
    cfg = """
[scenario.degenerate]
experiment = hardy
domain = wedge(1.5707963267948966)
a = 1
r_schedule = 10 100
cell_factor = 0
""" + BASIC
    reports = run(write(tmp_path, cfg))
    assert [r["scenario"]["name"] for r in reports] == ["degenerate", "square"]
    assert not reports[0]["passed"]
    assert reports[0]["error"] == ("BadParameters: QhConfig.cell_factor must "
                                   "be finite and positive, got 0.0")
    assert reports[1]["passed"]


@pytest.mark.parametrize("key, value, error", [
    ("min_cell", "nan", "QhConfig.min_cell must be None or finite and "
     "positive, got nan"),
    ("min_cell", "-1", "QhConfig.min_cell must be None or finite and "
     "positive, got -1.0"),
    ("rel_floor", "nan", "QhConfig.rel_floor must be finite and "
     "non-negative, got nan"),
])
def test_degenerate_graph_floor_recorded_not_fatal(tmp_path, key, value,
                                                   error):
    # A NaN floor was reported as a max_nodes overrun, and a negative
    # min_cell ran silently.
    cfg = f"""
[scenario.degenerate]
experiment = hardy
domain = wedge(1.5707963267948966)
a = 1
r_schedule = 10 100
{key} = {value}
""" + BASIC
    reports = run(write(tmp_path, cfg))
    assert [r["scenario"]["name"] for r in reports] == ["degenerate", "square"]
    assert not reports[0]["passed"]
    assert reports[0]["error"] == f"BadParameters: {error}"
    assert reports[1]["passed"]


def test_infinite_hardy_radius_recorded_not_fatal(tmp_path):
    # An infinite radius warned of inf * 0 in the graph's leaves and then
    # blamed "no interior cells found".
    cfg = """
[scenario.infinite_radius]
experiment = hardy
domain = wedge(1.5707963267948966)
a = 1
r_schedule = 10 inf
""" + BASIC
    reports = run(write(tmp_path, cfg))
    assert [r["scenario"]["name"] for r in reports] == ["infinite_radius",
                                                        "square"]
    assert reports[0]["error"] == ("BadParameters: circle target radius must "
                                   "be finite and positive, got inf")
    assert not reports[0]["passed"]
    assert reports[1]["passed"]


@pytest.mark.filterwarnings("error")
def test_unreachable_hardy_radii_recorded_not_fatal(tmp_path):
    # No circle about 0.2 of radius 2 or 5 meets the unit disk.  The
    # refinement's stop test compared inf with inf, and under warnings as
    # errors the whole run ended in a traceback.
    cfg = """
[scenario.unreachable]
experiment = hardy
domain = disk(0, 1)
a = 0.2
r_schedule = 2 5
""" + BASIC
    reports = run(write(tmp_path, cfg))
    assert [r["scenario"]["name"] for r in reports] == ["unreachable",
                                                        "square"]
    assert reports[0]["error"] == ("TargetUnreachable: no grid path reached "
                                   "every target")
    assert not reports[0]["passed"]
    assert reports[1]["passed"]


def test_hardy_without_graph_keys_is_the_library_default(tmp_path):
    # The schema once restated the graph defaults as its own text, and the
    # scenario fitted 5.7644 after 3 rounds where the bare call fitted
    # 5.7692 after 4.
    cfg = """
[scenario.strip_hardy]
experiment = hardy
domain = strip(-1, 1)
a = 0
r_schedule = 2 4 8
"""
    res = run(write(tmp_path, cfg))[0]["results"]
    he = estimate_hardy_number(Strip(-1, 1), 0, [2, 4, 8])
    assert res["delta_values"] == list(he.delta_values)
    assert res["slope"] == he.slope
    assert res["slope_bounds"] == list(he.slope_bounds)
    assert res["classification"] == he.classification
    assert res["rounds"] == he.rounds
    assert res["node_budget_hit"] == he.node_budget_hit


def test_thin_wedge_fails_the_probe_and_the_bound(tmp_path, capsys):
    # The leftward-ray probe shifts the run's own exits, so a wedge too thin
    # to sample inside still runs: the probe fails, no path exits right of
    # the line, and the bound fails, not the scenario.
    cfg = """
[scenario.thin_wedge]
experiment = karafyllia
domain = wedge(1e-9)
a = 1
split_re = 2

[scenario.cauchy]
experiment = cauchy
gamma = 2j
alpha_mobius = 1j
alpha_power = 0.5
lambda = 1.0
n = 20000
seed = 7
"""
    path = write(tmp_path, cfg)
    reports = run(path)
    rep = reports[0]
    assert "error" not in rep
    assert rep["results"]["starlike_pass"] is False
    assert rep["results"]["nu"]["value"] == 0
    assert not rep["passed"]
    assert [(e["name"], e["passed"], e["detail"]) for e in rep["expectations"]
            ] == [("doubling_bound", False,
                   "nu = 0: no path exited right of the line")]
    assert reports[1]["passed"]
    assert main(["run", path]) == 2
    assert "[cauchy] identity_mobius: pass" in capsys.readouterr().out


def test_fractional_iterations_recorded_not_fatal(tmp_path):
    cfg = """
[scenario.comb]
experiment = comb_sequence
a = 1 40 41 100
b = -50 5 -51
iterations = 1.5 3.7
n = 1000
""" + BASIC
    reports = run(write(tmp_path, cfg))
    assert not reports[0]["passed"]
    assert reports[0]["error"] == (
        "ConfigError: bad value '1.5 3.7' for 'iterations'")
    assert reports[1]["passed"]


@pytest.mark.parametrize("section, error", [
    ("experiment = harmonic_measure\ndomain = disk(nan, 1)\nstart = 0\n"
     "region = abs<2\nkernel = wos\n",
     "ConfigError: bad value for 'domain': bad domain spec 'disk': "
     "Disk.center must be finite, got (nan+0j)"),
    ("experiment = harmonic_measure\ndomain = disk(0, inf)\nstart = 0\n"
     "region = abs<2\nkernel = em\n",
     "ConfigError: bad value for 'domain': bad domain spec 'disk': "
     "Disk.radius must be finite and positive, got inf"),
    ("experiment = comb_sequence\na = 1 nan\nb = -50\niterations = 1\n",
     "BadParameters: height a[1]=nan must be finite"),
    ("experiment = comb_sequence\na = 1 40 41\nb = -50 inf\n"
     "iterations = 1 2\n",
     "BadParameters: offset b[2]=inf must be finite"),
    ("experiment = harmonic_measure\ndomain = rectangle(inf, inf)\n"
     "start = 0\nregion = s1\nkernel = em\n",
     "ConfigError: bad value for 'domain': bad domain spec 'rectangle': "
     "Rectangle.a must be finite, got inf"),
    ("experiment = harmonic_measure\ndomain = strip(-1, inf)\nstart = 0\n"
     "region = abs<2\nkernel = wos\n",
     "ConfigError: bad value for 'domain': bad domain spec 'strip': "
     "Strip.hi must be finite, got inf"),
    ("experiment = harmonic_measure\ndomain = halfstripcomplement(1, nan)\n"
     "start = 2\nregion = abs<2\nkernel = wos\n",
     "ConfigError: bad value for 'domain': bad domain spec "
     "'halfstripcomplement': HalfStripComplement.x0 must be finite, got nan"),
    ("experiment = harmonic_measure\ndomain = annulus(1, inf)\nstart = 2\n"
     "region = annulus_inner\nkernel = em\n",
     "ConfigError: bad value for 'domain': bad domain spec 'annulus': "
     "Annulus.R must be finite, got inf"),
], ids=["disk_center", "disk_radius", "comb_height", "comb_offset",
        "rectangle_sides", "strip_lines", "halfstrip_x0", "annulus_outer"])
def test_non_finite_domain_parameters_recorded_not_fatal(tmp_path, section,
                                                         error):
    # Before they were rejected, the comb raised IndexError or
    # PointOutsideDomain, the disk and the NaN half-strip blamed the start,
    # and the disk, the infinite strip and the infinite rectangle walked
    # paths to the step cap (Euler-Maruyama marked the latter two's paths
    # ok at NaN); Euler-Maruyama on the infinite annulus divided inf by inf.
    reports = run(write(tmp_path, "[scenario.bad]\n" + section + BASIC))
    assert reports[0]["error"] == error
    assert not reports[0]["passed"]
    assert reports[1]["passed"]


@pytest.mark.parametrize("iterations, error", [
    ("1 3 5", None),
    ("2 3", "NestingViolation: domain 0 not inside domain 1"),
])
def test_comb_nesting_checked_on_the_exits(tmp_path, iterations, error):
    # V_1, V_3 and V_5 are nested; V_2 sticks out of V_3, and the exits of
    # V_3 show it.
    cfg = f"""
[scenario.comb]
experiment = comb_sequence
a = 1 40 41 100 101 900
b = -50 5 -51 6 -52
iterations = {iterations}
n = 2000
seed = 1015
""" + BASIC
    reports = run(write(tmp_path, cfg))
    assert reports[0].get("error") == error
    assert reports[0]["passed"] == (error is None)
    assert reports[1]["passed"]


def test_reports_are_strict_json(tmp_path):
    # nu = 0 makes the ratio infinite: the report in memory keeps the
    # float, the file on disk says null.
    cfg = """
[scenario.doubling]
experiment = karafyllia
domain = strip(-1, 1)
a = -2
split_re = 4
n = 2000
"""
    rep = run(write(tmp_path, cfg), out_dir=str(tmp_path / "out"))[0]
    assert rep["results"]["ratio"]["value"] == math.inf

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = (tmp_path / "out" / "doubling.json").read_text()
    written = json.loads(text, parse_constant=reject)
    assert written["results"]["ratio"]["value"] is None
    assert written["results"]["ratio"]["ci95"] == [None, None]
    assert written["results"]["nu"] == rep["results"]["nu"]


def test_error_reports_are_written(tmp_path):
    # An errored scenario's report reaches the output directory, as
    # strict JSON, beside the passing one's.
    cfg = BASIC + """
[scenario.broken]
experiment = harmonic_measure
domain = rectangle(1, 1)
start = 5
region = s1
n = 1000
seed = 1
"""
    out = tmp_path / "out"
    reports = run(write(tmp_path, cfg), out_dir=str(out))

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    written = {rep["scenario"]["name"]: json.loads(
        (out / f"{rep['scenario']['name']}.json").read_text(),
        parse_constant=reject) for rep in reports}
    assert sorted(written) == ["broken", "square"]
    assert "error" not in written["square"] and written["square"]["passed"]
    assert "PointOutsideDomain" in written["broken"]["error"]
    assert written["broken"] == reports[1]


def test_karafyllia_reports_worker_independent(tmp_path):
    cfg = """
[scenario.doubling]
experiment = karafyllia
domain = strip(-1, 1)
a = -2
split_re = 0
n = 9000
seed = 11
expect_ratio = 2.0
expect_ratio_tol = 0.5
"""
    path = write(tmp_path, cfg)
    r1 = strip_wall_time(run(path)[0])
    r2 = strip_wall_time(run(path, workers=2)[0])
    assert r2["scenario"].pop("workers") == 2
    assert r1["scenario"].pop("workers") == 1
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    res = r1["results"]
    assert res["nu"]["n"] == res["nu_hat"]["n"] == res["ratio"]["n"]
    assert res["nu"]["value"] <= res["nu_hat"]["value"]
    assert r1["passed"]


def test_harmonic_measure_report_matches_estimator(tmp_path):
    rep = run(write(tmp_path, BASIC))[0]
    batch = run_exits(Rectangle(1, 1), 0j, 2000, WosConfig(), RngStream(42))
    est = exit_proportion(BoundaryLabel.S1, batch)
    assert rep["results"]["probability"] == {
        "value": est.value, "stderr": est.stderr, "n": est.n,
        "ci95": list(est.ci95), "wilson95": list(est.wilson95),
        "excluded": est.excluded}


def test_modulus_annulus_scenario(tmp_path):
    cfg = """
[scenario.mod]
experiment = modulus
domain = annulus(1, 7.389056098930650)
start = 2.718281828459045
n = 20000
seed = 3
expect_modulus = 2.0
expect_sigmas = 3
"""
    rep = run(write(tmp_path, cfg))[0]
    assert rep["passed"]
    assert abs(rep["results"]["modulus"]["true"] - 2.0) < 1e-12


def test_modulus_rectangle_runs_from_start(tmp_path):
    # From 1.9, near the right side S1 of (-2, 2) x (-1, 1), most paths exit
    # through S1; from the centre (no start) about 5% do.
    cfg = """
[scenario.centre]
experiment = modulus
domain = rectangle(2, 1)
n = 2000
seed = 1003

[scenario.near_s1]
experiment = modulus
domain = rectangle(2, 1)
start = 1.9
n = 2000
seed = 1003
"""
    centre, near = run(write(tmp_path, cfg))
    assert centre["results"]["side_probs_wos"][0] < 0.1
    for kernel in ("wos", "em"):
        assert near["results"][f"side_probs_{kernel}"][0] > 0.3


def test_image_call_spec_error_names_the_key(tmp_path):
    cfg = """
[scenario.short_image]
experiment = pushforward_check
domain = rectangle(2, 1)
start = 0
map = linear(3)
image = rectangle(3)
n = 100
"""
    rep = run(write(tmp_path, cfg))[0]
    assert rep["error"] == (
        "ConfigError: bad value for 'image': bad domain spec 'rectangle': "
        "takes 2 required and 0 optional argument(s), got 1")


def test_too_few_paths_recorded_not_fatal(tmp_path):
    cfg = """
[scenario.no_paths]
experiment = harmonic_measure
domain = rectangle(1, 1)
start = 0
region = s1
n = 0

[scenario.one_draw]
experiment = cauchy
gamma = 2j
alpha_mobius = 1j
alpha_power = 0.5
lambda = 1.0
n = 1
""" + BASIC
    reports = run(write(tmp_path, cfg))
    assert [r["scenario"]["name"] for r in reports] == [
        "no_paths", "one_draw", "square"]
    assert reports[0]["error"] == (
        "BadParameters: need at least one path, got n = 0")
    assert reports[1]["error"] == (
        "BadParameters: need at least two draws for a stderr, got n = 1")
    assert reports[2]["passed"]


def test_modulus_without_inner_exits_recorded_not_fatal(tmp_path):
    cfg = """
[scenario.mod]
experiment = modulus
domain = annulus(1, 100)
start = 99.9
n = 200
seed = 3
""" + BASIC
    reports = run(write(tmp_path, cfg))
    assert not reports[0]["passed"]
    assert reports[0]["error"].startswith(
        "BadParameters: no path reached the inner circle in 200 paths")
    assert reports[1]["passed"]


def test_karafyllia_without_right_exits_fails(tmp_path):
    # From -2 in the strip no path gets near Re = 4, so nu = 0 and the
    # ratio is infinite: the bound must fail, not hold vacuously.
    cfg = """
[scenario.doubling]
experiment = karafyllia
domain = strip(-1, 1)
a = -2
split_re = 4
n = 2000
""" + BASIC
    reports = run(write(tmp_path, cfg))
    rep = reports[0]
    assert rep["results"]["nu"]["value"] == 0
    assert not rep["passed"]
    bound = [e for e in rep["expectations"] if e["name"] == "doubling_bound"]
    assert len(bound) == 1 and not bound[0]["passed"]
    assert "nu = 0" in bound[0]["detail"]
    assert "NaN" not in json.dumps(rep["results"]["ratio"])
    assert reports[1]["passed"]


def test_infinite_split_line_recorded_not_fatal(tmp_path):
    # split_re = inf ran every path and failed the bound on nu = 0; it is
    # an error naming the key, and the next scenario still runs.
    cfg = """
[scenario.doubling]
experiment = karafyllia
domain = strip(-1, 1)
a = -2
split_re = inf
n = 2000
""" + BASIC
    reports = run(write(tmp_path, cfg))
    assert reports[0]["error"] == (
        "BadParameters: split_re must be finite, got inf")
    assert not reports[0]["passed"]
    assert reports[1]["passed"]


def test_em_step_under_walk_on_spheres_is_an_error(tmp_path, capsys):
    # Walk-on-spheres has no step for c to scale: a moment scenario that
    # sets c with kernel = wos ran, reported a verdict and echoed c as if
    # it had been used.  It is an error naming c and the kernel, and the
    # next scenario still runs.
    cfg = """
[scenario.wos_with_c]
experiment = moment
domain = wedge(1.5707963267948966)
start = 1
p = 0.25
n = 2000
kernel = wos
c = 1e300
""" + BASIC
    path = write(tmp_path, cfg)
    reports = run(path)
    assert reports[0]["error"] == ("ConfigError: 'c' sets the Euler-Maruyama "
                                   "step and kernel = wos has none, got "
                                   "c = 1e+300")
    assert "results" not in reports[0]
    assert not reports[0]["passed"]
    assert reports[1]["passed"]
    assert main(["run", path]) == 1
    assert "[square] probability: pass" in capsys.readouterr().out


def test_hardy_reports_node_budget(tmp_path):
    # The battery's wedge_hardy with a node budget that ends refinement
    # after the first round: the report must say so.
    cfg = """
[scenario.wedge_hardy]
experiment = hardy
domain = wedge(1.5707963267948966)
a = 1
r_schedule = 10 31.6 100 316 1000
max_nodes = 20000
expect_contains = 2.0
"""
    path = write(tmp_path, cfg)
    rep = run(path)[0]
    res = rep["results"]
    assert res["rounds"] == 1
    assert res["node_budget_hit"] is True
    # Bounds from a refinement cut short by the budget decide nothing.
    [gate] = rep["expectations"]
    assert gate["name"] == "slope_bounds_contain"
    assert not gate["passed"]
    assert "max_nodes = 20000" in gate["detail"]
    assert "after 1 round(s)" in gate["detail"]
    assert main(["run", path]) == 2


WEDGE_HARDY = """
[scenario.wedge_hardy]
experiment = hardy
domain = wedge(1.5707963267948966)
a = 1
r_schedule = 10 31.6 100 316 1000
expect_contains = 2.0
"""


def test_hardy_node_budget_counts_each_round_alone(tmp_path):
    # Each round solves its own graph, so max_nodes bounds that graph's
    # leaves, not the leaves of all rounds so far: the third round of
    # wedge_hardy has 145,344 leaves and fits 180,000.
    default = run(write(tmp_path, WEDGE_HARDY, "default.cfg"))[0]
    fits = run(write(tmp_path, WEDGE_HARDY + "max_nodes = 180000\n",
                     "fits.cfg"))[0]
    assert default["passed"] and fits["passed"]
    for rep in (default, fits):
        assert rep["results"]["rounds"] == 3
        assert rep["results"]["node_budget_hit"] is False
    assert (fits["results"]["delta_values"]
            == default["results"]["delta_values"])
    # 140,000 is too few for the third round's graph.
    short = run(write(tmp_path, WEDGE_HARDY + "max_nodes = 140000\n",
                      "short.cfg"))[0]
    assert short["results"]["rounds"] == 2
    assert short["results"]["node_budget_hit"] is True
    [gate] = short["expectations"]
    assert not gate["passed"]
    assert "max_nodes = 140000" in gate["detail"]
    assert "after 2 round(s)" in gate["detail"]


@pytest.mark.parametrize("text", [
    "n = 5\n" + BASIC,
    BASIC + "n = 5\n",
], ids=["no_section_header", "duplicate_key"])
def test_malformed_ini_is_config_error(tmp_path, capsys, text):
    path = write(tmp_path, text)
    with pytest.raises(ConfigError, match="cannot parse config file"):
        parse_config(path)
    assert main(["run", path]) == 1
    assert f"error: cannot parse config file {path!r}" in (
        capsys.readouterr().err)


def test_unread_bad_values_recorded_not_fatal(tmp_path, capsys):
    # Three of the first four bad values sit in keys their runner does not
    # read for that scenario, and the modulus runner reads a rectangle's
    # 'start'; every key is converted before the runner starts.
    cfg = """
[scenario.sigmas_without_prob]
experiment = harmonic_measure
domain = rectangle(1, 1)
start = 0
region = s1
n = 100
expect_sigmas = banana

[scenario.em_c_under_wos]
experiment = moment
domain = wedge(1.5707963267948966)
start = 1
p = 0.5
n = 100
kernel = wos
c = banana

[scenario.start_on_rectangle]
experiment = modulus
domain = rectangle(2, 1)
n = 100
start = nowhere

[scenario.tol_without_ratio]
experiment = karafyllia
domain = strip(-1, 1)
a = -2
split_re = 0
n = 100
expect_ratio_tol = banana

[scenario.annulus_without_start]
experiment = modulus
domain = annulus(1, 7.389056098930650)
n = 100

[scenario.start_beyond_float]
experiment = harmonic_measure
domain = rectangle(1, 1)
start = 1{zeros}
region = s1
n = 100
""".format(zeros="0" * 400) + BASIC
    path = write(tmp_path, cfg)
    reports = run(path)
    assert [r.get("error") for r in reports] == [
        "ConfigError: bad value 'banana' for 'expect_sigmas'",
        "ConfigError: bad value 'banana' for 'c'",
        "ConfigError: bad value 'nowhere' for 'start'",
        "ConfigError: bad value 'banana' for 'expect_ratio_tol'",
        "ConfigError: modulus on an annulus needs 'start'",
        f"ConfigError: bad value '1{'0' * 400}' for 'start'",
        None]
    assert not any(r["passed"] for r in reports[:-1])
    assert reports[-1]["passed"]
    assert main(["run", path]) == 1
    assert "[square] probability: pass" in capsys.readouterr().out
