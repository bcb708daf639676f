"""Scenario-driven command line: parse a config of named experiments, run
them over a worker pool, and persist reproducible strict JSON reports (plus
raw per-path CSVs on request).

Config files are flat INI text with one ``[scenario.NAME]`` section per
scenario.  Each experiment's schema declares every key's default and
parser, reading the defaults of kernel and graph knobs from their config
classes; unknown keys are errors, and every default is materialized into the
report echo so a rerun of the echoed config reproduces the run bit for bit.
Every value is converted by its key's parser before the experiment runs, so
a bad value in any key, read by the runner or not, is a ConfigError in that
scenario's report, and domain and map calls are read by Python's ``ast``.
Seed precedence: config < BMX_SEED < --set seed=...

Exit status: 0 when all declared expectations pass, 2 when any fails,
1 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import csv
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .combs import build_comb
from .errors import BadParameters, BmxError, ConfigError
from .geometry import (Annulus, BoundaryLabel, Disk, HalfPlane,
                       HalfStripComplement, KoebeSlit, ParabolaComplement,
                       Rectangle, SpiralPair, Strip, Wedge)
from .hyperbolic import QhConfig
from .maps import Linear
from .rng import RngStream
from .sim import EmConfig, WosConfig
from .stats import (CLASS_FINITE, estimate_hardy_number, estimate_moment,
                    exit_proportion, run_exits, verify_cauchy_identities,
                    verify_increasing_domains, verify_karafyllia)

SCHEMA_VERSION = 1
ARTIFACT_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# Value and call-expression parsing
# ---------------------------------------------------------------------------

def _number(source):
    """A number, complex number or number list ``source`` spells, else None."""
    try:
        value = ast.literal_eval(source)
    except (SyntaxError, TypeError, ValueError):
        return None
    items = value if type(value) is list else [value]
    if all(type(v) in (int, float, complex) for v in items):
        return value


def _call(node, expr: str):
    """``(name, args)`` of a bare-name or ``name(...)`` node of ``expr``."""
    if isinstance(node, ast.Name):
        return node.id.lower(), []
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and not node.keywords):
        raise ConfigError(f"expected name(arg, ...) with no keywords, got "
                          f"{ast.unparse(node)!r} in {expr!r}")
    return node.func.id.lower(), [_arg(arg, expr) for arg in node.args]


def _arg(node, expr: str):
    """A bare word, one with a sign such as ``-inf``, or what ``_number``
    reads."""
    signed = (isinstance(node, ast.UnaryOp)
              and isinstance(node.op, (ast.UAdd, ast.USub)))
    if isinstance(node.operand if signed else node, ast.Name):
        return ast.unparse(node)
    value = _number(node)
    if value is None:
        raise ConfigError(f"bad argument {ast.unparse(node)!r} in {expr!r}")
    return value


def parse_call(expr: str):
    """Read ``name(arg, ...)``, or a bare ``name`` for ``name()``, with
    Python's parser into ``(name, args)``, names lower-cased."""
    try:
        tree = ast.parse(expr.strip(), mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse {expr!r}: {exc.msg}") from None
    return _call(tree.body, expr)


def _int_arg(arg) -> int:
    """A call argument that must be an integer: ``2``, not ``2.5``."""
    if not isinstance(arg, int):
        raise ValueError(f"expected an integer argument, got {arg!r}")
    return arg


def _comb(n: int, a: list, b: list, side: str):
    """Side ``V`` or ``W`` (either case) of the comb pair after ``n``
    iterations."""
    return replace(build_comb(n, a, b)[0], side=side.upper())


# name -> (builder, parsers of the required arguments, parsers of the
# optional ones).
_DOMAINS = {
    "rectangle": (Rectangle, (float, float), ()),
    "annulus": (Annulus, (float, float), ()),
    "wedge": (Wedge, (float,), ()),
    "halfplane": (HalfPlane, (), (str,)),
    "strip": (Strip, (float, float), ()),
    "halfstripcomplement": (HalfStripComplement, (float,), (float,)),
    "parabolacomplement": (ParabolaComplement, (), ()),
    "koebeslit": (KoebeSlit, (), ()),
    "disk": (Disk, (complex, float), ()),
    "spiralpair": (SpiralPair, (), (str,)),
    "comb": (_comb, (_int_arg, list, list, str), ()),
}
_MAPS = {"linear": (Linear, (complex,), ())}


def _build(table, kind: str, call):
    """Build a ``(name, args)`` call from ``table``; errors name the call."""
    name, args = call
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r}")
    build, required, optional = table[name]
    if not len(required) <= len(args) <= len(required) + len(optional):
        raise ConfigError(f"bad {kind} spec {name!r}: takes {len(required)} "
                          f"required and {len(optional)} optional argument(s),"
                          f" got {len(args)}")
    try:
        return build(*[p(a) for p, a in zip(required + optional, args)])
    except (BadParameters, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} spec {name!r}: {exc}") from exc


def parse_domain(expr: str):
    """The domain a call such as ``rectangle(2, 1)`` names."""
    return _build(_DOMAINS, "domain", parse_call(expr))


def parse_map(expr: str):
    """The map a call such as ``linear(3)`` names."""
    return _build(_MAPS, "map", parse_call(expr))


_LABELS = {lab.name.lower(): lab for lab in BoundaryLabel}


def parse_region(expr: str):
    """A BoundaryLabel name or a half-space test like ``re>0`` / ``abs<1``."""
    s = expr.strip().lower()
    if s in _LABELS:
        return _LABELS[s]
    m = re.fullmatch(r"(re|im|abs)\s*([<>])\s*([-+0-9.eE]+)", s)
    if not m:
        raise ConfigError(f"cannot parse region {expr!r}")
    coord, op = m.group(1), m.group(2)
    try:
        val = float(m.group(3))
    except ValueError:
        raise ConfigError(
            f"bad number {m.group(3)!r} in region {expr!r}") from None
    extract = {"re": lambda z: z.real, "im": lambda z: z.imag,
               "abs": lambda z: np.abs(z)}[coord]
    if op == ">":
        return lambda z, lab: extract(z) > val
    return lambda z, lab: extract(z) < val


def _parse_floats(s: str):
    return [float(t) for t in re.split(r"[,\s]+", s.strip()) if t]


def _parse_ints(s: str):
    return [int(t) for t in re.split(r"[,\s]+", s.strip()) if t]


def _complex(text: str) -> complex:
    """A real or complex number such as ``2`` or ``-1+1j``, else TypeError."""
    return complex(_number(text))


def _one_of(*words):
    """A parser that accepts only ``words``: ``index`` raises otherwise."""
    return lambda text: words[words.index(text)]


# ---------------------------------------------------------------------------
# Scenario schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One named experiment with fully resolved string-valued parameters."""

    name: str
    experiment: str
    params: tuple          # sorted (key, value-string) pairs
    seed: int
    workers: int
    out: str | None = None


def _convert(key: str, text: str, kind):
    """``kind(text)``; a value it rejects is a ConfigError naming the key and
    either the value or the parser's own message (which names a call spec),
    so the scenario's report records it."""
    try:
        return kind(text)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"bad value {text!r} for {key!r}") from None
    except ConfigError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def _typed_params(scenario: Scenario) -> dict:
    """Every parameter of ``scenario`` converted once by its key's parser; the
    empty value of an optional key is None."""
    schema, _ = EXPERIMENTS[scenario.experiment]
    values = {}
    for key, text in scenario.params:
        default, parser = schema[key]
        if default == "" and text == "":
            values[key] = None
        else:
            values[key] = _convert(key, text, parser)
    return values


# Keys every experiment accepts besides its own schema (see EXPERIMENTS).
_COMMON_KEYS = {"seed": "0", "workers": "1", "out": None}


def _parse_seed(text: str) -> int:
    """An integer seed that an RngStream accepts: 0 <= seed < 2**64."""
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise ValueError(text)
    return seed


def parse_config(path: str, overrides=None) -> list[Scenario]:
    """Parse a scenario file; resolve defaults, env seed, and overrides.

    An override applies to every scenario whose experiment accepts its key;
    a key that no scenario accepts is a ConfigError."""
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    cp.optionxform = str
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") \
            from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    overrides = dict(overrides or {})
    applied = set()
    env_seed = os.environ.get("BMX_SEED")

    scenarios = []
    for section in cp.sections():
        if not section.startswith("scenario."):
            raise ConfigError(f"unknown section [{section}]")
        name = section[len("scenario."):]
        raw = dict(cp.items(section))
        if env_seed is not None:
            raw["seed"] = env_seed

        exp = raw.pop("experiment", None)
        if exp is None:
            raise ConfigError(f"[{section}] is missing 'experiment'")
        if exp not in EXPERIMENTS:
            raise ConfigError(f"[{section}] unknown experiment {exp!r}")
        schema, _ = EXPERIMENTS[exp]
        for key, value in overrides.items():
            if key in schema or key in _COMMON_KEYS:
                raw[key] = value
                applied.add(key)

        seed = _convert("seed", raw.pop("seed", _COMMON_KEYS["seed"]),
                        _parse_seed)
        text = raw.pop("workers", _COMMON_KEYS["workers"])
        workers = _convert("workers", text, int)
        if workers < 1:
            raise ConfigError(f"bad value {text!r} for 'workers'")
        out = raw.pop("out", None)

        params = {}
        for key, (default, _) in schema.items():
            if key in raw:
                params[key] = raw.pop(key)
            elif default is None:
                raise ConfigError(f"[{section}] is missing required {key!r}")
            else:
                params[key] = default
        if raw:
            raise ConfigError(f"[{section}] has unknown keys {sorted(raw)}")
        scenarios.append(Scenario(
            name=name, experiment=exp,
            params=tuple(sorted(params.items())),
            seed=seed, workers=workers, out=out))
    if not scenarios:
        raise ConfigError("config declares no scenarios")
    unused = sorted(set(overrides) - applied)
    if unused:
        raise ConfigError(f"no scenario accepts override keys {unused}")
    return scenarios


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def _expectation(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _estimate_dict(est):
    d = {"value": est.value, "stderr": est.stderr, "n": est.n,
         "ci95": list(est.ci95)}
    if hasattr(est, "wilson95"):
        d["wilson95"] = list(est.wilson95)
        d["excluded"] = est.excluded
    return d


def _run_harmonic_measure(sc: Scenario, v: dict):
    cfg = WosConfig() if v["kernel"] == "wos" else EmConfig()
    batch = run_exits(v["domain"], v["start"], v["n"], cfg,
                      RngStream(sc.seed), sc.workers)
    est = exit_proportion(v["region"], batch)

    results = {"probability": _estimate_dict(est)}
    expectations = []
    if v["expect_prob"] is not None:
        target, sig = v["expect_prob"], v["expect_sigmas"]
        expectations.append(_expectation(
            "probability", est.within(target, sig),
            f"{est.value:.5f} vs {target:.5f} "
            f"(+-{sig} sigma = {sig * est.stderr:.5f})"))
    return results, expectations, batch


def _run_moment(sc: Scenario, v: dict):
    if v["kernel"] == "wos":
        if v["c"] != EmConfig.c:
            raise ConfigError(f"'c' sets the Euler-Maruyama step and kernel "
                              f"= wos has none, got c = {v['c']:g}")
        cfg = WosConfig(with_time=True, max_steps=v["max_steps"])
    else:
        cfg = EmConfig(c=v["c"], max_steps=v["max_steps"])
    me = estimate_moment(v["domain"], v["start"], v["p"], v["n"],
                         RngStream(sc.seed), cfg=cfg, workers=sc.workers)
    results = {
        "moment": _estimate_dict(me.estimate),
        "tail_index": _estimate_dict(me.tail_index),
        "verdict": me.verdict,
        "excluded": me.excluded,
    }
    expectations = []
    want = v["expect_verdict"]
    if want is not None:
        expectations.append(_expectation(
            "verdict", me.verdict == want, f"{me.verdict} vs {want}"))
    want_alpha = v["expect_tail_index"]
    if want_alpha is not None:
        tol = v["expect_tail_tol"]
        off = abs(me.tail_index.value - want_alpha)
        expectations.append(_expectation(
            "tail_index", off <= tol,
            f"alpha {me.tail_index.value:.4f} vs {want_alpha} "
            f"(tol {tol})"))
    return results, expectations, None


def _run_hardy(sc: Scenario, v: dict):
    cfg = QhConfig(cell_factor=v["cell_factor"], rel_floor=v["rel_floor"],
                   prune_clearance=v["prune_clearance"],
                   min_cell=v["min_cell"], max_rounds=v["max_rounds"],
                   max_nodes=v["max_nodes"])
    he = estimate_hardy_number(v["domain"], v["a"], v["r_schedule"], cfg)
    results = {
        "r_schedule": list(he.r_schedule),
        "delta_values": list(he.delta_values),
        "slope": he.slope,
        "slope_bounds": list(he.slope_bounds),
        "classification": he.classification,
        "rounds": he.rounds,
        "node_budget_hit": he.node_budget_hit,
    }
    expectations = []

    def gate(name, passed, detail):
        # Values from a refinement that max_nodes cut short decide nothing.
        if he.node_budget_hit:
            passed = False
            detail += (f"; max_nodes = {cfg.max_nodes} ended the refinement "
                       f"after {he.rounds} round(s)")
        expectations.append(_expectation(name, passed, detail))

    h = v["expect_contains"]
    if h is not None:
        gate("slope_bounds_contain",
             he.classification == CLASS_FINITE and he.contains(h),
             f"H={h} vs bounds {he.slope_bounds}")
    want_cls = v["expect_classification"]
    if want_cls is not None:
        gate("classification", he.classification == want_cls,
             f"{he.classification} vs {want_cls}")
    return results, expectations, None


def _run_karafyllia(sc: Scenario, v: dict):
    rep = verify_karafyllia(v["domain"], v["a"], v["split_re"], v["n"],
                            RngStream(sc.seed), workers=sc.workers)
    results = {
        "nu": _estimate_dict(rep.nu),
        "nu_hat": _estimate_dict(rep.nu_hat),
        "ratio": _estimate_dict(rep.ratio),
        "starlike_pass": rep.starlike.passed,
    }
    expectations = []
    want = v["expect_ratio"]
    if want is not None:
        tol = v["expect_ratio_tol"]
        off = abs(rep.ratio.value - want)
        expectations.append(_expectation(
            "ratio", off <= tol,
            f"{rep.ratio.value:.4f} vs {want} (tol {tol})"))
    sig = v["expect_bound_sigmas"]
    r = rep.ratio
    bound_ok = r.value <= 2.0 + sig * r.stderr
    detail = f"ratio {r.value:.4f} <= 2 + {sig} se ({r.stderr:.4f})"
    if not math.isfinite(r.value):
        bound_ok, detail = False, "nu = 0: no path exited right of the line"
    expectations.append(_expectation("doubling_bound", bound_ok, detail))
    return results, expectations, None


def _run_cauchy(sc: Scenario, v: dict):
    checks = verify_cauchy_identities(
        v["gamma"], v["alpha_mobius"], v["alpha_power"], v["lambda"],
        v["n"], RngStream(sc.seed))
    sig = v["expect_sigmas"]
    results, expectations = {}, []
    for c in checks:
        results[c.name] = {
            "mean": [c.mean.real, c.mean.imag],
            "target": [c.target.real, c.target.imag],
            "stderr": [c.stderr_re, c.stderr_im],
            "sigmas_off": c.sigmas_off,
        }
        expectations.append(_expectation(
            f"identity_{c.name}", c.sigmas_off <= sig,
            f"{c.sigmas_off:.2f} sigma <= {sig}"))
    return results, expectations, None


def _run_modulus(sc: Scenario, v: dict):
    domain, n = v["domain"], v["n"]
    rng = RngStream(sc.seed)
    sig = v["expect_sigmas"]
    results, expectations = {}, []
    if isinstance(domain, Annulus):
        start = v["start"]
        if start is None:
            raise ConfigError("modulus on an annulus needs 'start'")
        batch = run_exits(domain, start, n, WosConfig(), rng, sc.workers)
        est = exit_proportion(BoundaryLabel.ANNULUS_INNER, batch)
        if est.value == 0:
            raise BadParameters(
                f"no path reached the inner circle in {est.n} paths; "
                "the modulus needs at least one")
        num = math.log(domain.R / abs(start))
        modulus = num / est.value
        mod_se = num * est.stderr / est.value ** 2
        results["p_inner"] = _estimate_dict(est)
        results["modulus"] = {"value": modulus, "stderr": mod_se,
                              "true": math.log(domain.R / domain.r)}
        want = v["expect_modulus"]
        if want is not None:
            expectations.append(_expectation(
                "modulus", abs(modulus - want) <= sig * mod_se,
                f"{modulus:.4f} vs {want} (+-{sig} se = {sig * mod_se:.4f})"))
    elif isinstance(domain, Rectangle):
        start = 0j if v["start"] is None else v["start"]
        batch = run_exits(domain, start, n, WosConfig(), rng, sc.workers)
        em_batch = run_exits(domain, start, n, EmConfig(), rng.child(1),
                             sc.workers)
        freqs_w, freqs_e = [], []
        agree = True
        for side in (BoundaryLabel.S1, BoundaryLabel.S2,
                     BoundaryLabel.S3, BoundaryLabel.S4):
            pw = exit_proportion(side, batch)
            pe = exit_proportion(side, em_batch)
            freqs_w.append(pw.value)
            freqs_e.append(pe.value)
            joint = math.hypot(pw.stderr, pe.stderr)
            if abs(pw.value - pe.value) > sig * joint:
                agree = False
        results["aspect_ratio"] = domain.a / domain.b
        results["side_probs_wos"] = freqs_w
        results["side_probs_em"] = freqs_e
        results["excluded"] = {"wos": batch.n_excluded,
                               "em": em_batch.n_excluded}
        expectations.append(_expectation(
            "kernels_agree", agree,
            f"WoS vs EM side frequencies within {sig} joint se"))
    else:
        raise ConfigError("modulus experiment needs an annulus or rectangle")
    return results, expectations, batch


def _run_comb_sequence(sc: Scenario, v: dict):
    a, b, iterations = v["a"], v["b"], v["iterations"]
    domains = [build_comb(k, a[:k + 1], b[:k])[0] for k in iterations]
    growth = v["growth"]
    cfg = WosConfig(with_time=True) if v["kernel"] == "wos" else EmConfig()
    rep = verify_increasing_domains(
        domains, v["start"], v["p"], v["n"], RngStream(sc.seed),
        cfg=cfg, workers=sc.workers, growth_schedule=growth)
    results = {
        "iterations": iterations,
        "moments": [_estimate_dict(m.estimate) for m in rep.moments],
        "tail_indices": [m.tail_index.value for m in rep.moments],
        "excluded": [m.excluded for m in rep.moments],
        "monotone": rep.monotone_ok,
    }
    expectations = [_expectation("monotone", rep.monotone_ok,
                                 "estimates nondecreasing beyond joint CIs")]
    if growth is not None:
        results["growth_schedule"] = growth
        for k, okg in zip(iterations, rep.growth_ok):
            expectations.append(_expectation(
                f"growth_V{k}", okg, "estimate - 2 se above its floor"))
    return results, expectations, None


def _run_pushforward(sc: Scenario, v: dict):
    # Only exit points are mapped, and walk-on-spheres draws their law
    # exactly, where Euler-Maruyama misses crossings.
    batch = run_exits(v["domain"], v["start"], v["n"], WosConfig(),
                      RngStream(sc.seed), sc.workers)
    ok = batch.ok
    mapped = v["map"].evaluate(batch.exit_point[ok])
    mapped_labels = v["image"].label_codes(mapped)
    same = np.array_equal(mapped_labels, batch.label[ok])
    results = {
        "n_ok": int(np.sum(ok)),
        "excluded": batch.n_excluded,
        "labels_identical": bool(same),
    }
    expectations = [_expectation(
        "labels_identical", same,
        "pushforward preserves exit labels path by path")]
    return results, expectations, batch


def _config_keys(config, **parsers):
    """Schema entries for fields of the dataclass ``config``, each parsed by
    its parser in ``parsers`` and defaulting to the class's own default (as
    text, "" for None), so the config class is the one owner of it."""
    defaults = {key: getattr(config, key) for key in parsers}
    return {key: ("" if defaults[key] is None else str(defaults[key]), parser)
            for key, parser in parsers.items()}


# name -> (key schema, runner).  A schema maps each key to (default text,
# parser): a None default marks a required key, and a "" default an
# optional one whose empty value is None.  A runner takes the Scenario and
# its values converted by those parsers, and returns (results,
# expectations, the exit batch --raw writes or None).
EXPERIMENTS = {
    "harmonic_measure": ({
        "domain": (None, parse_domain), "start": (None, _complex),
        "region": (None, parse_region), "n": ("100000", int),
        "kernel": ("wos", _one_of("wos", "em")), "expect_prob": ("", float),
        "expect_sigmas": ("3", float),
    }, _run_harmonic_measure),
    "moment": ({
        "domain": (None, parse_domain), "start": (None, _complex),
        "p": (None, float), "n": ("100000", int),
        **_config_keys(EmConfig, c=float, max_steps=int),
        "kernel": ("em", _one_of("wos", "em")),
        "expect_tail_tol": ("0.15", float), "expect_tail_index": ("", float),
        "expect_verdict": ("", _one_of("finite", "infinite", "inconclusive")),
    }, _run_moment),
    "hardy": ({
        "domain": (None, parse_domain), "a": (None, _complex),
        "r_schedule": (None, _parse_floats),
        **_config_keys(QhConfig, cell_factor=float, rel_floor=float,
                       prune_clearance=float, min_cell=float, max_rounds=int,
                       max_nodes=int),
        "expect_contains": ("", float),
        "expect_classification": ("", _one_of("finite", "infinite")),
    }, _run_hardy),
    "karafyllia": ({
        "domain": (None, parse_domain), "a": (None, _complex),
        "split_re": (None, float), "n": ("100000", int),
        "expect_ratio": ("", float), "expect_ratio_tol": ("0.1", float),
        "expect_bound_sigmas": ("3", float),
    }, _run_karafyllia),
    "cauchy": ({
        "gamma": (None, _complex), "alpha_mobius": (None, _complex),
        "alpha_power": (None, float), "lambda": (None, float),
        "n": ("1000000", int), "expect_sigmas": ("4", float),
    }, _run_cauchy),
    "modulus": ({
        "domain": (None, parse_domain), "start": ("", _complex),
        "n": ("100000", int), "expect_modulus": ("", float),
        "expect_sigmas": ("3", float),
    }, _run_modulus),
    "comb_sequence": ({
        "a": (None, _parse_floats), "b": (None, _parse_floats),
        "iterations": ("1 3 5", _parse_ints), "start": ("1", _complex),
        "p": ("0.25", float), "n": ("20000", int),
        "kernel": ("wos", _one_of("wos", "em")), "growth": ("", _parse_floats),
    }, _run_comb_sequence),
    "pushforward_check": ({
        "domain": (None, parse_domain), "start": (None, _complex),
        "map": (None, parse_map), "image": (None, parse_domain),
        "n": ("20000", int),
    }, _run_pushforward),
}


# ---------------------------------------------------------------------------
# Orchestration and persistence
# ---------------------------------------------------------------------------

def _write_raw_csv(path: str, scenario: str, batch):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "path_id", "exit_re", "exit_im", "exit_time",
                    "label", "steps", "status"])
        for i in range(len(batch)):
            ok = bool(batch.ok[i])
            t = ""
            if batch.exit_time is not None and ok:
                t = repr(float(batch.exit_time[i]))
            w.writerow([
                scenario, i,
                repr(float(batch.exit_point[i].real)) if ok else "",
                repr(float(batch.exit_point[i].imag)) if ok else "",
                t,
                BoundaryLabel(int(batch.label[i])).name if ok else "",
                int(batch.steps[i]),
                "ok" if ok else "max_steps",
            ])


def _report_header(scenario: Scenario) -> dict:
    """Schema, version and scenario echo that open every report."""
    return {
        "schema": SCHEMA_VERSION,
        "artifact_version": ARTIFACT_VERSION,
        "scenario": {
            "name": scenario.name,
            "experiment": scenario.experiment,
            "params": dict(scenario.params),
            "seed": scenario.seed,
            "workers": scenario.workers,
            "out": scenario.out,
        },
    }


def _strict_json(node):
    """``node`` with every non-finite float (an infinite ratio or slope) as
    None, which JSON writes as null; strict parsers reject Infinity."""
    if isinstance(node, float):
        return node if math.isfinite(node) else None
    if isinstance(node, dict):
        return {key: _strict_json(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_strict_json(value) for value in node]
    return node


def _write_report(out_dir: str, name: str, report: dict) -> None:
    """Write ``report`` to ``out_dir/<name>.json`` as strict JSON."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(_strict_json(report), fh, indent=2, sort_keys=True,
                  allow_nan=False)


def run_scenario(sc: Scenario, out_dir: str | None = None,
                 write_raw: bool = False) -> dict:
    """Execute one scenario and return its report dictionary."""
    t0 = time.perf_counter()
    _, runner = EXPERIMENTS[sc.experiment]
    results, expectations, raw_batch = runner(sc, _typed_params(sc))
    wall = time.perf_counter() - t0
    report = {
        **_report_header(sc),
        "wall_time_s": wall,
        "results": results,
        "expectations": expectations,
        "passed": all(e["passed"] for e in expectations),
    }
    if out_dir:
        _write_report(out_dir, sc.name, report)
        if write_raw and raw_batch is not None:
            _write_raw_csv(os.path.join(out_dir, f"{sc.name}.csv"),
                           sc.name, raw_batch)
    return report


def run(config_path: str, overrides=None, out_dir: str | None = None,
        write_raw: bool = False, workers: int | None = None) -> list[dict]:
    """Run every scenario in a config file; per-scenario failures are
    recorded in the reports, not raised."""
    if workers is not None and workers < 1:
        raise ConfigError(f"bad value {workers!r} for 'workers'")
    scenarios = parse_config(config_path, overrides)
    reports = []
    for sc in scenarios:
        if workers is not None:
            sc = replace(sc, workers=workers)
        target_dir = out_dir or sc.out
        try:
            reports.append(run_scenario(sc, target_dir, write_raw))
        except BmxError as exc:
            report = {
                **_report_header(sc),
                "error": f"{type(exc).__name__}: {exc}",
                "expectations": [],
                "passed": False,
            }
            if target_dir:
                _write_report(target_dir, sc.name, report)
            reports.append(report)
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bmx",
        description="Brownian exit-time scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run scenarios from a config file")
    runp.add_argument("config")
    runp.add_argument("--set", action="append", default=[], metavar="K=V",
                      help="override a config key in every scenario "
                           "that accepts it")
    runp.add_argument("--raw", action="store_true",
                      help="write per-path CSV records")
    runp.add_argument("--workers", type=int, default=None)
    runp.add_argument("--out", default=None, help="report output directory")
    args = parser.parse_args(argv)

    overrides = {}
    for item in args.set:
        if "=" not in item:
            print(f"error: --set needs key=value, got {item!r}",
                  file=sys.stderr)
            return 1
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()

    try:
        reports = run(args.config, overrides, out_dir=args.out,
                      write_raw=args.raw, workers=args.workers)
    except (BmxError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    any_fail = False
    any_error = False
    for rep in reports:
        name = rep["scenario"]["name"]
        if "error" in rep:
            any_error = True
            print(f"[{name}] ERROR {rep['error']}")
            continue
        for e in rep["expectations"]:
            status = "pass" if e["passed"] else "FAIL"
            print(f"[{name}] {e['name']}: {status} ({e['detail']})")
            any_fail |= not e["passed"]
        if not rep["expectations"]:
            print(f"[{name}] completed (no declared expectations)")
    if any_error:
        return 1
    return 2 if any_fail else 0


if __name__ == "__main__":
    sys.exit(main())
