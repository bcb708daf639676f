"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np

from bmx.combs import build_comb
from bmx.geometry import (Annulus, BoundaryLabel, Disk, HalfPlane, KoebeSlit,
                          Rectangle, SpiralPair, Strip, Wedge)
from bmx.hyperbolic import CircleTarget, QhConfig, quasi_hyperbolic_distance
from bmx.maps import KoebeParabola, Linear, hardy_norm_profile
from bmx.rng import RngStream
from bmx.sim import (EmConfig, WosConfig, em_exit_batch,
                     sample_disk_exit_batch, wos_exit_batch)
from bmx.stats import (classify_moment, estimate_hardy_number,
                       hill_tail_index, run_exits, verify_cauchy_identities,
                       verify_increasing_domains, verify_karafyllia)

N_BIG = 100_000
E = math.e


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {status} {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_annulus_log_hitting_law():
    t0 = time.perf_counter()
    ann = Annulus(1.0, E ** 2)
    gen = RngStream(9001).substream()
    oks = []
    details = []
    for start, target in [(E, 0.5), (E ** 1.5, 0.25)]:
        b = wos_exit_batch(ann, start, gen, N_BIG)
        p = float(np.mean(b.label == int(BoundaryLabel.ANNULUS_INNER)))
        se = math.sqrt(target * (1 - target) / N_BIG)
        oks.append(abs(p - target) <= 3 * se)
        details.append(f"P(inner|{start:.3f})={p:.4f} vs {target}")
    wall = time.perf_counter() - t0
    oks.append(wall < 30.0)
    _report(1, "annulus log-hitting law", all(oks),
            "; ".join(details) + f"; {wall:.1f}s")


def test_criterion_02_conformal_modulus_invariance():
    rect = Rectangle(2, 1)
    rng = RngStream(9002)
    em = em_exit_batch(rect, 0j, rng.substream(), N_BIG)
    ok_em = em.ok
    c = 3.0
    image = Rectangle(c * rect.a, c * rect.b)
    mapped = Linear(c).evaluate(em.exit_point[ok_em])
    identical = np.array_equal(image.label_codes(mapped), em.label[ok_em])

    wos = wos_exit_batch(rect, 0j, rng.child(1).substream(), N_BIG)
    agree = True
    freqs = []
    for side in range(4):
        pe = float(np.mean(em.label[ok_em] == side))
        pw = float(np.mean(wos.label == side))
        joint = math.sqrt(pe * (1 - pe) / N_BIG + pw * (1 - pw) / N_BIG)
        agree &= abs(pe - pw) <= 3 * joint
        freqs.append(f"S{side + 1}: {pw:.4f}/{pe:.4f}")
    _report(2, "modulus invariance", identical and agree,
            f"labels identical={identical}; WoS/EM " + ", ".join(freqs))


def test_criterion_03_karafyllia_factor_two():
    rep = verify_karafyllia(HalfPlane("north"), -1 + 1j, 0.0, N_BIG,
                            RngStream(9003))
    in_band = 1.9 <= rep.ratio.value <= 2.1
    targets = (rep.nu_hat.within(0.5, 3.5) and rep.nu.within(0.25, 3.5))

    battery = [(HalfPlane("north"), -1 + 1j, 0.0),
               (Strip(-1, 1), -2 + 0j, 0.0),
               (Strip(-math.pi, math.pi), -2 + 0j, 0.0),
               (HalfPlane("west"), -2 + 0j, -1.0)]
    bound_ok = True
    for i, (d, a, split) in enumerate(battery):
        r = verify_karafyllia(d, a, split, 30_000, RngStream(9103 + i))
        bound_ok &= r.ratio.value <= 2.0 + 3 * r.ratio.stderr
    _report(3, "doubling inequality", in_band and targets and bound_ok,
            f"ratio={rep.ratio.value:.4f} nu_hat={rep.nu_hat.value:.4f} "
            f"nu={rep.nu.value:.4f} battery<=2+3se: {bound_ok}")


def test_criterion_04_wedge_moment_thresholds():
    cases = [(Wedge(math.pi / 2), 1.0, "pi/2"),
             (Wedge(math.pi), 0.5, "pi"),
             (KoebeSlit(), 0.25, "2pi")]
    all_ok = True
    details = []
    for i, (domain, alpha_true, tag) in enumerate(cases):
        batch = run_exits(domain, 1 + 0j, N_BIG, EmConfig(),
                          RngStream(9004 + i))
        tau = batch.exit_time[batch.ok]
        alpha = hill_tail_index(tau)
        idx_ok = abs(alpha.value - alpha_true) <= 0.15
        v_lo = classify_moment(0.5 * alpha_true, alpha)
        v_hi = classify_moment(1.5 * alpha_true, alpha)
        verd_ok = v_lo == "finite" and v_hi == "infinite"
        all_ok &= idx_ok and verd_ok
        details.append(f"{tag}: a={alpha.value:.3f} ({v_lo}/{v_hi}) "
                       f"excl={batch.n_excluded}")
    _report(4, "wedge moment thresholds", all_ok, "; ".join(details))


def test_criterion_05_koebe_parabola_hardy_norm():
    kp = KoebeParabola()
    fine = hardy_norm_profile(kp, 0.4)
    coarse = hardy_norm_profile(kp, 0.6)
    mono = all(
        b - a >= -1e-9 * max(abs(b), 1.0)
        for prof in (fine, coarse)
        for a, b in zip(prof.values, prof.values[1:]))
    ok = fine.verdict == "finite" and coarse.verdict == "divergent" and mono
    _report(5, "parabola Hardy norms", ok,
            f"p=0.4 {fine.verdict} (sup={fine.sup:.2f}); "
            f"p=0.6 {coarse.verdict}; monotone={mono}")


def test_criterion_06_hardy_number_sandwich():
    schedule = [10.0, 31.6, 100.0, 316.0, 1000.0]
    wedge = estimate_hardy_number(Wedge(math.pi / 2), 1 + 0j, schedule)
    koebe = estimate_hardy_number(KoebeSlit(), 1 + 0j, schedule)
    spiral = estimate_hardy_number(
        SpiralPair("U"), complex(np.exp(2.5708j)), [6.0, 12.0, 24.0, 48.0],
        QhConfig(cell_factor=0.25, rel_floor=0.0, prune_clearance=0.45,
                 min_cell=0.15, max_rounds=1, max_nodes=500_000))
    ok_wedge = wedge.classification == "finite" and wedge.contains(2.0)
    ok_koebe = koebe.classification == "finite" and koebe.contains(0.5)
    ok_spiral = spiral.classification == "infinite"

    v_disk = quasi_hyperbolic_distance(Disk(0j, 1.0), 0j, CircleTarget(0.5))
    v_half = quasi_hyperbolic_distance(HalfPlane("north"), 1j, 2j,
                                       QhConfig(max_rounds=3))
    R = 100.0
    v_wedge = quasi_hyperbolic_distance(
        Wedge(math.pi / 2), 1 + 0j, CircleTarget(R),
        QhConfig(cell_factor=0.1, rel_floor=0.01, max_rounds=3))
    closed = (abs(v_disk / math.log(2) - 1) < 0.05
              and abs(v_half / math.log(2) - 1) < 0.05
              and abs(v_wedge / (math.sqrt(2) * math.log(R + 1)) - 1) < 0.05)
    _report(6, "Hardy-number sandwich",
            ok_wedge and ok_koebe and ok_spiral and closed,
            f"wedge slope={wedge.slope:.3f} bounds={wedge.slope_bounds}; "
            f"koebe slope={koebe.slope:.4f}; spiral={spiral.classification}; "
            f"closed-form errors "
            f"{v_disk / math.log(2) - 1:+.3%}/"
            f"{v_half / math.log(2) - 1:+.3%}/"
            f"{v_wedge / (math.sqrt(2) * math.log(R + 1)) - 1:+.3%}")


def test_criterion_07_comb_monotone_growth():
    a = [1, 40, 41, 100, 101, 900]
    b = [-50, 5, -51, 6, -52]
    domains = [build_comb(k, a[:k + 1], b[:k])[0] for k in (1, 3, 5)]
    floors = [1.6, 1.9, 2.2]
    rep = verify_increasing_domains(domains, 1 + 0j, 0.25, 20_000,
                                    RngStream(9007), growth_schedule=floors)
    vals = [m.estimate.value for m in rep.moments]
    ses = [m.estimate.stderr for m in rep.moments]
    strict = all(
        nxt - prev > 2 * math.hypot(se_p, se_n)
        for (prev, se_p), (nxt, se_n) in zip(zip(vals, ses),
                                             zip(vals[1:], ses[1:])))
    ok = rep.monotone_ok and strict and all(rep.growth_ok)
    _report(7, "comb moment growth", ok,
            "E[tau^1/4] = " + ", ".join(f"{v:.3f}" for v in vals)
            + f" over floors {floors}")


def test_criterion_08_cauchy_identities():
    t0 = time.perf_counter()
    checks = verify_cauchy_identities(2j, 1j, 0.5, 1.0, 1_000_000,
                                      RngStream(9008))
    by_name = {c.name: c for c in checks}
    assert np.isclose(by_name["mobius"].target, 1 / 3)
    assert np.isclose(by_name["cosh"].target, 1 / math.cosh(1.0), atol=1e-9)
    power_i = verify_cauchy_identities(1j, 1j, 0.5, 1.0, 1_000_000,
                                       RngStream(9108))
    gamma_i_power = [c for c in power_i if c.name == "power"][0]
    assert np.isclose(gamma_i_power.target, np.exp(1j * math.pi / 4))
    wall = time.perf_counter() - t0
    sig = [c.sigmas_off for c in checks] + [gamma_i_power.sigmas_off]
    ok = all(s <= 4.0 for s in sig) and wall < 20.0
    _report(8, "Cauchy identities", ok,
            "sigmas " + ", ".join(f"{s:.2f}" for s in sig) + f"; {wall:.1f}s")


def test_criterion_09_kernel_cross_validation():
    rng = RngStream(9009)
    ok_all = True
    details = []

    cases = [
        (Rectangle(2, 1), 0j,
         [(f"S{k + 1}", lambda z, lab, k=k: lab == k) for k in range(4)]),
        (Annulus(1.0, E ** 2), E + 0j,
         [("inner", lambda z, lab: lab == int(BoundaryLabel.ANNULUS_INNER))]),
        (Wedge(math.pi / 2), 1 + 0j,
         [("upper", lambda z, lab: z.imag > 0),
          ("near", lambda z, lab: np.abs(z) < 1.0)]),
    ]
    for i, (domain, start, regions) in enumerate(cases):
        w = run_exits(domain, start, N_BIG, WosConfig(),
                      rng.child(2 * i))
        m = run_exits(domain, start, N_BIG, EmConfig(),
                      rng.child(2 * i + 1))
        for name, f in regions:
            pw = float(np.mean(f(w.exit_point[w.ok], w.label[w.ok])))
            pe = float(np.mean(f(m.exit_point[m.ok], m.label[m.ok])))
            joint = math.sqrt(pw * (1 - pw) / N_BIG + pe * (1 - pe) / N_BIG)
            ok_all &= abs(pw - pe) <= 3 * joint
        details.append(type(domain).__name__)

    means_ok = True
    for radius, target in [(1.0, 0.5), (2.0, 2.0)]:
        exact = sample_disk_exit_batch(0j, radius, rng.child(50).substream(),
                                       N_BIG, with_time=True)
        em = em_exit_batch(Disk(0j, radius), 0j, rng.child(51).substream(),
                           N_BIG // 2)
        m_exact = float(np.mean(exact.exit_time))
        m_em = float(np.nanmean(em.exit_time))
        means_ok &= abs(m_exact / target - 1) < 0.02
        means_ok &= abs(m_em / target - 1) < 0.02
        details.append(f"r={radius}: {m_exact:.4f}/{m_em:.4f}")
    _report(9, "kernel cross-validation", ok_all and means_ok,
            "; ".join(details))


def test_criterion_10_reproducibility(tmp_path):
    from bmx.cli import run as cli_run

    cfg = tmp_path / "repro.cfg"
    cfg.write_text("""
[scenario.annulus]
experiment = harmonic_measure
domain = annulus(1, 7.389056098930650)
start = 2.718281828459045
region = annulus_inner
n = 20000
kernel = wos
seed = 4242
expect_prob = 0.5
expect_sigmas = 4
""")
    runs = [cli_run(str(cfg))[0],
            cli_run(str(cfg))[0],
            cli_run(str(cfg), workers=2)[0],
            cli_run(str(cfg), workers=4)[0]]
    stripped = []
    for r in runs:
        r = {k: v for k, v in r.items() if k != "wall_time_s"}
        r["scenario"] = {k: v for k, v in r["scenario"].items()
                         if k != "workers"}
        stripped.append(r)
    ok = all(s == stripped[0] for s in stripped[1:])
    p = runs[0]["results"]["probability"]["value"]
    _report(10, "reproducibility", ok,
            f"4 runs (workers 1,1,2,4) byte-identical; P={p!r}")
