"""The three benchmark workloads: inputs from a seed, the timed op, its checks.

Each workload builds *rounds*: a fixed list of ops whose make-up never
depends on the seed (only their inputs do), so a run that executes whole
rounds always attempts the same share of every op kind.  An op is a
``(run, check, items)`` triple:

* ``run()`` is the timed call into planeflow.  It reaches planeflow only
  through module attributes (``pf.flow.integrate``), so the traced run can
  wrap them.
* ``check(result)`` runs outside the timed region and compares the result
  with an independent computation or a property the method must have.  It
  returns ``None`` (correct) or ``FAILED`` (a known program fault, counted
  in ``failed``) and raises ``CheckError`` otherwise.
* ``items`` is the number of work items the op finishes.
"""

from __future__ import annotations

import cmath
import json
import math
import random

FAILED = "failed"


class CheckError(AssertionError):
    """A result disagrees with the independent computation."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# independent quadrature (composite Gauss-Legendre, nodes computed here)


def _gauss_legendre(n):
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-16:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(zip(nodes, weights))


_GL16 = _gauss_legendre(16)


def _composite(fn, a, b, panels):
    h = (b - a) / panels
    total = 0.0
    for j in range(panels):
        mid = a + (j + 0.5) * h
        total += sum(w * fn(mid + 0.5 * h * x) for x, w in _GL16)
    return 0.5 * h * total


def smooth_integral(fn, a, b):
    """Integral of a smooth fn over [a, b]; 64 and 128 panels must agree."""
    coarse = _composite(fn, a, b, 64)
    fine = _composite(fn, a, b, 128)
    _require(abs(fine - coarse) <= 1e-12 * (abs(fine) + 1e-300), "reference quadrature unresolved")
    return fine


def transit_reference(k, beta, x1, x2):
    """Integral of (k |X + i beta|)^(-2(k-1)/k) dX over [x1, x2], beta > 0.

    With X = beta sinh(u) the integrand becomes k^-p beta^(1-p) cosh(u)^(1-p),
    smooth in u (for k = 2 it is constant: the closed form 1/2 asinh).
    """
    p = 2.0 * (k - 1) / k
    scale = k ** -p * beta ** (1.0 - p)
    return smooth_integral(
        lambda u: scale * math.cosh(u) ** (1.0 - p), math.asinh(x1 / beta), math.asinh(x2 / beta)
    )


def rubel_tail_reference(c, d_shift, t1, t2):
    """Integral of |t + iD|^(-c-1) dt over [t1, t2], via t = e^s."""
    return smooth_integral(
        lambda s: math.exp(s - 0.5 * (c + 1.0) * math.log(math.exp(2.0 * s) + d_shift * d_shift)),
        math.log(t1),
        math.log(t2),
    )


# ---------------------------------------------------------------------------
# escape-mc: the measure-zero Monte Carlo of criterion 7

MC_SAMPLES = 16  # samples per op


def _mc_op(pf, f, cfg, op_seed):
    def run():
        return pf.escape.escape_measure(
            f, 0j, 1.0, MC_SAMPLES, cfg, seed=op_seed, collect=MC_SAMPLES
        )

    def check(rep):
        _require(sum(rep.counts.values()) == MC_SAMPLES, f"counts {rep.counts} do not sum to N")
        _require(
            "FiniteTimeBlowup" not in rep.counts and "error" not in rep.counts,
            f"unexpected verdicts {rep.counts}",
        )
        _require(len(rep.trajectories) == MC_SAMPLES, "trajectories not collected")
        for y, traj, _ in rep.trajectories:
            # F(z) = 1 - e^z maps the segment point to i*y ...
            c = complex(1.0, -y)
            _require(abs(cmath.exp(traj.z0) - c) <= 1e-8, f"segment point off F^-1(iy) at y={y!r}")
            # ... and e^z(t) + t is conserved by dz/dt = -e^-z
            for t, z in traj.samples:
                _require(
                    abs(cmath.exp(z) + t - c) <= 1e-7 * (1.0 + t),
                    f"e^z + t drifted at y={y!r}, t={t!r}",
                )

    return run, check, MC_SAMPLES


def escape_mc(pf, seed, n_rounds):
    f = pf.expr.parse_expr("-exp(-z)")
    cfg = pf.flow.IntegratorConfig(escape_radius=10.0, t_max=50.0)
    rng = random.Random(seed)
    rounds = [[_mc_op(pf, f, cfg, rng.getrandbits(32))] for _ in range(n_rounds)]
    return rounds, [f]


# ---------------------------------------------------------------------------
# verdicts: classify-style calls on cases with closed-form answers


def _cplx_text(a):
    return f"({a.real:.6f}{a.imag:+.6f}i)"


def _round6(x):
    return float(f"{x:.6f}")


def _verdict_op(pf, cfg, schema, spec, z0, kind, value):
    """kind: "blowup" (value = T), "periodic" (value = period) or "near_miss"."""

    def run():
        traj = pf.flow.integrate(spec, z0, cfg)
        est = pf.flow.blowup_time_estimate(traj, cfg)
        term = pf.flow.classify(traj, cfg)
        return est, term, pf.reports.dumps_report(est)

    def check(result):
        est, term, text = result
        parsed = json.loads(text)
        pf.reports.validate_report(parsed, schema)
        _require(parsed == pf.reports.report_to_dict(est), "report does not parse back")
        finite = lambda x: x if math.isfinite(x) else None
        _require(
            (parsed["t_est"], parsed["t_err"], parsed["conclusive"], parsed["method"])
            == (finite(est.t_est), finite(est.t_err), est.conclusive, est.method),
            f"{spec.func} from {z0}: report {parsed} does not carry the estimate {est}",
        )
        if kind == "blowup":
            _require(term.name == "FiniteTimeBlowup", f"{spec.func} from {z0}: {term}")
            _require(
                abs(term.t_est - value) <= 1e-8 * (1.0 + value),
                f"{spec.func} from {z0}: T {term.t_est!r}, closed form {value!r}",
            )
        elif kind == "periodic":
            _require(term.name == "Periodic", f"{spec.func} from {z0}: {term}")
            _require(
                abs(term.period - value) <= 1e-6,
                f"{spec.func} from {z0}: period {term.period!r}, closed form {value!r}",
            )
        elif term.name == "FiniteTimeBlowup":
            # z0/(1 - z0 t) passes at distance 1/b and never blows up
            return FAILED
        return None

    return run, check, 1


def verdicts(pf, seed, n_rounds):
    hol, anti = pf.flow.HOLOMORPHIC, pf.flow.ANTIHOLOMORPHIC
    spec = lambda kind, text: pf.flow.FlowSpec(kind, pf.expr.parse_expr(text))
    cfg = pf.flow.IntegratorConfig()
    schema = pf.reports.load_schema()
    mexp = spec(hol, "-exp(-z)")
    # with n = 5 a round has six cheap ops and seven dearer ones, so the
    # median op falls inside the dearer mode, not in the gap between them
    antis = {n: spec(anti, f"z^{n}") for n in (2, 3, 4, 5)}
    tract = spec(anti, "exp(-z) + 1")
    square = spec(hol, "z^2")
    rng = random.Random(seed)
    rounds = []
    zn_funcs = []
    for _ in range(n_rounds):
        ops = []
        for n in (2, 3, 4, 5):
            a = complex(_round6(rng.uniform(-2, 2)), _round6(rng.uniform(-2, 2)))
            while abs(a) < 0.5:
                a = complex(_round6(rng.uniform(-2, 2)), _round6(rng.uniform(-2, 2)))
            ray = (-cmath.phase(a) + 2.0 * math.pi * rng.randrange(n - 1)) / (n - 1)
            z0 = cmath.rect(rng.uniform(0.5, 2.0), ray)
            t_blow = (z0 ** (1 - n) / ((n - 1) * a)).real
            zn = spec(hol, f"{_cplx_text(a)}*z^{n}")
            if not rounds:
                zn_funcs.append(zn.func)
            ops.append(_verdict_op(pf, cfg, schema, zn, z0, "blowup", t_blow))
        x = rng.uniform(-1.0, 2.0)
        ops.append(_verdict_op(pf, cfg, schema, mexp, complex(x), "blowup", math.exp(x)))
        for n, s in antis.items():
            x = rng.uniform(0.5, 2.0)
            ops.append(_verdict_op(pf, cfg, schema, s, complex(x), "blowup", x ** (1 - n) / (n - 1)))
        ops.append(
            _verdict_op(
                pf, cfg, schema, tract, complex(-1.0, math.pi), "blowup", -math.log(1.0 - math.exp(-1.0))
            )
        )
        for _ in range(2):
            a = _round6(rng.uniform(0.5, 2.0)) * rng.choice((-1.0, 1.0))
            z0 = cmath.rect(rng.uniform(0.5, 3.0), rng.uniform(-math.pi, math.pi))
            ops.append(
                _verdict_op(pf, cfg, schema, spec(hol, f"({a:.6f}i)*z"), z0, "periodic", 2.0 * math.pi / abs(a))
            )
        b = rng.uniform(1e-3, 1e-2)
        ops.append(_verdict_op(pf, cfg, schema, square, 1.0 / complex(1.0, b), "near_miss", None))
        rounds.append(ops)
    return rounds, [mexp.func, tract.func, square.func, *(s.func for s in antis.values()), *zn_funcs]


# ---------------------------------------------------------------------------
# level-paths: transit along levels of Im G, and Rubel paths for exp(z)

LEVEL_REACH = 2000.0  # each level curve runs out to |z| ~ LEVEL_REACH * |start|
RUBEL_LOG_T_END = 60.0
# transit_time runs only for k = 1, 2: for k = 3, 4 its adaptive Simpson
# misses the 1e-6 check on rare starts (see CHANGES.md), which would make
# the failed count depend on the seed.  Those curves are traced and tested
# by the slow-growth criterion only.
TRANSIT_KS = (1, 2)


def _level_op(pf, cfg, big_g, k, z0):
    x_max = (LEVEL_REACH * abs(z0)) ** k / k
    transit = k in TRANSIT_KS

    def run():
        curve = pf.level.trace_level(big_g, z0, x_max, cfg)
        rep = pf.level.transit_time(curve, cfg) if transit else None
        return curve, rep, pf.level.infinite_time_criterion(curve)

    def check(result):
        curve, rep, crit = result
        where = f"G=z^{k}/{k} from {z0}"
        _require(crit.fires == (k == 1), f"{where}: criterion fires={crit.fires}")
        if not transit:
            return
        want = transit_reference(k, curve.beta, curve.x_start, curve.x_end)
        _require(
            abs(rep.quadrature_time - want) <= 1e-6 * want,
            f"{where}: quadrature {rep.quadrature_time!r}, reference {want!r}",
        )
        _require(rep.relative_gap <= 1e-3, f"{where}: gap {rep.relative_gap!r}")

    return run, check, 1


def _rubel_op(pf, cfg, f, d_shift, seed_pt):
    t_end = math.exp(RUBEL_LOG_T_END)

    def run():
        return pf.escape.rubel_path(f, d_shift, seed_pt, t_end, cfg)

    def check(rep):
        where = f"exp(z), D={d_shift!r}"
        zs = {}
        for t, z in rep.samples:
            _require(abs(z - cmath.log(complex(t, d_shift))) <= 1e-9, f"{where}: z != log(t+iD) at t={t!r}")
            zs[abs(z)] = z
        for m, points in rep.growth_ratios.items():
            _require(points, f"{where}: no growth ratios for m={m}")
            for r, q in points:
                z = zs.get(r)
                _require(z is not None, f"{where}: growth ratio at |z|={r!r} is off the path")
                # every derivative of exp is exp: log|f^(m)| / log|z| = Re z / ln|z|
                _require(abs(q - z.real / math.log(r)) <= 1e-9, f"{where}: ratio {q!r} at |z|={r!r}")
        t1, t2 = rep.samples[0][0], rep.samples[-1][0]
        # |f^(m)| = |t + iD| and |dz| = dt / |t + iD| for every m
        wants = {c: rubel_tail_reference(c, d_shift, t1, t2) for c in {t.c for t in rep.tail_integrals}}
        for tail in rep.tail_integrals:
            _require(tail.finite, f"{where}: tail m={tail.m} c={tail.c} not finite")
            want = wants[tail.c]
            _require(
                abs(tail.partial_sum - want) <= 1e-2 * want,
                f"{where}: partial sum {tail.partial_sum!r}, reference {want!r}",
            )

    return run, check, 1


def level_paths(pf, seed, n_rounds):
    cfg = pf.flow.IntegratorConfig(escape_radius=1e9)
    gs = {k: pf.expr.parse_expr("z" if k == 1 else f"z^{k} * (1/{k})") for k in (1, 2, 3, 4)}
    f = pf.expr.parse_expr("exp(z)")
    rng = random.Random(seed)
    rounds = []
    for _ in range(n_rounds):
        ops = []
        for k, big_g in gs.items():
            # arg(z0) in [0.2, 1.2]/k keeps Im G > 0 and Re G > 0 at the start
            z0 = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.2) / k)
            ops.append(_level_op(pf, cfg, big_g, k, z0))
        # three Rubel ops against three cheap curves (k = 1, 3, 4) keep the
        # median op inside one mode of the op-time distribution, not between
        for _ in range(3):
            d_shift = rng.uniform(0.0, 5.0)
            seed_pt = cmath.log(complex(rng.uniform(2.0, 20.0), d_shift))
            ops.append(_rubel_op(pf, cfg, f, d_shift, seed_pt))
        rounds.append(ops)
    derivative = pf.expr.derivative
    funcs = [*gs.values(), *(derivative(g) for g in gs.values()), f]
    return rounds, funcs


WORKLOADS = {"escape-mc": escape_mc, "verdicts": verdicts, "level-paths": level_paths}
