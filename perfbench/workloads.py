"""Seeded inputs, execution and second-route checks for the three workloads.

Each workload yields its operations in rounds.  A round is a seeded
permutation of a fixed set of cells (CLI commands, flat-sphere strata or
library functions), so every prefix of the op stream keeps close to the
same mix and medians stay comparable from seed to seed.  The first
``fixed_rounds`` rounds form the fixed op list: every timed run covers it,
the traced run executes exactly it, and the output digest is taken over it.
Every round of a workload has the same length, and a timed run ends on a
whole round.

Every op is checked after the timed region against a second route that is
computed in process: the rational closed form against the J(a) integral,
an independent assembly of the same determinant, or the Monte-Carlo area
oracle.  A check returns the error over the allowed error, so a value at
most 1 passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import exp, fsum, gcd, log

import conedet
from conedet import RationalOrder, barnes, cone, determinants, extremal
from conedet.errors import ConfigurationError, ConvergenceError, DomainError

LIBRARY_ERRORS = (ConfigurationError, ConvergenceError, DomainError)


@dataclass
class Op:
    """One operation: a CLI argument list or a library call, plus the facts
    its check and the input-property shares need."""

    kind: str
    args: tuple
    cones: int
    tol: float | None = None
    info: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return json.dumps([self.kind, self.args], default=repr)


@dataclass
class Outcome:
    """What an op produced.  ``code`` is the exit code (library calls: 0, or
    1 when they raised); ``text`` is the exact output, fed to the digest."""

    code: int
    text: str
    rss_kb: int = 0


def _coprime(rng: random.Random, limit: int, lo: float, hi: float) -> tuple[int, int]:
    """Uniform coprime p, q <= limit with lo <= p/q <= hi."""
    while True:
        p, q = rng.randint(1, limit), rng.randint(1, limit)
        if gcd(p, q) == 1 and lo <= p / q <= hi:
            return p, q


def _simplest(lo: Fraction, hi: Fraction) -> Fraction:
    """The fraction with the smallest denominator in [lo, hi], 0 < lo < hi."""
    n = math.floor(lo)
    if n == lo or n + 1 <= hi:
        return Fraction(n if n == lo else n + 1)
    return n + 1 / _simplest(1 / (hi - n), 1 / (lo - n))


def _near_rational(a: float) -> tuple[int, int]:
    """The simplest p/q within 0.5% of a: small p + q keeps the rational
    route that checks it cheap."""
    f = _simplest(Fraction(a * 0.995), Fraction(a * 1.005))
    return f.numerator, f.denominator


def _ratio(got: float, want: float, allowed: float) -> float:
    return abs(got - want) / allowed


class Workload:
    """A named op stream made from a seed, how to run one op, and its check."""

    name = ""
    entry = "conedet"  # module a user imports; timed by setup_s
    fixed_rounds = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"conedet-{self.name}-{seed}")

    def rounds(self):
        while True:
            yield self.next_round()

    def rounds_flat(self):
        return chain.from_iterable(self.rounds())

    def next_round(self) -> list:
        raise NotImplementedError

    def fixed_ops(self) -> list:
        gen = self.rounds()
        return [op for _ in range(self.fixed_rounds) for op in next(gen)]

    def execute(self, op: Op) -> Outcome:
        raise NotImplementedError

    def check(self, op: Op, out: Outcome) -> float:
        """Error over allowed error of a successful op's output."""
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove the input files the ops were given."""


# ----------------------------------------------------------------------
# cli-oneshot
# ----------------------------------------------------------------------


def _one_json(text: str) -> dict:
    """The single JSON object a command prints, or ValueError."""
    if text.count("\n") != 1 or not text.endswith("\n"):
        raise ValueError("expected exactly one line on stdout")
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("stdout is not a JSON object")
    return obj


def _csv_rows(text: str, command: str) -> list:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(f"# generated-by: conedet scan {command}"):
        raise ValueError("missing '# generated-by' CSV header")
    return [tuple(float(v) for v in line.split(",")) for line in lines[2:] if not line.startswith("#")]


class CliOneshot(Workload):
    """Sequential ``python -m conedet.cli`` processes over a seeded corpus of
    the closed-form and scan commands."""

    name = "cli-oneshot"
    entry = "conedet.cli"

    def __init__(self, seed: int, workdir: str, env: dict | None = None, cwd: str | None = None):
        super().__init__(seed, workdir)
        self.env = env
        self.cwd = cwd
        self.files = []

    def _hyperbolic_file(self, n: int) -> tuple[str, list]:
        # beta_j = p_j/q_j - 1 with sum(p_j/q_j) < n - 2, as hyperbolic metrics need
        fracs = [_coprime(self.rng, 12, 0.05, 0.3 if n == 3 else 0.45) for _ in range(n)]
        raw = {
            "orders": [p / q - 1.0 for p, q in fracs],
            "phi_consts": [self.rng.uniform(-1.0, 1.0) for _ in range(n)],
            "liouville_integral": self.rng.uniform(0.0, 3.0),
        }
        path = os.path.join(self.workdir, f"hyperbolic-{self.seed}-{len(self.files) + 1}.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        self.files.append(path)
        return path, fracs

    def cleanup(self) -> None:
        for path in self.files:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        self.files.clear()

    def next_round(self) -> list:
        rng = self.rng
        p, q = _coprime(rng, 50, 0.1, 10.0)
        b = p / q - 1.0
        p2, q2 = _coprime(rng, 50, 0.05, 20.0)
        p3, q3 = _coprime(rng, 50, 0.1, 10.0)
        b3 = p3 / q3 - 1.0
        p4, q4 = _coprime(rng, 50, 0.1, 10.0)
        b4 = p4 / q4 - 1.0
        k4 = rng.uniform(-0.5, 2.0)
        radius = exp(rng.uniform(log(0.1), log(10.0)))
        n_h = rng.choice((3, 4))
        h_path, h_fracs = self._hyperbolic_file(n_h)
        z_orders = [round(rng.uniform(-0.9, 3.0), 6) for _ in range(rng.randint(1, 4))]
        z_closed = rng.random() < 0.5
        d_beta, d_mu, d_k = rng.randint(0, 5), rng.uniform(0.0, 2.0), rng.uniform(0.5, 2.0)
        tol = 1e-10  # the CLI default
        cells = [
            Op("cbeta", ("cbeta", "--beta", repr(b)), 1, tol, {"p": p, "q": q}),
            Op("cbeta-pq", ("cbeta", "--beta", repr(b), "--p", str(p), "--q", str(q)), 1, tol,
               {"p": p, "q": q}),
            Op("barnes-zprime0-pq", ("barnes-zprime0", "--p", str(p2), "--q", str(q2)), 0, tol,
               {"p": p2, "q": q2}),
            Op("barnes-zprime0-pq-cross",
               ("barnes-zprime0", "--p", str(p2), "--q", str(q2), "--cross-check"), 0, tol,
               {"p": p2, "q": q2}),
            Op("barnes-zprime0-a", ("barnes-zprime0", "--a", repr(p2 / q2)), 0, tol,
               {"p": p2, "q": q2}),
            Op("det-spindle", ("det", "spindle", "--beta", repr(b3), "--k", repr(b3 + 1.0)), 2, tol,
               {"beta": b3}),
            Op("det-spindle-area4pi", ("det", "spindle-area4pi", "--beta", repr(b3)), 2, tol,
               {"beta": b3}),
            Op("det-disk", ("det", "disk", "--beta", repr(b4), "--k", repr(k4), "--breakdown"), 1,
               tol, {"p": p4, "q": q4, "k": k4}),
            Op("det-flat-disk", ("det", "flat-disk", "--radius", repr(radius)), 0, None,
               {"radius": radius}),
            Op("det-hyperbolic", ("det", "hyperbolic", "--input", h_path, "--breakdown"), n_h, tol,
               {"fracs": h_fracs}),
            Op("zeta0",
               ("zeta0", "--euler", "2" if z_closed else "1",
                "--orders", ",".join(repr(o) for o in z_orders),
                "--closed" if z_closed else "--boundary", "--a0"),
               len(z_orders), None, {"orders": z_orders, "closed": z_closed}),
            Op("distance-spindle",
               ("distance", "spindle", "--beta", str(d_beta), "--mu", repr(d_mu), "--k", repr(d_k)),
               2, None, {"beta": d_beta, "mu": d_mu, "k": d_k}),
            Op("scan-cbeta", ("scan", "cbeta"), 1, None),
            Op("scan-fixed-area", ("scan", "fixed-area"), 2, None),
            # With default flags (tol 1e-8) find-max exits 4, a known defect;
            # run.py probes that once per traced run, outside the op stream.
            Op("find-max", ("find-max", "--tol", "1e-6"), 2, 1e-6),
            Op("taylor-check", ("taylor-check",), 2, None),
        ]
        rng.shuffle(cells)
        return cells

    def execute(self, op: Op) -> Outcome:
        """One child process, spawn to exit; its peak RSS comes from wait4."""
        with open(os.devnull, "wb") as devnull:
            proc = subprocess.Popen(
                [sys.executable, "-m", "conedet.cli", *op.args],
                stdout=subprocess.PIPE, stderr=devnull, env=self.env, cwd=self.cwd,
            )
            try:
                text = proc.stdout.read().decode()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, text, rss_kb=usage.ru_maxrss)

    @staticmethod
    def execute_inprocess(op: Op) -> Outcome:
        """The same command through ``conedet.cli.main`` in this process."""
        from conedet import cli

        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf):
            try:
                cli.main.main(args=list(op.args), prog_name="conedet", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return Outcome(code, buf.getvalue())

    # CLI scan command -> library target and the command's default grid
    SCANS = {
        "scan-cbeta": ("cbeta", "cbeta", -0.9),
        "scan-fixed-area": ("fixed-area", "fixed_area_det", -0.89),
    }

    def check(self, op: Op, out: Outcome) -> float:
        info = op.info
        if op.kind in self.SCANS:
            command, target, start = self.SCANS[op.kind]
            want = extremal.scan_curve(target, extremal.ScanGrid("beta", start, 5.0, 60))
            if tuple(_csv_rows(out.text, command)) != want.rows:
                raise ValueError("scan rows differ from the in-process scan")
            return 0.0
        obj = _one_json(out.text)
        pay = obj["payload"]
        tol = op.tol
        if op.kind in ("cbeta", "cbeta-pq"):
            exact = cone.ConeOrder.from_rational(RationalOrder(info["p"], info["q"]))
            other = exact if op.kind == "cbeta" else exact.beta
            a = exact.beta + 1.0
            return _ratio(pay["value"], cone.c_beta(other, tol), 4.0 * tol * max(1.0, a + 1.0 / a))
        if op.kind == "barnes-zprime0-pq":
            want = barnes.zprime0_integral(info["p"] / info["q"], tol)
            return _ratio(pay["value"], want, 2.0 * tol)
        if op.kind == "barnes-zprime0-pq-cross":
            return abs(pay["difference"]) / (2.0 * tol)
        if op.kind == "barnes-zprime0-a":
            want = barnes.zprime0_rational(RationalOrder(info["p"], info["q"]))
            return _ratio(pay["value"], want, 2.0 * tol)
        if op.kind == "det-spindle":
            want = determinants.logdet_spindle_area4pi(info["beta"], 0.0, tol).total
            a = info["beta"] + 1.0
            return _ratio(pay["value"], want, 8.0 * tol * max(1.0, a + 1.0 / a))
        if op.kind == "det-spindle-area4pi":
            beta = info["beta"]
            cfg = determinants.SpindleConfig(beta=beta, mu=0.0, curvature=beta + 1.0)
            want = determinants.logdet_spindle(cfg, tol).total
            a = beta + 1.0
            return _ratio(pay["value"], want, 8.0 * tol * max(1.0, a + 1.0 / a))
        if op.kind == "det-disk":
            parts = pay["breakdown"]
            rational = barnes.zprime0_rational(RationalOrder(info["p"], info["q"]))
            if pay["value"] != fsum(parts.values()):
                raise ValueError("disk total is not the sum of its parts")
            return _ratio(parts["barnes"], -2.0 * rational, 4.0 * tol)
        if op.kind == "det-flat-disk":
            # beta = k = 0 disk is the flat disk of radius 2 (rational route)
            anchor = determinants.logdet_disk(determinants.DiskConfig(beta=0, k=0.0)).total
            want = anchor - (log(info["radius"]) - log(2.0)) / 3.0
            return _ratio(pay["value"], want, 1e-12)
        if op.kind == "det-hyperbolic":
            parts = pay["breakdown"]
            cones = [cone.ConeOrder.from_rational(RationalOrder(p, q)) for p, q in info["fracs"]]
            want = -fsum(cone.c_beta(c, tol) for c in cones)
            allowed = fsum(4.0 * tol * max(1.0, c.beta + 1.0 + 1.0 / (c.beta + 1.0)) for c in cones)
            if pay["value"] != fsum(parts.values()):
                raise ValueError("hyperbolic total is not the sum of its parts")
            return _ratio(parts["cone_terms"], want, allowed)
        if op.kind == "zeta0":
            topo = cone.SurfaceTopology(
                euler_top=2 if info["closed"] else 1, orders=info["orders"],
                has_boundary=not info["closed"],
            )
            if pay["value"] != cone.zeta0_surface(topo) or pay["heat_trace_a0"] != cone.heat_trace_a0(topo):
                raise ValueError("zeta0 differs from the in-process value")
            return 0.0
        if op.kind == "distance-spindle":
            cfg = determinants.SpindleConfig(beta=info["beta"], mu=info["mu"], curvature=info["k"])
            if pay["value"] != determinants.spindle_distance(cfg):
                raise ValueError("distance differs from the in-process value")
            return 0.0
        if op.kind == "find-max":
            # the exact maximiser is the round sphere, beta = 0
            loc = abs(pay["location"]) / tol
            val = _ratio(pay["value"], determinants.round_sphere_logdet(), tol)
            return max(loc, val)
        if op.kind == "taylor-check":
            # closed-form expansion of the fixed-area curve at beta = 0:
            # c2 = -(gamma/3 + 1/9), c3 = gamma/3 + 7/36; the allowances are
            # double rounding amplified by the h^-2 and h^-3 stencils at h = 1e-3
            g = conedet.euler_gamma()
            return max(_ratio(pay["c2"], -(g / 3.0 + 1.0 / 9.0), 1e-7),
                       _ratio(pay["c3"], g / 3.0 + 7.0 / 36.0, 1e-5))
        raise ValueError(f"no check for {op.kind}")


# ----------------------------------------------------------------------
# area-plane
# ----------------------------------------------------------------------


def _flat_config(rng: random.Random, n: int, sep: float, near: bool):
    """Regular n-gon with side ``sep`` about the origin, turned by a seeded
    angle; orders sum to -2, one of them in [-0.93, -0.91] when ``near``.
    Moving the centroid off the origin changes the cost of the middle region
    by up to 2x, so the polygon stays centred and ops of one cell cost about
    the same on every seed."""
    base = rng.uniform(0.0, 2.0 * math.pi)
    radius = sep / (2.0 * math.sin(math.pi / n))
    pts = [radius * complex(math.cos(base + 2.0 * math.pi * k / n),
                            math.sin(base + 2.0 * math.pi * k / n)) for k in range(n)]
    weights = [rng.uniform(0.85, 1.15) for _ in range(n)]
    if near:
        b0 = rng.uniform(-0.93, -0.91)
        rest = -2.0 - b0
        orders = [b0] + [rest * w / fsum(weights[1:]) for w in weights[1:]]
        at = rng.randrange(n)
        orders[0], orders[at] = orders[at], orders[0]
    else:
        orders = [-2.0 * w / fsum(weights) for w in weights]
    orders[-1] = -2.0 - fsum(orders[:-1])
    return conedet.FlatSphereConfig(points=pts, orders=orders)


class AreaPlane(Workload):
    """In-process ``logdet_flat_sphere(cfg, tol)`` over seeded flat spheres."""

    name = "area-plane"
    mc_samples = 200_000

    def next_round(self) -> list:
        rng = self.rng
        cells = []
        for n in (3, 4, 5):
            for tol in (1e-6, 1e-8):
                # An order near -1 goes with the wide separation only: with
                # patch radius 0.3 it makes the tol 1e-8 patch quadrature fail
                # to converge (ConvergenceError), which no workload op may do.
                for sep, near in ((rng.uniform(0.6, 0.63), False), (rng.uniform(1.25, 1.3), True)):
                    cfg = _flat_config(rng, n, sep, near)
                    args = (tuple((p.real, p.imag) for p in cfg.points), cfg.orders, tol)
                    cells.append(Op("logdet_flat_sphere", args, n, tol, {"cfg": cfg}))
        rng.shuffle(cells)
        return cells

    def execute(self, op: Op) -> Outcome:
        try:
            res = conedet.logdet_flat_sphere(op.info["cfg"], op.tol)
        except LIBRARY_ERRORS as err:
            return Outcome(1, f"{type(err).__name__}: {err}")
        return Outcome(0, json.dumps([res.total, res.parts]))

    def check(self, op: Op, out: Outcome) -> float:
        cfg, tol = op.info["cfg"], op.tol
        total, parts = json.loads(out.text)
        area = exp(parts["log_area"])
        other = conedet.logdet_flat_sphere_AS(cfg, tol, area=area).total
        est, stderr = conedet.flat_sphere_area_mc(cfg, self.mc_samples, 0)
        return max(_ratio(other, total, tol), abs(area - est) / (5.0 * stderr))


# ----------------------------------------------------------------------
# barnes-sweep
# ----------------------------------------------------------------------


class BarnesSweep(Workload):
    """In-process calls of about a millisecond each from a seeded mix.

    Every Barnes argument is an exact rational p/q, so each op is checked
    against the other route at the same point.
    """

    name = "barnes-sweep"
    fixed_rounds = 25
    per_kind = 8

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self._rational = {}
        self._integral = {}
        self._c_beta = {}

    def next_round(self) -> list:
        rng = self.rng
        cells = []
        for _ in range(self.per_kind):
            p, q = _near_rational(exp(rng.uniform(log(0.01), log(100.0))))
            cells.append(Op("zprime0_integral", (p / q, 1e-12), 0, 1e-12, {"p": p, "q": q}))
            p, q = _coprime(rng, 50, 0.0, 100.0)
            cells.append(Op("zprime0_rational", (p, q), 0, None, {"p": p, "q": q}))
            p, q = _coprime(rng, 50, 0.0, 100.0)
            cells.append(Op("c_beta", (p / q - 1.0,), 1, 1e-12, {"p": p, "q": q}))
            p, q = _coprime(rng, 50, 0.0, 100.0)
            if q == 1:  # integer orders admit mu > 0
                args = (p - 1, rng.uniform(0.0, 2.0))
            else:
                args = (p / q - 1.0, 0.0)
            cells.append(Op("logdet_spindle_area4pi", args, 2, 1e-12, {"p": p, "q": q}))
            p, q = _coprime(rng, 50, 0.0, 100.0)
            cells.append(Op("logdet_disk", (p / q - 1.0, rng.uniform(-0.5, 2.0)), 1, 1e-12,
                            {"p": p, "q": q}))
        rng.shuffle(cells)
        return cells

    def execute(self, op: Op) -> Outcome:
        a = op.args
        try:
            if op.kind == "zprime0_integral":
                res = conedet.zprime0_integral(*a)
            elif op.kind == "zprime0_rational":
                res = conedet.zprime0_rational(RationalOrder(*a))
            elif op.kind == "c_beta":
                res = conedet.c_beta(*a)
            elif op.kind == "logdet_spindle_area4pi":
                res = conedet.logdet_spindle_area4pi(*a)
            else:
                res = conedet.logdet_disk(conedet.DiskConfig(beta=a[0], k=a[1]))
        except LIBRARY_ERRORS as err:
            return Outcome(1, f"{type(err).__name__}: {err}")
        if isinstance(res, float):
            return Outcome(0, repr(res))
        return Outcome(0, json.dumps([res.total, res.parts]))

    def rational(self, p: int, q: int) -> float:
        if (p, q) not in self._rational:
            self._rational[p, q] = conedet.zprime0_rational(RationalOrder(p, q))
        return self._rational[p, q]

    def check(self, op: Op, out: Outcome) -> float:
        p, q = op.info["p"], op.info["q"]
        a = p / q
        value = json.loads(out.text)
        if op.kind == "zprime0_rational":
            if (p, q) not in self._integral:
                self._integral[p, q] = conedet.zprime0_integral(a, 1e-12)
            return _ratio(value, self._integral[p, q], 2e-12)
        scale = max(1.0, a + 1.0 / a)
        if op.kind == "zprime0_integral":
            return _ratio(value, self.rational(p, q), 2e-12)
        if op.kind == "c_beta":
            if (p, q) not in self._c_beta:
                exact = conedet.ConeOrder.from_rational(RationalOrder(p, q))
                self._c_beta[p, q] = conedet.c_beta(exact)
            return _ratio(value, self._c_beta[p, q], 4e-12 * scale)
        total, parts = value
        if total != fsum(parts.values()):
            raise ValueError("total is not the sum of its parts")
        if op.kind == "logdet_spindle_area4pi":
            if q == 1:  # the op took the rational route; check it against the integral
                want = -4.0 * conedet.zprime0_integral(a, 1e-12)
            else:
                want = -4.0 * self.rational(p, q)
            return _ratio(parts["barnes"], want, 8e-12 * scale)
        return _ratio(parts["barnes"], -2.0 * self.rational(p, q), 4e-12)


WORKLOADS = {w.name: w for w in (CliOneshot, AreaPlane, BarnesSweep)}
