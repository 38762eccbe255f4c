"""Seeded inputs and per-op correctness checks for the benchmark workloads.

Every workload is a fixed cycle of op kinds, so a run that stops on a
cycle boundary sees the same mix whatever its seed or length. Op k of a
run draws its inputs from its own random stream, keyed by (seed, k), and
writes them as CSV files: the program under test receives nothing else.
On analyze_sampled, the one parameter per family that sets most of an
op's error is instead spread evenly over a run's cycles, from a start
drawn per seed.
Each op comes with a checker that compares the program's answer with a
closed-form or ground-truth value. Of the package, only the self-similar
solver is used here, to generate inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from frenetsim.errors import GeometryError
from frenetsim.selfsimilar import SelfSimilarSpec, solve_self_similar

# the acceptance contract: every invariant within 1e-3 of the truth
TOL = 1e-3
# index of the untimed warm-up op; it draws from a stream of its own
WARMUP = -1

ANALYZE_SAMPLES = 20000
ANALYZE_NOISE = 1e-9  # Gaussian position noise, relative to the curve's diameter
MATCH_SAMPLES = 2000
VERIFY_SAMPLES = 2000
VERIFY_TRIALS = 3
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Op:
    """One CLI call: its arguments, how to judge it, and what it leaves behind.

    check maps (exit code, stdout) to (correct, error), where error is
    the accuracy figure the op reports against the truth, or None when
    the op produced none. exact is False for ops on noisy data, whose
    errors do not count toward accuracy.
    """

    argv: list
    check: Callable[[int, str], tuple]
    exact: bool = True
    files: list = field(default_factory=list)


def write_curve_csv(path: Path, t: np.ndarray, points: np.ndarray) -> None:
    """The CLI's `t,x1,...,xn` format with 17 significant digits."""
    header = ",".join(["t"] + [f"x{d + 1}" for d in range(points.shape[1])])
    np.savetxt(path, np.column_stack([t, points]), delimiter=",",
               header=header, comments="", fmt="%.17g")


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1] if k == WARMUP else [seed, 0, k])


# ---------------------------------------------------------------------------
# closed forms


def helix_points(a: float, b: float, u: np.ndarray) -> np.ndarray:
    return np.column_stack([a * np.cos(u), a * np.sin(u), b * u])


def helix_signature(a: float, b: float):
    """(kt, ktj) of the V_2-indicatrix of a helix: 0 and (a, b)/sqrt(a^2+b^2)."""
    h = math.hypot(a, b)
    return 0.0, (a / h, b / h)


def spiral_points(c: float, u: np.ndarray) -> np.ndarray:
    r = np.exp(c * u)
    return np.column_stack([r * np.cos(u), r * np.sin(u)])


def spiral_signature(c: float):
    """(kt, ktj) of the V_1-indicatrix of the log-spiral r = e^{c phi}: c and (1,)."""
    return c, (1.0,)


def draw_self_similar(rng: np.random.Generator, n: int,
                      theta: float | None = None) -> SelfSimilarSpec:
    """Random constant invariants of a self-similar curve in E^n, index 2.

    (kt_1, kt_2) = (cos theta, sin theta), theta in [0.35, 1.22] and drawn
    unless given, as index 2 requires; the other kt_j are nonzero.
    |kt| stays at or above 0.02: as kt -> 0 the closed form in odd n moves
    the curve a distance z_1/kt from the origin, where the fit loses
    accuracy (kt = 3e-5 gives a kt error of 7e-3 on exact data in E^3).
    Invariants for which no real curve exists are drawn again.
    """
    while True:
        th = rng.uniform(0.35, 1.22) if theta is None else theta
        rest = rng.uniform(0.5, 1.2, n - 3) * rng.choice((-1.0, 1.0), n - 3)
        ktj = (math.cos(th), math.sin(th)) + tuple(rest)
        kt = rng.uniform(0.02, 0.1) * rng.choice((-1.0, 1.0))
        spec = SelfSimilarSpec(n, 2, kt, ktj)
        try:
            solve_self_similar(spec)
        except GeometryError:
            continue
        return spec


def self_similar_points(spec: SelfSimilarSpec, sigma: np.ndarray) -> np.ndarray:
    """The closed form of synthesize_self_similar, at any sigma values."""
    sol = solve_self_similar(spec)
    n = spec.dimension
    pts = np.empty((len(sigma), n))
    for p in range(n // 2):
        w0 = complex(sol.frame0[0, 2 * p], sol.frame0[0, 2 * p + 1])
        mu = complex(spec.kt, sol.plane_spin[p] * sol.lambdas[p])
        z = w0 * np.exp(mu * sigma) / mu
        pts[:, 2 * p], pts[:, 2 * p + 1] = z.real, z.imag
    if n % 2 == 1:
        pts[:, n - 1] = (sol.axial / spec.kt) * np.exp(spec.kt * sigma)
    return pts


def random_direct_similarity(rng: np.random.Generator, n: int):
    """Scale in [0.5, 2], a rotation with determinant +1, and a shift."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    lam = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return lam, q, rng.uniform(-10.0, 10.0, n)


def _irregular_grid(rng: np.random.Generator, lo: float, hi: float,
                    samples: int) -> np.ndarray:
    """Increasing sample positions in [lo, hi] whose spacing swings smoothly
    by up to a factor 2.3 over one or two periods."""
    x = np.linspace(0.0, 1.0, samples)
    amp = rng.uniform(0.2, 0.4)
    w = 2.0 * math.pi * rng.integers(1, 3)
    return lo + (hi - lo) * (x + amp * np.sin(w * x) / w)


# ---------------------------------------------------------------------------
# analyze_sampled: helix E^3, log-spiral E^2, self-similar E^3 and E^4


def _helix_case(rng, u, spread):
    a, b = rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0) * rng.choice((-1, 1))
    return helix_points(a, b, u), 2, helix_signature(a, b)


def _spiral_case(rng, u, spread):
    # the kt error grows by four decades from c = 0.06 to 0.18, whatever
    # the sampling
    c = (0.05 + 0.15 * spread) * rng.choice((-1, 1))
    return spiral_points(c, u), 1, spiral_signature(c)


def _self_similar_case(n):
    def case(rng, u, spread):
        # the error grows with theta, by about two decades over its range
        spec = draw_self_similar(rng, n, 0.35 + 0.87 * spread)
        return self_similar_points(spec, 2.0 * u / math.pi), 2, (spec.kt,
                                                                 spec.ktj)
    return case


ANALYZE_FAMILIES = (_helix_case, _spiral_case, _self_similar_case(3),
                    _self_similar_case(4))


def _analyze_op(seed: int, k: int, base: Path) -> Op:
    rng = _rng(seed, k)
    cycle, family = divmod(k, len(ANALYZE_FAMILIES))
    # the parameter that sets a family's accuracy walks a Kronecker sequence
    # over the cycles from a start drawn per seed, so every run spreads it
    # evenly over its range and the run's mean accuracy moves little from
    # seed to seed
    start = np.random.default_rng([seed, 2, family]).random()
    spread = (start + cycle * GOLDEN) % 1.0
    # one op in each cycle is noisy, on a family that rotates every second
    # cycle, so a traced cycle and the untraced one before it see one mix
    noisy = k != WARMUP and family == (cycle // 2) % len(ANALYZE_FAMILIES)
    # t runs over [0, 4 pi]; self-similar curves map it to sigma in [0, 8]
    t = _irregular_grid(rng, 0.0, 4.0 * math.pi, ANALYZE_SAMPLES)
    pts, index, (kt, ktj) = ANALYZE_FAMILIES[family](rng, t, spread)
    if noisy:
        diameter = float(np.linalg.norm(np.ptp(pts, axis=0)))
        pts = pts + rng.normal(0.0, ANALYZE_NOISE * diameter, pts.shape)
    inp = base.with_suffix(".csv")
    write_curve_csv(inp, t, pts)
    sig_path = Path(f"{base}.signature.json")
    artifacts = [sig_path, Path(f"{base}.samples.csv"),
                 Path(f"{base}.indicatrix.csv")]

    def check(rc, stdout):
        if rc != 0:
            # a noisy op may refuse with the documented degeneracy exit code
            return noisy and rc == 3, None
        if not all(p.is_file() for p in artifacts):
            return False, None
        sig = json.loads(sig_path.read_text())
        err = max(float(np.abs(np.asarray(sig["kt"]) - kt).max()),
                  float(np.abs(np.asarray(sig["ktj"])
                               - np.asarray(ktj)[:, None]).max()))
        return err <= TOL, err

    argv = ["analyze", "--input", str(inp), "--samples", str(ANALYZE_SAMPLES),
            "--index", str(index), "--output", str(base)]
    return Op(argv, check, exact=not noisy, files=[inp] + artifacts)


# ---------------------------------------------------------------------------
# match_pairs: cubic (t, t^2, a t^3) against a similar or non-similar sub-arc


def cubic_points(a: float, t: np.ndarray) -> np.ndarray:
    return np.column_stack([t, t * t, a * t**3])


def _match_op(seed: int, k: int, base: Path) -> Op:
    rng = _rng(seed, k)
    similar = k % 2 == 0
    # the similar-pair distance grows with a (about 4e-3 at a = 1.9, against
    # the 1e-2 decision threshold); a <= 1.25 keeps it below 1e-4
    a = rng.uniform(0.5, 1.25)
    a_b = a if similar else a * rng.uniform(1.6, 2.5) ** rng.choice((-1, 1))
    t = np.linspace(-1.0, 1.0, MATCH_SAMPLES)
    tb = np.linspace(rng.uniform(-1.0, -0.6), rng.uniform(0.6, 1.0),
                     MATCH_SAMPLES)
    lam, rot, shift = random_direct_similarity(rng, 3)
    inp_a, inp_b = Path(f"{base}.a.csv"), Path(f"{base}.b.csv")
    write_curve_csv(inp_a, t, cubic_points(a, t))
    write_curve_csv(inp_b, tb, lam * cubic_points(a_b, tb) @ rot.T + shift)

    def check(rc, stdout):
        if rc != (0 if similar else 1):
            return False, None
        if not similar:
            return True, None
        err = abs(json.loads(stdout)["lambda_est"] - lam) / lam
        return err <= TOL, err

    argv = ["match", "--input", str(inp_a), "--input-b", str(inp_b),
            "--index", "2"]
    return Op(argv, check, files=[inp_a, inp_b])


# ---------------------------------------------------------------------------
# verify_highdim: self-similar curves, one in E^5 then two in E^9


def _verify_op(seed: int, k: int, base: Path) -> Op:
    rng = _rng(seed, k)
    # with two E^9 ops per E^5 op, the median latency falls inside the E^9
    # cluster rather than in the gap between the two dimensions
    n = 5 if k % 3 == 0 else 9
    sigma = np.linspace(0.0, 4.0, VERIFY_SAMPLES)
    inp = base.with_suffix(".csv")
    write_curve_csv(inp, sigma, self_similar_points(draw_self_similar(rng, n),
                                                    sigma))

    def check(rc, stdout):
        if rc not in (0, 1):
            return False, None
        res = json.loads(stdout)
        return rc == 0 and res["pass"] is True, float(res["max_deviation"])

    argv = ["verify", "--input", str(inp), "--trials", str(VERIFY_TRIALS),
            "--seed", str(int(rng.integers(2**31)))]
    return Op(argv, check, files=[inp])


# name -> (ops per cycle, op builder)
WORKLOADS = {
    "analyze_sampled": (len(ANALYZE_FAMILIES), _analyze_op),
    "match_pairs": (2, _match_op),
    "verify_highdim": (3, _verify_op),
}


def make_op(workload: str, seed: int, k: int, workdir: Path) -> Op:
    """Write the inputs of op k (or WARMUP) of a workload and describe the call."""
    _, build = WORKLOADS[workload]
    tag = "warmup" if k == WARMUP else f"op{k:05d}"
    return build(seed, k, Path(workdir) / tag)
