"""Continuous-variable example states and their witness expectations.

States live in a truncated Fock basis (pure amplitude vectors) or as
photon-number diagonals.  Fidelities with displaced Fock states go through
the closed-form displacement matrix elements, so no operator exponentials
are needed; the radial Wigner profile of a diagonal state is a Laguerre
series.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import laguerre_fn
from .witness import FockDiagonal, WitnessSpec

NORM_TOL = 1e-9
MAX_CUTOFF = 100_000  # largest Fock cutoff of a named state
LOG_1E150 = 150 * math.log(10)


@dataclass(frozen=True)
class PureStateFock:
    """Pure state as Fock amplitudes up to a cutoff."""

    amplitudes: tuple

    def __post_init__(self):
        amp = tuple(complex(a) for a in self.amplitudes)
        norm = sum(abs(a) ** 2 for a in amp)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes not normalised at cutoff (norm {norm})")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def cutoff(self) -> int:
        return len(self.amplitudes) - 1

    def diagonal(self) -> FockDiagonal:
        probs = [abs(a) ** 2 for a in self.amplitudes]
        total = sum(probs)
        return FockDiagonal(tuple(p / total for p in probs))


def default_cutoff(n_max: int, alpha: complex = 0j) -> int:
    """Cutoff heuristic: coherent tails die superexponentially past |alpha|^2."""
    a = complex(alpha)
    if not cmath.isfinite(a):
        raise ValueError("amplitude must be finite")
    # abs(a) * abs(a) overflows to inf, where abs(a) ** 2 raises
    return _cutoff(4 * (n_max + np.ceil(abs(a) * abs(a))) + 10)


def _cutoff(size: float) -> int:
    """max(20, int(size)); ValueError past MAX_CUTOFF."""
    if not size <= MAX_CUTOFF:  # inf too
        raise ValueError(f"Fock cutoff {size:.6g} exceeds {MAX_CUTOFF}")
    return max(20, int(size))


def displacement_element(k: int, l: int, alpha: complex) -> complex:
    """<k|D(alpha)|l>, the closed form sqrt(n!/(n+d)!) z^d e^(-x/2) L_n^(d)(x).

    Here x = |alpha|^2, n = min(k, l) and d = |k - l|, with z = alpha when
    k >= l and -conj(alpha) otherwise.  The Laguerre factor comes from its three-term
    recurrence, rescaled by 1e-150 whenever it grows past 1e150; the rest is
    formed in log space, with the scale, as k! overflows a float from k = 171.
    """
    if k < 0 or l < 0:
        raise ValueError("Fock indices must be natural numbers")
    a = complex(alpha)
    if a == 0:
        return 1.0 + 0j if k == l else 0j
    r = abs(a)
    x = r * r
    if x > 1e150:  # exp(-x/2) outweighs every power of x an index can reach
        return 0j
    n, d = min(k, l), abs(k - l)
    z = a if k >= l else -a.conjugate()
    prev, lag, log_scale = 0.0, 1.0, 0.0
    for j in range(n):
        prev, lag = lag, ((2 * j + 1 + d - x) * lag - (j + d) * prev) / (j + 1)
        if abs(lag) > 1e150:
            prev, lag, log_scale = prev * 1e-150, lag * 1e-150, log_scale + LOG_1E150
    log_mag = 0.5 * (math.lgamma(n + 1) - math.lgamma(n + d + 1)) + d * math.log(r)
    return _unit_power(z / r, d) * lag * math.exp(log_mag - 0.5 * x + log_scale)


def _unit_power(u: complex, d: int) -> complex:
    """u**d by binary exponentiation, the loop CPython runs for d <= 100.

    Past 100 CPython's complex power goes through the polar form, which
    leaves an imaginary part of ~1e-14 on a real or imaginary u; the
    products here keep such a u on its axis, exactly.
    """
    out = 1 + 0j
    while d:
        if d & 1:
            out *= u
        d >>= 1
        u *= u
    return out


# ---------------------------------------------------------------------------
# named example states
# ---------------------------------------------------------------------------


def _coherent_sum(a: complex, N: int, step: int) -> PureStateFock:
    """Normalised amplitudes a^n / sqrt(n!) on every step-th n <= N.

    Step 1 is the coherent state, steps 2 and 4 the sums of 2 and 4 coherent
    states.  Those sums carry a factor 2 or 4 on each amplitude: a power of
    two, which the normalisation cancels exactly, so it is left out.  The
    magnitude |a|^n e^{-|a|^2/2} / sqrt(n!) is formed in log space, as n!
    overflows a float from n = 171.
    """
    amp = np.zeros(N + 1, dtype=complex)
    r = abs(a)
    if r == 0:
        amp[0] = 1.0
    else:
        u = a / r
        for n in range(0, N + 1, step):
            log_mag = n * math.log(r) - 0.5 * math.lgamma(n + 1) - 0.5 * r * r
            amp[n] = u**n * math.exp(log_mag)
    amp /= math.sqrt(float(np.vdot(amp, amp).real))
    return PureStateFock(tuple(amp))


def coherent(alpha: complex) -> PureStateFock:
    a = complex(alpha)
    return _coherent_sum(a, default_cutoff(0, a), 1)


def fock(n: int) -> PureStateFock:
    """|n>, whose cutoff n may not exceed MAX_CUTOFF."""
    _check_fock_index(n)
    amp = [0j] * (n + 1)
    amp[n] = 1.0 + 0j
    return PureStateFock(tuple(amp))


def pssvs(r: float) -> PureStateFock:
    """Photon-subtracted squeezed vacuum, a |1>-like state for small r."""
    if not math.isfinite(r):
        raise ValueError("squeezing parameter must be finite")
    if r == 0:
        raise ValueError("squeezing parameter must be nonzero")
    th, s = math.tanh(r), abs(r)
    N = _pssvs_cutoff(s)
    amp = np.zeros(N + 1, dtype=complex)
    # log of sqrt(cosh r) sinh |r|, the norm of the untruncated state
    log_norm = 1.5 * (s - math.log(2)) + 0.5 * math.log1p(math.exp(-2 * s))
    log_norm += math.log(-math.expm1(-2 * s))
    # squeezed vacuum has even components c_{2k} = sqrt((2k)!) (-th)^k / (2^k k!);
    # subtracting one photon shifts them onto the odd ladder with weight
    # sqrt(2k).  Magnitudes are formed in log space: (2k)! overflows a float
    for k in range(1, (N + 1) // 2 + 1):
        log_mag = 0.5 * (math.log(2 * k) + math.lgamma(2 * k + 1)) - math.lgamma(k + 1)
        log_mag += k * math.log(abs(th) / 2) - log_norm
        amp[2 * k - 1] = math.copysign(1.0, -th) ** k * math.exp(log_mag)
    norm = float(np.vdot(amp, amp).real)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError("cutoff too small for this squeezing parameter")
    amp /= math.sqrt(norm)
    return PureStateFock(tuple(amp))


def _pssvs_cutoff(s: float) -> int:
    """Smallest N >= 40 with tanh(s)^N below NORM_TOL / 10.

    The weight of photon number 2k - 1 decays like sqrt(k) tanh(s)^(2k), so
    the norm discarded past N is about 2 sqrt(log(1/t) / pi) t for
    t = tanh(s)^N: below NORM_TOL once t is below NORM_TOL / 10.
    """
    q = math.exp(-2 * s)
    decay = -math.log1p(-2 * q / (1 + q))  # -log tanh(s), accurate for large s
    if decay == 0:  # tanh(s) is 1 in floating point
        return _cutoff(math.inf)
    return _cutoff(max(40, math.ceil(math.log(10 / NORM_TOL) / decay)))


def cat2(alpha: complex) -> PureStateFock:
    """Even superposition of two opposite coherent states."""
    a = complex(alpha)
    return _coherent_sum(a, default_cutoff(2, a), 2)


def cat4(alpha: complex) -> PureStateFock:
    """Equal superposition of four coherent states on the axes."""
    a = complex(alpha)
    return _coherent_sum(a, default_cutoff(4, a), 4)


def _check_fock_index(n: int) -> None:
    """ValueError unless 0 <= n <= MAX_CUTOFF."""
    if n < 0:
        raise ValueError("Fock index must be a natural number")
    if n > MAX_CUTOFF:
        raise ValueError(f"Fock cutoff {n} exceeds {MAX_CUTOFF}")


def lossy_fock(n: int, eta: float) -> FockDiagonal:
    """Fock state |n> through loss eta; eta = 0 returns |n> itself.

    The weight C(n, k) eta^(n-k) (1-eta)^k of |k> is a float mantissa times
    an integer power of two, as C(n, k) overflows a float from n = 1030 and
    the powers underflow long before the weight does.  A weight whose plain
    product stays normal keeps that product's bits; exp of a natural log
    would lose |log w| ulps.  At eta = 0 and 1 the state is |n> and |0>
    exactly.  n is the state's cutoff, so it may not exceed MAX_CUTOFF.
    """
    _check_fock_index(n)
    if not 0.0 <= eta <= 1.0:
        raise ValueError("loss parameter must lie in [0, 1]")
    F = [0.0] * (n + 1)
    if eta in (0.0, 1.0):
        F[0 if eta else n] = 1.0
        return FockDiagonal(tuple(F))
    c = 1  # C(n, k), exactly
    for k in range(n + 1):
        shift = max(0, c.bit_length() - 1000)
        lost, e_lost = _frexp_pow(eta, n - k)
        kept, e_kept = _frexp_pow(1.0 - eta, k)
        # c / 2^shift is correctly rounded, and is float(c) while c < 2^1000
        F[k] = math.ldexp(c / (1 << shift) * lost * kept, shift + e_lost + e_kept)
        c = c * (n - k) // (k + 1)
    return FockDiagonal(tuple(F))


def _frexp_pow(x: float, j: int):
    """(m, e) with x^j = m 2^e and 0.5 <= m < 1, for 0 < x < 1.

    While x**j is a normal float this is its frexp.  Past that the mantissa
    of x is raised in powers of at most 1000, none of which underflows, and
    the exponents add up as integers.
    """
    p = x**j
    if p >= sys.float_info.min:
        return math.frexp(p)
    m, e = math.frexp(x)
    out, exp = 1.0, e * j
    for step in [1000] * (j // 1000) + [j % 1000]:
        out, de = math.frexp(out * m**step)
        exp += de
    return out, exp


_STATE_BUILDERS = {
    "pssvs": (pssvs, {"r": float}),
    "cat2": (cat2, {"alpha": complex}),
    "cat4": (cat4, {"alpha": complex}),
    "coherent": (coherent, {"alpha": complex}),
    "fock": (fock, {"n": int}),
    "lossy_fock": (lossy_fock, {"n": int, "eta": float}),
}


def parse_state(text: str):
    """Parse specs like 'cat2:alpha=1.4+0j' or 'lossy_fock:n=3,eta=0.2'."""
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in _STATE_BUILDERS:
        raise ValueError(f"unknown state {name!r}")
    fn, sig = _STATE_BUILDERS[name]
    kwargs = {}
    if rest.strip():
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in sig:
                raise ValueError(f"unknown parameter {key!r} for state {name}")
            conv = sig[key]
            if conv is complex:
                kwargs[key] = complex(val.strip().replace("i", "j"))
            else:
                kwargs[key] = conv(val.strip())
    missing = set(sig) - set(kwargs)
    if missing:
        raise ValueError(f"missing parameters for {name}: {sorted(missing)}")
    return fn(**kwargs)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def wigner_radial(state: FockDiagonal, r: float) -> float:
    """Wigner value of a number-diagonal state at radius r."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    x = 4.0 * r * r
    return (2.0 / math.pi) * sum(
        float(f) * laguerre_fn(k, x) for k, f in enumerate(state.F)
    )


def fidelity_with_fock(state, k: int, alpha: complex = 0j) -> float:
    """F(D(alpha)^dag rho D(alpha), |k>)."""
    if isinstance(state, PureStateFock):
        size = state.cutoff + 1
        if alpha == 0:
            amps = state.amplitudes
            return abs(amps[k]) ** 2 if k < size else 0.0
        row = np.array(
            [displacement_element(k, l, -alpha) for l in range(size)]
        )
        return abs(np.dot(row, np.array(state.amplitudes))) ** 2
    if isinstance(state, FockDiagonal):
        F = state.F
        if alpha == 0:
            return float(F[k]) if k < len(F) else 0.0
        return sum(
            float(f) * abs(displacement_element(k, j, -alpha)) ** 2
            for j, f in enumerate(F)
        )
    raise TypeError("state must be PureStateFock or FockDiagonal")


def witness_expectation(state, spec: WitnessSpec) -> float:
    """Expectation of the witness: sum_k a_k F(D^dag rho D, |k>).

    Each displaced fidelity is computed exactly from the amplitudes within
    the state's cutoff, whose norm its constructor has already checked.
    """
    return sum(
        a * fidelity_with_fock(state, k, spec.alpha)
        for k, a in enumerate(spec.a, start=1)
        if a
    )


def violation_and_distance(expectation: float, upper_threshold: float):
    """Positive violation margin, which lower-bounds the trace distance
    to the Wigner-positive set; None when the witness does not trigger."""
    delta = expectation - upper_threshold
    return delta if delta > 0 else None


# closed-form fidelity curves used by the plot-data command


def pssvs_fidelity(r: float) -> float:
    return 1.0 / math.cosh(r) ** 3


def cat2_fidelity(alpha_sq: float) -> float:
    return alpha_sq**2 / (2.0 * math.cosh(alpha_sq))


def cat4_fidelity(alpha_sq: float) -> float:
    return (alpha_sq**4 / 12.0) / (math.cosh(alpha_sq) + math.cos(alpha_sq))
