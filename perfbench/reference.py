"""Independent reference checker for the gqi benchmark.

Everything here is re-derived from the physics at 50 decimal digits with
mpmath and never imports gqi:

* two-mode hypothesis covariances are built from (n0, n1, n2, kappa, nb);
* Q_s uses the decomposition-free form V(p) = V g(-(Omega V)^2) with
  g(nu^2) = Lambda_p(nu) / nu (Pirandola & Lloyd, PRA 78, 012331 (2008)),
  and symplectic eigenvalues from the two-mode determinant closed form;
* the coherent benchmark uses its closed-form Chernoff exponent
  kappa N_S (sqrt(N_B + 1) - sqrt(N_B))^2;
* the SNR map inverts ln[(1/2) erfc(sqrt(x))] = ln P with a root finder;
* Gaussian discord re-evaluates the block-determinant formula.
"""

import math

import mpmath as mp

DPS = 50

# One stated relative tolerance for every checked number. gqi 0.1.0 stays
# within 3e-8 on every timed op, and a 1e-6 perturbation is always caught.
RTOL = 2e-7

# Neighbour offset for the optimality check of a returned s*.
S_PROBE = 1e-2

# Offset from the ends of [0, 1] at which Q_s is evaluated.
S_EDGE = mp.mpf(10) ** -30

# Digits are capped where a float64 result cannot be told from exact.
DIGITS_CAP = 17.0


def _mpf(x) -> mp.mpf:
    return mp.mpf(float(x))


def relative_error(value: float, ref) -> float:
    """|value - ref| / |ref|, with 0/0 read as exact."""
    ref = mp.mpf(ref)
    err = abs(mp.mpf(float(value)) - ref)
    if ref == 0:
        return 0.0 if err == 0 else math.inf
    return float(err / abs(ref))


def digits(rel_err: float) -> float:
    """Correct decimal digits, log10(1 + 1/min(rel_err, 1)), capped.

    This is -log10(rel_err) for small errors; every result that is off by
    100% or more reads log10(2), so that a wrong result never counts as a
    negative or zero number of digits.
    """
    if rel_err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return math.log10(1.0 + 1.0 / min(rel_err, 1.0))


# ---------------------------------------------------------------------------
# States

def _squeezer(n):
    """(x, p) scale factors of a squeezer with mean photon number n."""
    plus = mp.sqrt(n + 1) + mp.sqrt(n)
    return 1 / plus, plus


def probe_cov(n0, n1, n2):
    """4x4 covariance (x1, p1, x2, p2) of the ASTM probe; TMSV when n1=n2=0."""
    n0, n1, n2 = _mpf(n0), _mpf(n1), _mpf(n2)
    a = 2 * n0 + 1
    c = 2 * mp.sqrt(n0 * (n0 + 1))
    tmsv = [[a, 0, c, 0], [0, a, 0, -c], [c, 0, a, 0], [0, -c, 0, a]]
    g1m, g1p = _squeezer(n1)
    g2m, g2p = _squeezer(n2)
    s = [g1m, g1p, g2m, g2p]
    return [[s[i] * tmsv[i][j] * s[j] if tmsv[i][j] else mp.mpf(0)
             for j in range(4)] for i in range(4)]


def hypotheses(n0, n1, n2, kappa, nb):
    """Target-present and target-absent covariances after the channel."""
    v = probe_cov(n0, n1, n2)
    kappa, nb = _mpf(kappa), _mpf(nb)
    k = [mp.sqrt(kappa), mp.sqrt(kappa), mp.mpf(1), mp.mpf(1)]
    v_a = [[k[i] * v[i][j] * k[j] if v[i][j] else v[i][j] for j in range(4)]
           for i in range(4)]
    noise = 2 * nb + 1 - kappa
    v_a[0][0] += noise
    v_a[1][1] += noise
    thermal = 2 * nb + 1
    v_b = [[mp.mpf(0)] * 4 for _ in range(4)]
    v_b[0][0] = v_b[1][1] = thermal
    for i in (2, 3):
        for j in (2, 3):
            v_b[i][j] = v[i][j]
    return v_a, v_b


# ---------------------------------------------------------------------------
# Small dense algebra on lists of mpf

def _matmul(a, b):
    n = len(a)
    return [[mp.fsum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _det(m):
    """Determinant by Gaussian elimination with partial pivoting.

    A 4x4 matrix without x-p correlations, as every state here is, splits
    into its (x1, x2) and (p1, p2) blocks.
    """
    if len(m) == 4 and not any(m[i][j] for i in range(4) for j in range(4)
                               if (i + j) % 2):
        return (_det2(m[0][0], m[0][2], m[2][0], m[2][2])
                * _det2(m[1][1], m[1][3], m[3][1], m[3][3]))
    a = [row[:] for row in m]
    n = len(a)
    det = mp.mpf(1)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return mp.mpf(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def _det2(a, b, c, d):
    return a * d - b * c


def block_dets(v):
    """(alpha, beta, gamma, delta): dets of the mode-1, mode-2, cross blocks, all."""
    alpha = _det2(v[0][0], v[0][1], v[1][0], v[1][1])
    beta = _det2(v[2][2], v[2][3], v[3][2], v[3][3])
    gamma = _det2(v[0][2], v[0][3], v[1][2], v[1][3])
    return alpha, beta, gamma, _det(v)


def symplectic_pair(v, dets=None):
    """Two-mode symplectic eigenvalues (nu_plus, nu_minus), each >= 1."""
    alpha, beta, gamma, delta = dets or block_dets(v)
    big = alpha + beta + 2 * gamma
    root = mp.sqrt(max(big * big - 4 * delta, mp.mpf(0)))
    nu_p = mp.sqrt(max((big + root) / 2, mp.mpf(1)))
    nu_m = mp.sqrt(max((big - root) / 2, mp.mpf(1)))
    return nu_p, nu_m


# ---------------------------------------------------------------------------
# Q_s and the SNR map

def _g(p, x):
    up, dn = mp.power(x + 1, p), mp.power(max(x - 1, mp.mpf(0)), p)
    return mp.power(2, p) / (up - dn)


def _lam(p, x):
    up, dn = mp.power(x + 1, p), mp.power(max(x - 1, mp.mpf(0)), p)
    return (up + dn) / (up - dn)


def _v_of_p(v, p):
    """S Lambda_p(D) S^T = V [c0 I + c1 M], M = -(Omega V)^2, by Lagrange fit."""
    nu_p, nu_m = symplectic_pair(v)
    f_p = _lam(p, nu_p) / nu_p
    f_m = _lam(p, nu_m) / nu_m
    mu_p, mu_m = nu_p * nu_p, nu_m * nu_m
    if mu_p - mu_m <= mp.mpf(10) ** (-(DPS - 15)) * mu_p:
        return [[f_p * x for x in row] for row in v], (nu_p, nu_m)
    c1 = (f_p - f_m) / (mu_p - mu_m)
    c0 = f_p - c1 * mu_p
    omega_v = [v[1], [-x for x in v[0]], v[3], [-x for x in v[2]]]
    m = [[-x for x in row] for row in _matmul(omega_v, omega_v)]
    vm = _matmul(v, m)
    return ([[c0 * v[i][j] + c1 * vm[i][j] for j in range(4)] for i in range(4)],
            (nu_p, nu_m))


def q_s(v_a, v_b, s):
    """Tr(rho_A^s rho_B^(1-s)) for zero-mean two-mode Gaussian states.

    The formula is 0/0 at s in {0, 1}; the ends take its continuous
    extension, evaluated a hair (S_EDGE) inside the interval.
    """
    s = min(max(mp.mpf(s), S_EDGE), 1 - S_EDGE)
    va_s, nus_a = _v_of_p(v_a, s)
    vb_s, nus_b = _v_of_p(v_b, 1 - s)
    sigma = [[va_s[i][j] + vb_s[i][j] for j in range(4)] for i in range(4)]
    pref = 4
    for nu in nus_a:
        pref *= _g(s, nu)
    for nu in nus_b:
        pref *= _g(1 - s, nu)
    return pref / mp.sqrt(_det(sigma))


def snr_from_log_p(log_p):
    """x >= 0 with ln[(1/2) erfc(sqrt(x))] = log_p."""
    log_p = mp.mpf(log_p)
    gap = -mp.log(2) - log_p
    if gap <= 0:
        return mp.mpf(0)

    def f(u):
        return mp.log(mp.erfc(u) / 2) - log_p

    hi = mp.sqrt(gap) + 1
    while f(hi) > 0:
        hi *= 2
    u = mp.findroot(f, (mp.mpf(0), hi), solver="anderson")
    return u * u


def coherent_snr(ns, kappa, nb, ensembles):
    """Closed-form SNR of the coherent benchmark."""
    kappa, nb, ns, m = _mpf(kappa), _mpf(nb), _mpf(ns), _mpf(ensembles)
    exponent = kappa * ns / (mp.sqrt(nb + 1) + mp.sqrt(nb)) ** 2
    return snr_from_log_p(-m * exponent - mp.log(2))


def two_mode_snr_at(v_a, v_b, s, ensembles):
    """(SNR, Chernoff exponent -ln Q) at a given s."""
    exponent = -mp.log(q_s(v_a, v_b, s))
    return snr_from_log_p(-_mpf(ensembles) * exponent - mp.log(2)), exponent


def best_exponent(v_a, v_b, tol=1e-7):
    """max over s of -ln Q_s by golden section (-ln Q_s is concave in s)."""
    inv_phi = (mp.sqrt(5) - 1) / 2
    lo, hi = mp.mpf(0), mp.mpf(1)
    x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    f1, f2 = -mp.log(q_s(v_a, v_b, x1)), -mp.log(q_s(v_a, v_b, x2))
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = -mp.log(q_s(v_a, v_b, x2))
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = -mp.log(q_s(v_a, v_b, x1))
    return max(f1, f2)


# ---------------------------------------------------------------------------
# Discord

def _entropy_f(x):
    if x <= 1:
        return mp.mpf(0)
    up, dn = (x + 1) / 2, (x - 1) / 2
    return up * mp.log(up) - dn * mp.log(dn)


def discord(v):
    """Gaussian discord with the measurement on mode 2 (nats)."""
    dets = block_dets(v)
    alpha, beta, gamma, delta = dets
    if gamma == 0:
        return mp.mpf(0)  # no correlations: the measurement cannot disturb
    nu_p, nu_m = symplectic_pair(v, dets)
    if (delta - alpha * beta) ** 2 <= (beta + 1) * gamma ** 2 * (alpha + delta):
        inner = max(gamma ** 2 + (beta - 1) * (delta - alpha), mp.mpf(0))
        eps = (2 * gamma ** 2 + (beta - 1) * (delta - alpha)
               + 2 * abs(gamma) * mp.sqrt(inner)) / (beta - 1) ** 2
    else:
        inner = max(gamma ** 4 + (delta - alpha * beta) ** 2
                    - 2 * gamma ** 2 * (delta + alpha * beta), mp.mpf(0))
        eps = (alpha * beta - gamma ** 2 + delta - mp.sqrt(inner)) / (2 * beta)
    return (_entropy_f(mp.sqrt(beta)) - _entropy_f(nu_p) - _entropy_f(nu_m)
            + _entropy_f(mp.sqrt(max(eps, mp.mpf(1)))))
