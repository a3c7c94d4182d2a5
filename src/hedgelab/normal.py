"""The standard normal CDF N and its inverse, bit for bit as scipy.special.

``ndtr`` (through Cephes's ``erf`` and ``erfc``) and ``ndtri`` are numpy
ports of the Cephes Math Library routines by Stephen L. Moshier
(Copyright 1984, 1987, 1988, 1992, 2000), which scipy ships under the
BSD license as ``scipy.special.ndtr`` and ``scipy.special.ndtri``.  The
ports keep Cephes's coefficient tables, its branch points and its Horner
order (``polevl``, ``p1evl``), and call libm's ``exp`` and ``log`` where
Cephes does, so each value is the double scipy returns.  numpy's own
float ``exp`` and ``log`` loops differ from libm in the last bit for some
inputs on SIMD hosts; so ``exp`` goes through numpy's complex ``exp``
(glibc's ``cexp``, which returns ``exp`` for a zero imaginary part) and
``log`` through ``math.log`` on the entries that take it.

Both work in chunks of ``CHUNK`` values, so their scratch stays bounded
whatever the input's size.  A call runs a few dozen numpy operations
per chunk, so callers pass many values per call.
"""

from __future__ import annotations

import math

import numpy as np

# values per pass: bounds the scratch; of 2^12 to 2^16 values, 2^14 took
# N and N^-1 of 60 000 values fastest on a 2-vCPU host
CHUNK = 1 << 14

SQRT1_2 = 7.07106781186547524401e-1
MAXLOG = 7.09782712893383996843e2
S2PI = 2.50662827463100050242e0
EXP_M2 = 0.13533528323661269189  # exp(-2)

# erf on |x| <= 1: x T(x^2) / U(x^2)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)
# erfc on 1 <= x < 8: exp(-x^2) P(x) / Q(x)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc on x >= 8: exp(-x^2) R(x) / S(x)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)

# ndtri on exp(-2) < y < 1 - exp(-2): y + y y^2 P0(y^2) / Q0(y^2), y - 0.5
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# ndtri tails, z = 1/sqrt(-2 log y): x between 2 and 8 ...
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# ... and from 8 on
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes ``polevl``: coef[0] x^N + ... + coef[N] in Horner order."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes ``p1evl``: ``_polevl`` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _exp(x: np.ndarray) -> np.ndarray:
    """libm's exp of each value (see the module docstring)."""
    return np.exp(x.astype(np.complex128)).real


def _log(x: np.ndarray) -> np.ndarray:
    """libm's log of each value (see the module docstring)."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _ratio(x: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """Cephes's ``x * polevl(x, num) / p1evl(x, den)``."""
    y = x * _polevl(x, num)
    y /= _p1evl(x, den)
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf``'s rational form, its value for |x| <= 1."""
    z = x * x
    y = x * _polevl(z, _T)
    y /= _p1evl(z, _U)
    return y


def _erfc(a: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` for a >= sqrt(1/2), or NaN."""
    p, q = _polevl(a, _P), _p1evl(a, _Q)
    big = ~(a < 8.0)
    if big.any():
        p[big], q[big] = _polevl(a[big], _R), _p1evl(a[big], _S)
    z = -a * a
    y = _exp(z)
    y *= p
    y /= q
    y[z < -MAXLOG] = 0.0  # exp(-a^2) underflows: erfc is 0
    near = a < 1.0
    if near.any():
        y[near] = 1.0 - _erf(a[near])
    return y


# Each kernel runs its main branch on the whole chunk, which costs less
# than gathering that branch's entries, then overwrites the other
# branches' entries.

def _ndtr(a: np.ndarray, out: np.ndarray) -> None:
    x = a * SQRT1_2
    z = np.abs(x)
    far = ~(z < SQRT1_2)
    np.multiply(_erf(x), 0.5, out=out)
    out += 0.5
    if far.any():
        y = _erfc(z[far])
        y *= 0.5
        out[far] = np.where(x[far] > 0.0, 1.0 - y, y)


def _ndtri(y0: np.ndarray, out: np.ndarray) -> None:
    upper = y0 > 1.0 - EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    t = y - 0.5
    x = _ratio(t * t, _P0, _Q0)
    x *= t
    x += t
    np.multiply(x, S2PI, out=out)
    tail = ~(y > EXP_M2) & (y > 0.0)
    if tail.any():
        x = _log(y[tail])
        x *= -2.0
        np.sqrt(x, out=x)
        x0 = x - _log(x) / x
        z = 1.0 / x
        x1 = _ratio(z, _P1, _Q1)
        big = ~(x < 8.0)
        if big.any():
            x1[big] = _ratio(z[big], _P2, _Q2)
        x0 -= x1
        np.negative(x0, out=x0, where=~upper[tail])
        out[tail] = x0
    edge = ~(y > 0.0)
    if edge.any():  # 0 and 1, values outside [0, 1], NaN
        out[edge] = np.where(y0[edge] == 0.0, -np.inf,
                             np.where(y0[edge] == 1.0, np.inf, np.nan))


def _chunked(kernel, values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    out = np.empty(values.shape)
    flat, flat_out = values.reshape(-1), out.reshape(-1)
    with np.errstate(all="ignore"):
        for start in range(0, flat.size, CHUNK):
            kernel(flat[start:start + CHUNK], flat_out[start:start + CHUNK])
    return out


def ndtr(x) -> np.ndarray:
    """Standard normal CDF of each value: ``scipy.special.ndtr``."""
    return _chunked(_ndtr, x)


def ndtri(p) -> np.ndarray:
    """Standard normal quantile of each value: ``scipy.special.ndtri``
    (-inf at 0, inf at 1, NaN outside [0, 1])."""
    return _chunked(_ndtri, p)
