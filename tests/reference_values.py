"""Reference values frozen from an independent high-precision oracle.

Every constant below was computed with mpmath at 50 decimal digits and
rounded to the nearest double. Regenerate with regenerate() if mpmath is
installed; the frozen copies keep the main test suite independent of it.

Theta conventions used by the oracle:

    theta3(s)      = jtheta(3, 0, exp(-pi s))
    theta4(s)      = jtheta(4, 0, exp(-pi s))
    theta_odd(s)   = jtheta(2, 0, exp(-4 pi s))
    Theta(z, i s)  = jtheta(3, pi z, exp(-pi s))

and s-derivatives by mpmath numeric differentiation at 50 digits.
theta_reference() recomputes any family and order at a given s from the
Gaussian sums themselves, with the derivatives in closed form.
"""

import math

THETA3_AT_1 = 1.0864348112133080
THETA4_AT_1 = 0.9135791381561168
THETA_ODD_AT_1 = 0.08642783652859560
THETA3_AT_2 = 1.0037348854877391
THETA4_AT_2 = 0.9962651145609071
THETA3_AT_HALF = 1.4194954880837661
THETA4_AT_HALF = 0.5879742828917121
THETA_ODD_AT_HALF = 0.4157606025960270
THETA4_AT_QUARTER = 0.17285567305719119
THETA3_AT_3_2 = 1.0179665950670831
THETA4_AT_3_2 = 0.9820334309825654
THETA_ODD_AT_3_2 = 0.017966582042258857
GENERAL_QUARTER_AT_1 = 0.9999930253152876

D_THETA3_AT_1 = -0.27160870280332700
D_THETA4_AT_1 = 0.27143340985729790
D_THETA_ODD_AT_1 = -0.27152105633031245
DD_THETA3_AT_1 = 0.8541099546721139
G_ODD_AT_1 = -3.1415926538954465  # theta_odd'(1) / theta_odd(1)

A_2_SQRT2 = 1.6692536833481464  # lower bound, n=2, beta=1/sqrt(2)
B_2_SQRT2 = 2.3606811980321925
A_2_1 = 1.1715565326079575
B_2_1 = 2.8495942823642426
A_3_SQRT3 = 2.8912321902804799
B_3_SQRT3 = 3.1068311775957251
A_4_HALF = 3.9701767139642297
B_4_HALF = 4.0299348813803388
A_1_1 = 6.681911775230489e-52  # analytically zero; oracle rounding dust
B_1_1 = 1.6692536833481464

COMB3_AT_1 = 1.1654010571620689  # theta3(1)^2 - 2 theta_odd(1)^2
COMB4_AT_1 = 0.8196872998200459  # theta4(1)^2 - 2 theta_odd(1)^2

SQRT2 = math.sqrt(2.0)

_REF_K = 12  # neglected terms sit below 1e-90 relative on both sides


def theta_reference(kind, s, order, z=None):
    """50-digit value of a family (or its s-derivative) at s, as an mpf.

    From s = 1/2 upward the direct series over k in [-K, K] is summed.
    Below it the dual (Poisson) form is used, where every family is a sum
    of Gaussians in k + z:

        Theta(z, is) = s^{-1/2} sum_k exp(-pi (k + z)^2 / s)

    with theta3 at z = 0, theta4 at z = 1/2 and theta_odd as the half
    difference of the two. Requires mpmath.
    """
    import mpmath as mp

    with mp.workdps(50):
        s = mp.mpf(s)
        k_range = range(-_REF_K, _REF_K + 1)
        if s >= mp.mpf(1) / 2:
            total = mp.mpf(0)
            for k in k_range:
                if kind == "theta_odd" and k % 2 == 0:
                    continue
                p = mp.pi * k * k
                t = (1, -p, p * p)[order] * mp.exp(-p * s)
                if kind == "theta4" and k % 2:
                    t = -t
                elif kind == "theta_general":
                    t *= mp.cos(2 * mp.pi * k * mp.mpf(z))
                total += t
            return total

        def dual(shift):
            total = mp.mpf(0)
            for k in k_range:
                a = mp.pi * (k + shift) ** 2
                g = mp.exp(-a / s) / mp.sqrt(s)
                h = a / s ** 2 - 1 / (2 * s)  # (log g)'
                total += (g, g * h,
                          g * (h * h + 1 / (2 * s ** 2) - 2 * a / s ** 3)
                          )[order]
            return total

        half = mp.mpf(1) / 2
        if kind == "theta3":
            return dual(0)
        if kind == "theta4":
            return dual(half)
        if kind == "theta_odd":
            return (dual(0) - dual(half)) / 2
        return dual(mp.mpf(z))


def regenerate():  # pragma: no cover - manual tool
    """Recompute everything above; returns {name: mpf} for diffing."""
    import mpmath as mp

    mp.mp.dps = 50

    def th3(s):
        return mp.jtheta(3, 0, mp.exp(-mp.pi * s))

    def th4(s):
        return mp.jtheta(4, 0, mp.exp(-mp.pi * s))

    def tho(s):
        return mp.jtheta(2, 0, mp.exp(-4 * mp.pi * s))

    def gen(z, s):
        return mp.jtheta(3, mp.pi * z, mp.exp(-mp.pi * s))

    def ab(n, beta):
        beta = mp.mpf(beta)
        return mp.mpf(n) ** 2 * beta ** 2 / 2, 1 / (2 * beta ** 2)

    def lower(n, beta):
        a, b = ab(n, beta)
        base = n * th4(a) * th4(b)
        return base if n % 2 == 0 else base - 2 * n * tho(a) * tho(b)

    def upper(n, beta):
        a, b = ab(n, beta)
        base = n * th3(a) * th3(b)
        return base if n % 2 == 0 else base - 2 * n * tho(a) * tho(b)

    half = mp.mpf(1) / 2
    return {
        "THETA3_AT_1": th3(1),
        "THETA4_AT_1": th4(1),
        "THETA_ODD_AT_1": tho(1),
        "THETA3_AT_2": th3(2),
        "THETA4_AT_2": th4(2),
        "THETA3_AT_HALF": th3(half),
        "THETA4_AT_HALF": th4(half),
        "THETA_ODD_AT_HALF": tho(half),
        "THETA4_AT_QUARTER": th4(half / 2),
        "THETA3_AT_3_2": th3(3 * half),
        "THETA4_AT_3_2": th4(3 * half),
        "THETA_ODD_AT_3_2": tho(3 * half),
        "GENERAL_QUARTER_AT_1": gen(half / 2, 1),
        "D_THETA3_AT_1": mp.diff(th3, 1),
        "D_THETA4_AT_1": mp.diff(th4, 1),
        "D_THETA_ODD_AT_1": mp.diff(tho, 1),
        "DD_THETA3_AT_1": mp.diff(th3, 1, 2),
        "G_ODD_AT_1": mp.diff(tho, 1) / tho(1),
        "A_2_SQRT2": lower(2, 1 / mp.sqrt(2)),
        "B_2_SQRT2": upper(2, 1 / mp.sqrt(2)),
        "A_2_1": lower(2, 1),
        "B_2_1": upper(2, 1),
        "A_3_SQRT3": lower(3, 1 / mp.sqrt(3)),
        "B_3_SQRT3": upper(3, 1 / mp.sqrt(3)),
        "A_4_HALF": lower(4, half),
        "B_4_HALF": upper(4, half),
        "A_1_1": lower(1, 1),
        "B_1_1": upper(1, 1),
        "COMB3_AT_1": th3(1) ** 2 - 2 * tho(1) ** 2,
        "COMB4_AT_1": th4(1) ** 2 - 2 * tho(1) ** 2,
    }
