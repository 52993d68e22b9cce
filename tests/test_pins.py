"""Bit pins of eval_theta, theta4_triple_product, sweep_beta,
frame_bounds, _frame_slopes, find_optimal_beta and run_all.

The mpmath containment tests accept any ball that contains the true
value, so a last-bit move in a midpoint or a radius passes them. These
pins fail on it: each float is pinned as its float.hex text, a table of
results as the SHA-256 of their lines, and run_all() as the SHA-256 of
its repr.
"""

import hashlib
import math

import pytest

from thetaframe import (THETA3, THETA4, THETA_ODD, GridSpec, LatticeParams,
                        eval_theta, find_optimal_beta, frame_bounds,
                        general_family, run_all, sweep_beta,
                        theta4_triple_product)
from thetaframe.frame import _frame_slopes
from thetaframe.theta import SMALL_S_CUTOFF

TOLS = (1e-12, 1e-16, 1e-60, 1e-280)
FAMILIES = {"theta3": THETA3, "theta4": THETA4, "theta_odd": THETA_ODD,
            "theta_general(0.3)": general_family(0.3),
            "theta_general(0.8125)": general_family(0.8125)}

# (family, tol) -> SHA-256 of one line per s and order 0-2: value and
# radius as float.hex, terms_used and method, of eval_theta on 97
# log-spaced s over [1e-6, 1e6], the cutoff and the float below it. The
# two z put P_z's shifts at an inexact and an exact 1 - z.
SERIES = {
    ("theta3", 1e-12): "60db6b3213e933703cf20ef025d676b4"
                       "c134b32c69a1c8214afd75ae13f989ba",
    ("theta3", 1e-16): "9af012159eed98f3c27eef2efe3adbc8"
                       "854acb53dd99cf4b388d4784c60c652d",
    ("theta3", 1e-60): "0fe9fb979bddc1dceafabdf9411d309e"
                       "fb1dcf798a3abfb13c408bbac2f1c39a",
    ("theta3", 1e-280): "704c40126e6d9869ecba4e55b4b93b86"
                        "fc08742bcc5c7b223082c5250a5a1478",
    ("theta4", 1e-12): "7d090153815c9a78b18963a67119af41"
                       "2337fb9163c6c054394e2994370c8a0d",
    ("theta4", 1e-16): "49acd9fb960d45bd618d8a1ae078684e"
                       "c726c102ec50df9009e4c4c698044d16",
    ("theta4", 1e-60): "ba87e6b1ef02839a1897ac73f51b1f20"
                       "6407a7cd33c3a75adc225edb978f8d34",
    ("theta4", 1e-280): "8a2a1226c137d1393502079655a7575b"
                        "ff0da82de7fe3d63d281c114aac775df",
    ("theta_odd", 1e-12): "dc696117b55778c90ed12a7c2620af28"
                          "cd594443621fa54d2d3271db722e1df3",
    ("theta_odd", 1e-16): "1f0829b5c6c9fb30d4e963646776c661"
                          "d7cdb12ecacb509a23658026802ffcde",
    ("theta_odd", 1e-60): "ba2c3ed072daaed0dd00b1cb0f24621e"
                          "02ad536760c5d17480bcc2f9e402be26",
    ("theta_odd", 1e-280): "41c327bda69dfd8ca5fbd9328a7f28a6"
                           "985dfc22404d5bd558cf65782a483bab",
    ("theta_general(0.3)", 1e-12): "6569cc6d4e93d749eddc612426c3fc4f"
                                   "196f5c75edf0aada2f417bfd9a1407da",
    ("theta_general(0.3)", 1e-16): "9520d5a564efe457b9ca27cb92b6b082"
                                   "6b468768840a154572633d18ca31089b",
    ("theta_general(0.3)", 1e-60): "a19b6aef5dcc24332612801a523164d5"
                                   "5b0cf7644cc04a163b3dca869e4783b4",
    ("theta_general(0.3)", 1e-280): "0c10b393158fe1338e8d87f00407b67d"
                                    "32de57dc909b577852ec0f7f507f676e",
    ("theta_general(0.8125)", 1e-12): "ac1305c44dbff8a2e8c03ede42698039"
                                      "480bb5760f6484c77983a4cf62dea24a",
    ("theta_general(0.8125)", 1e-16): "69016df62980602b8259113ed2cc8a50"
                                      "e2ab5c71951cf47a0483346eca478d0c",
    ("theta_general(0.8125)", 1e-60): "2a7823ad8f33fc6970c8289d8c92fc8a"
                                      "ef7a40cdf54b6abe1d5f6c78f2629a5d",
    ("theta_general(0.8125)", 1e-280): "cdb2052ec2c6de14c8c8aec5c81392dc"
                                       "07b1f08184a35e351adaccb1f27df588",
}

# tol -> SHA-256 of theta4_triple_product's lines, as SERIES's, on 61
# log-spaced s over [1e-3, 1e6]
PRODUCT = {
    1e-12: "a71490286880768f860b7513ca3544e8"
           "23f83654e352589dee583c4c86d531b6",
    1e-16: "0e9c6d74a85ef5b6906cfe9ffda5a6b1"
           "15a6b09ec53168c5d0edc66817ef5a20",
    1e-60: "e119cd0a299daa62261d77b63b9b5679"
           "b7d7615cb17396894108aff71d7a17f0",
    1e-280: "94190ae54a61bd517c07ecf675861597"
            "ffc378d11de4d73988f1454dfa6de262",
}

# n -> SHA-256 of one line per row, beta, A, B and B/A as float.hex, of
# sweep_beta at tol 1e-12 then 1e-16 on 97 log-spaced beta just inside
# the lattice domain of n
SWEEP = {
    1: "1a13488d7afa01c93792b12d7e99f4d1e382f797090d9d25f765a20fd0b0b1da",
    2: "0f790abf0d0b23557674bcd3f9f6fbcbbf485379b51a8f79e982be15806440d3",
    3: "323c4d3fe8a1b5d952298bbf168930b6c2aaf8301ff1f85c8a05b39b87173d15",
    4: "8b18ea909f3ff24befe5a3d8869a898ef36a295a3d0e6c537f5d5704e769901e",
    5: "1d1d62466edb449e2d7c12dd8752ecf21e9506df03b0a16dbf81459d073433e3",
    6: "54f4ae9b79b6ad96028518d0c9be58787241daace9fa8ff8f332674c73650972",
    7: "237874e6c21b769dbfe06473a19dace0d8aa21467f5d19940682340df7d538cc",
    8: "cc5c4e8b35a8de023ad9341ae534b575ff60059db2ba6e4a8d649be224c20bbf",
}

# (n, beta) -> (lower, upper, ratio, error_bound) of frame_bounds at the
# default tol, then (value, radius) of the (beta/2) dA/dbeta ball and of
# the (beta/2) dB/dbeta ball of _frame_slopes. beta runs near 1/sqrt(n)
# for n = 1-9 (a and b on the direct route), at both ends of the beta
# domain for n = 1, 2, 3, 6, 9 (one argument at the top of the theta
# domain, the other at the bottom, transformed), at a = 0.1 for n = 2, 5
# and 7 and at b = 0.1 for n = 4 and 8 (one argument transformed).
FRAME = {
    (1, 1.001): (
        ("-0x1.0000000000000p-54", "0x1.ab546a9c7ebcep+0", "inf",
         "0x1.1fb2973f0439bp-47"),
        ("-0x1.0000000000000p-53", "0x1.aef805374e112p-47",
         "0x1.9e52dead58500p-9", "0x1.291f7e11b27dep-46")),
    (2, 0.707813887967734): (
        ("0x1.ab53e49eb5c87p+0", "0x1.2e2af2aa3429bp+1",
         "0x1.6a0a57ecf50b5p+0", "0x1.f1e921bcf4dabp-49"),
        ("-0x1.3c80bdadabd40p-8", "0x1.5ac71105dc1c3p-48",
         "0x1.24f89a58d2880p-8", "0x1.97c98368c36eep-48")),
    (3, 0.5779276194588153): (
        ("0x1.7213c606d185cp+1", "0x1.8dacc4a1e8dbfp+1",
         "0x1.1317313494359p+0", "0x1.1c6c2e897cad0p-48"),
        ("-0x1.ebb961c0e6071p-9", "0x1.b1ba7480da0c5p-49",
         "0x1.f085446d613cfp-9", "0x1.c06b6248f9c8ap-49")),
    (4, 0.5005): (
        ("0x1.fc2eaf8235547p+1", "0x1.01ea7c4c7a09ap+2",
         "0x1.03da7f96ed2d3p+0", "0x1.0cbeba228a407p-48"),
        ("-0x1.040faeeca6bc0p-9", "0x1.3f4869b47223ap-50",
         "0x1.03b1a386c2e60p-9", "0x1.41aab2c8c4b22p-50")),
    (5, 0.44766080909545786): (
        ("0x1.3f80bb02d5d70p+2", "0x1.407f2bb4c7654p+2",
         "0x1.00cbde702fed0p+0", "0x1.93d2ab1120aa7p-48"),
        ("-0x1.b5fd0d50eb28ep-11", "0x1.d1b998abcbc0ep-52",
         "0x1.b61674e1ba10ap-11", "0x1.d271f50e27e71p-52")),
    (6, 0.40865653875432684): (
        ("0x1.7fe043e329236p+2", "0x1.801fbd6c794d0p+2",
         "0x1.002a5485c4cd0p+0", "0x1.8104ac80c36b6p-48"),
        ("-0x1.425d026c72990p-12", "0x1.3359e392c7349p-53",
         "0x1.4259d90738038p-12", "0x1.337341576c76ap-53")),
    (7, 0.37834243748223645): (
        ("0x1.bff84d60c0440p+2", "0x1.c007b28e53e03p+2",
         "0x1.0008cc40be369p+0", "0x1.182398659a5ddp-47"),
        ("-0x1.b0deba8a91585p-14", "0x1.7d70e7e1644d8p-55",
         "0x1.b0df78f8a8517p-14", "0x1.7d77721bb55dcp-55")),
    (8, 0.353906943983867): (
        ("0x1.fffe2bcd72c55p+2", "0x1.0000ea19b1956p+3",
         "0x1.0001d434a4591p+0", "0x1.0008f22efb494p-47"),
        ("-0x1.100237c2e45f0p-15", "0x1.c22f160e93c19p-57",
         "0x1.10022243c1a60p-15", "0x1.c230b0f9ab058p-57")),
    (9, 0.3336666666666666): (
        ("0x1.1fffc93f7aa48p+3", "0x1.200036c080283p+3",
         "0x1.00006156504bap+0", "0x1.680250520005fp-47"),
        ("-0x1.45247bb98e46ep-17", "0x1.001865501fca0p-58",
         "0x1.4524806d78c46p-17", "0x1.001895e07713bp-58")),
    (1, 0.001414213562373095): (
        ("0x0.0p+0", "0x1.f400000000000p+9", "inf", "0x1.388000000000cp-39"),
        ("0x0.0p+0", "0x0.000069c01f290p-1022", "-0x1.f3fffffffffffp+8",
         "0x1.7700000000015p-40")),
    (1, 707.1067811865476): (
        ("0x0.0p+0", "0x1.f400000000000p+9", "inf", "0x1.388000000000cp-39"),
        ("0x0.0p+0", "0x0.000069c01f290p-1022", "0x1.f3fffffffffffp+8",
         "0x1.7700000000015p-40")),
    (2, 0.0007071067811865475): (
        ("0x0.0p+0", "0x1.f400000000000p+10", "inf", "0x1.1940000000008p-38"),
        ("0x0.0p+0", "0x0.0000695482148p-1022", "-0x1.f3fffffffffffp+9",
         "0x1.57c0000000010p-39")),
    (2, 707.1067811865474): (
        ("0x0.0p+0", "0x1.f400000000000p+10", "inf", "0x1.1940000000008p-38"),
        ("0x0.0p+0", "0x0.0000695482148p-1022", "0x1.f3fffffffffffp+9",
         "0x1.57c0000000011p-39")),
    (3, 0.0007071067811865475): (
        ("0x0.0p+0", "0x1.f400000000001p+10", "inf", "0x1.388000000000dp-38"),
        ("0x0.0p+0", "0x0.0001d77f1da19p-1022", "-0x1.f400000000001p+9",
         "0x1.7700000000017p-39")),
    (3, 471.40452079103164): (
        ("0x0.0p+0", "0x1.f3ffffffffffep+10", "inf", "0x1.388000000000cp-38"),
        ("0x0.0p+0", "0x0.0001d77f1da19p-1022", "0x1.f3ffffffffffep+9",
         "0x1.7700000000015p-39")),
    (6, 0.0007071067811865475): (
        ("0x0.0p+0", "0x1.f400000000001p+10", "inf", "0x1.1940000000009p-38"),
        ("0x0.0p+0", "0x0.00000bb40ec58p-1022", "-0x1.f400000000001p+9",
         "0x1.57c0000000012p-39")),
    (6, 235.70226039551582): (
        ("0x0.0p+0", "0x1.f3ffffffffffep+10", "inf", "0x1.1940000000007p-38"),
        ("0x0.0p+0", "0x0.00000bb40ec58p-1022", "0x1.f3ffffffffffep+9",
         "0x1.57c0000000010p-39")),
    (9, 0.0007071067811865475): (
        ("0x0.0p+0", "0x1.f3fffffffffffp+10", "inf", "0x1.388000000000bp-38"),
        ("0x0.0p+0", "0x0.0001ade2791c5p-1022", "-0x1.f3fffffffffffp+9",
         "0x1.7700000000016p-39")),
    (9, 157.1348402636772): (
        ("0x0.0p+0", "0x1.f3fffffffffffp+10", "inf", "0x1.388000000000bp-38"),
        ("0x0.0p+0", "0x0.0001ade2791c5p-1022", "0x1.f3fffffffffffp+9",
         "0x1.7700000000016p-39")),
    (2, 0.22360679774997896): (
        ("0x1.41cf43f9f9208p-8", "0x1.94c583ada5ddap+2",
         "0x1.41ff0e4ee19e7p+10", "0x1.c75e34235c0a4p-47"),
        ("0x1.27d2a0b1934d2p-5", "0x1.9dab0bea34ad4p-52",
         "-0x1.94c583ad9bf15p+1", "0x1.1647ca878ff1cp-47")),
    (5, 0.08944271909999159): (
        ("0x1.924314f8777cbp-7", "0x1.f9f6e4990f3bcp+3",
         "0x1.41ff0e4ee17e5p+10", "0x1.3c3a4edfa9f92p-45"),
        ("0x1.71c748ddf881cp-4", "0x1.08520495d8446p-50",
         "-0x1.f9f6e49909080p+2", "0x1.7b792b72e508dp-46")),
    (7, 0.06388765649999399): (
        ("0x1.19955b7aba0a8p-6", "0x1.622cd337f1103p+4",
         "0x1.41ff0e4ee17e4p+10", "0x1.bab80805edf66p-45"),
        ("0x1.02d84c9b6127ap-3", "0x1.720c6cd1c85fcp-50",
         "-0x1.622cd337ecb8dp+3", "0x1.09a19e6a06b96p-45")),
    (4, 2.23606797749979): (
        ("0x1.41cf43f9f9301p-7", "0x1.94c583ada5c98p+3",
         "0x1.41ff0e4ee17eep+10", "0x1.c75e34235b3b9p-46"),
        ("-0x1.27d2a0b1939a8p-4", "0x1.9dab0bea33cf7p-51",
         "0x1.94c583ada0d34p+2", "0x1.1647ca8776c66p-46")),
    (8, 2.23606797749979): (
        ("0x1.41cf43f9f9301p-6", "0x1.94c583ada5c98p+4",
         "0x1.41ff0e4ee17eep+10", "0x1.c75e34235b3b9p-45"),
        ("-0x1.27d2a0b1939a8p-3", "0x1.9dab0bea33cf7p-50",
         "0x1.94c583ada0d34p+3", "0x1.1647ca8776c66p-45")),
}

# n -> (beta_for_max_A, max_A, beta_for_min_B, min_B, bracket_width,
# error_bound) of find_optimal_beta(n, (0.3, 1.5), 1e-10)
OPTIMA = {
    2: ("0x1.6a09e66794256p-1", "0x1.ab54359ab5344p+0", "0x1.6a09e66794256p-1",
        "0x1.2e2acd2eea498p+1", "0x1.7e8d600000000p-34",
        "0x1.f1e8990c61d3ep-49"),
    3: ("0x1.279a7458d8676p-1", "0x1.7213e57b32d49p+1", "0x1.279a7458d8676p-1",
        "0x1.8daca4defbc06p+1", "0x1.001a000000000p-34",
        "0x1.1c6b934029f44p-48"),
    4: ("0x1.000000002a4aep-1", "0x1.fc2ec024e8972p+1", "0x1.000000002a4aep-1",
        "0x1.01ea73fe2271dp+2", "0x1.9411300000000p-34",
        "0x1.0cbe8c192e930p-48"),
    5: ("0x1.c9f25c5b5dbb6p-2", "0x1.3f80be8361544p+2", "0x1.c9f25c5b5dbb6p-2",
        "0x1.407f283407e72p+2", "0x1.45fb400000000p-34",
        "0x1.93d293f3a4bacp-48"),
    6: ("0x1.a20bd70144ebcp-2", "0x1.7fe0452d174a7p+2", "0x1.a20bd70144ebcp-2",
        "0x1.801fbc228e625p+2", "0x1.04d3d00000000p-34",
        "0x1.8104a348e7ccap-48"),
    7: ("0x1.83091e6b13329p-2", "0x1.bff84dcf8204ep+2", "0x1.83091e6b13329p-2",
        "0x1.c007b21f91ee7p+2", "0x1.286e000000000p-34",
        "0x1.1823969fa2083p-47"),
    8: ("0x1.6a09e6687c3f7p-2", "0x1.fffe2bf03f357p+2", "0x1.6a09e6687c3f7p-2",
        "0x1.0000ea084b5ebp+3", "0x1.1105f00000000p-34",
        "0x1.0008f196e9dd8p-47"),
}

RUN_ALL_SHA256 = ("c64b16aad586be83393393ca80f889ed"
                  "8dbc2a5490c2c58df4d2505588f32b28")


def _hex(*xs):
    return tuple(map(float.hex, xs))


@pytest.mark.parametrize("n,beta", list(FRAME))
def test_frame_bits(n, beta):
    fb = frame_bounds(LatticeParams(n, beta))
    (sa, ra), (sb, rb) = _frame_slopes(n, beta)
    assert (_hex(fb.lower, fb.upper, fb.ratio, fb.error_bound),
            _hex(sa, ra, sb, rb)) == FRAME[n, beta]


@pytest.mark.parametrize("n", list(OPTIMA))
def test_optimum_bits(n):
    rep = find_optimal_beta(n, (0.3, 1.5), 1e-10)
    assert _hex(rep.beta_for_max_A, rep.max_A, rep.beta_for_min_B,
                rep.min_B, rep.bracket_width, rep.error_bound) == OPTIMA[n]
    beta, width = (float.fromhex(OPTIMA[n][i]) for i in (0, 4))
    assert abs(beta - 1 / math.sqrt(n)) <= width <= 1e-10


def test_run_all_bits():
    digest = hashlib.sha256(repr(run_all()).encode()).hexdigest()
    assert digest == RUN_ALL_SHA256


def _log_spaced(lo, hi, count):
    a, b = math.log10(lo), math.log10(hi)
    return [10.0 ** (a + (b - a) * j / (count - 1)) for j in range(count)]


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _line(tv):
    return (f"{tv.value.hex()} {tv.error_bound.hex()} {tv.terms_used} "
            f"{tv.method.value}")


@pytest.mark.parametrize("kind,tol", list(SERIES))
def test_series_bits(kind, tol):
    fam = FAMILIES[kind]
    s_grid = _log_spaced(1e-6, 1e6, 97) + [
        SMALL_S_CUTOFF, math.nextafter(SMALL_S_CUTOFF, 0.0)]
    assert _digest(_line(eval_theta(fam, s, order, tol))
                   for s in s_grid for order in (0, 1, 2)) == SERIES[kind, tol]


@pytest.mark.parametrize("tol", list(PRODUCT))
def test_product_bits(tol):
    assert _digest(_line(theta4_triple_product(s, tol))
                   for s in _log_spaced(1e-3, 1e6, 61)) == PRODUCT[tol]


@pytest.mark.parametrize("n", list(SWEEP))
def test_sweep_bits(n):
    lo = max(math.sqrt(2e-6) / n, math.sqrt(5e-7)) * 1.000001
    hi = min(math.sqrt(2e6) / n, math.sqrt(5e5)) / 1.000001
    grid = GridSpec(lo, hi, 97, "log")
    assert _digest(" ".join(_hex(r.beta, r.lower, r.upper, r.ratio))
                   for tol in (1e-12, 1e-16)
                   for r in sweep_beta(n, grid, tol)) == SWEEP[n]
