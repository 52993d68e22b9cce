"""Seeded CLI fuzz: random and extreme arguments for every subcommand.

Each case calls cli.main in-process, so no subprocess starts. Whatever
the arguments, main must return an exit code of 0-3 and let no exception
escape: bad input is a usage error (2) or a domain error (1), never a
traceback. Output files go under tmp_path, which is also the working
directory, and verify runs only the cheap odd-log-ratio suite.
"""

import math
import random

import pytest

from thetaframe.cli import main
from thetaframe.theta import FAMILIES

# floats and ints at and beyond every edge, plus strings that are neither
EXTREMES = ("nan", "inf", "-inf", "0", "-1", "5e-324", "1e-200", "1e-170",
            "1e308", "9" * 30, "-" + "9" * 30, "x", "", "1e", "0x10")
CASES_PER_SEED = 300


def _pick(rng, typical):
    """A typical value as a string, or an extreme one a quarter of the
    time: most cases then get past the parser to the library."""
    return rng.choice(EXTREMES) if rng.random() < 0.25 else str(typical)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _argv(rng, tmp_path):
    sub = rng.choice(("eval", "bounds", "sweep", "verify", "oracle"))
    opts = {}
    if sub == "eval":
        opts["--family"] = rng.choice(FAMILIES + ("theta9",))
        opts["--s"] = _pick(rng, _log_uniform(rng, 1e-7, 1e7))
        general = opts["--family"] == "theta_general"
        if rng.random() < (0.9 if general else 0.1):
            opts["--z"] = _pick(rng, rng.uniform(-1.0, 2.0))
        if rng.random() < 0.5:
            opts["--order"] = _pick(rng, rng.randint(0, 2))
    elif sub in ("bounds", "sweep", "oracle"):
        opts["--n"] = _pick(rng, rng.randint(1, 9))
    if sub in ("bounds", "oracle"):
        opts["--beta"] = _pick(rng, _log_uniform(rng, 1e-4, 1e4))
    if sub == "sweep":
        opts["--beta-min"] = _pick(rng, _log_uniform(rng, 1e-4, 1.0))
        opts["--beta-max"] = _pick(rng, _log_uniform(rng, 1.0, 1e4))
        opts["--steps"] = _pick(rng, rng.choice((2, 3, 5, 9)))
        opts["--out"] = str(tmp_path / rng.choice(("a.csv", "no/b.csv", "")))
        if rng.random() < 0.3:
            opts["--svg"] = str(tmp_path / rng.choice(("a.svg", "no/b.svg")))
        if rng.random() < 0.3:
            opts["--column"] = rng.choice(("A", "B", "ratio", "C"))
    if sub == "verify":
        opts["--suite"] = rng.choice(("odd-log-ratio", "bogus", ""))
    if sub == "oracle" and rng.random() < 0.7:
        opts["--grid"] = _pick(rng, rng.choice((8, 16, 7, 4097)))
    if sub != "sweep" and rng.random() < 0.3:
        opts["--format"] = rng.choice(("human", "json", "xml"))
    # a flag missing; verify without --suite would run every suite
    if sub != "verify" and rng.random() < 0.1:
        del opts[rng.choice(list(opts))]
    argv = [sub]
    for flag, value in opts.items():
        argv += [flag, value]
    if sub == "sweep" and rng.random() < 0.3:
        argv.append("--log")
    if rng.random() < 0.05:
        argv.append(rng.choice(("--bogus", "--help", "extra")))
    return argv


@pytest.mark.parametrize("seed", [1, 2])
def test_every_argv_exits_cleanly(seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        argv = _argv(rng, tmp_path)
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{argv!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if code == 1:
            assert err.startswith("error:"), argv
