import argparse
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from zndisc import __version__
from zndisc.analysis import FOURIER_CHECKS
from zndisc.cli import (
    EXIT_INVARIANT,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_USAGE,
    _json_text,
    build_parser,
    main,
)
from zndisc.number_theory import make_context


def run(args):
    return main(args)


def test_exact_prints_value(capsys):
    assert run(["exact", "--n", "3", "--format", "text"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"


def test_exact_limit_exit_code(capsys):
    assert run(["exact", "--n", "40"]) == EXIT_LIMIT


def test_usage_errors():
    assert run(["exact"]) == EXIT_USAGE  # missing --n
    assert run(["bounds"]) == EXIT_USAGE  # missing --n/--range
    assert run(["nonsense"]) == EXIT_USAGE


def test_bounds_table_json(tmp_path):
    out = tmp_path / "bounds.json"
    assert run(["bounds", "--range", "8..12", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"meta", "inputs", "results"}
    assert payload["meta"]["version"]
    rows = {r["n"]: r for r in payload["results"]}
    assert rows[12]["upper_main"] == pytest.approx(7.0)
    assert rows[12]["upper_r"] == 4
    assert rows[8]["lower_prime_power"] == pytest.approx(0.5)
    assert rows[10]["lower_prime_power"] is None


def test_bounds_rejects_nonpositive_n(capsys):
    assert run(["bounds", "--range", "0..3"]) == EXIT_USAGE
    assert "n must be positive, got n=0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bounds", "sweep"])
def test_n_with_range_rejected(command, tmp_path, capsys):
    # both flags given: the range used to win and --n was dropped silently
    out = tmp_path / "out.json"
    assert run([command, "--n", "7", "--range", "2..9", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--n" in err and "--range" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["construct", "exact", "herdisc", "fourier-check"])
@pytest.mark.parametrize("n", [None, "7"])
def test_single_n_commands_reject_range(command, n, tmp_path, capsys):
    # these take one n; `construct --n 7 --range 1..9` used to exit 0 and ignore the range
    out = tmp_path / "out.json"
    args = [command] + ([] if n is None else ["--n", n]) + ["--range", "1..9", "--out", str(out)]
    assert run(args) == EXIT_USAGE
    assert "--range" in capsys.readouterr().err
    assert not out.exists()


def test_inverted_range_rejected(tmp_path, capsys):
    # an empty range used to exit 0 with an empty table
    for command in ("bounds", "sweep"):
        for text in ("5..4", "5..2"):
            out = tmp_path / f"{command}.csv"
            assert run([command, "--range", text, "--format", "csv",
                        "--out", str(out)]) == EXIT_USAGE
            assert "--range" in capsys.readouterr().err
            assert not out.exists()
    assert run(["bounds", "--range", "5..5", "--format", "csv",
                "--out", str(tmp_path / "one.csv")]) == EXIT_OK


def test_construct_json_and_invariant(tmp_path):
    out = tmp_path / "c12.json"
    assert run(["construct", "--n", "12", "--seed", "5", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    res = payload["results"][0]
    assert len(res["coloring"]) == 12
    assert set(res["coloring"]) <= {-1, 1}
    assert res["r_star"] == 4
    assert res["base_congruence_max"] <= 1
    assert res["measure"]["T"] == res["measured_t"]
    assert payload["meta"]["config"]["seed"] == 5


def test_construct_csv_one_value_per_line(tmp_path):
    out = tmp_path / "c9.csv"
    assert run(["construct", "--n", "9", "--seed", "1", "--format", "csv",
                "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 9
    assert all(line in ("1", "-1") for line in lines)


def test_byte_identical_reruns(tmp_path):
    pairs = [
        (["bounds", "--range", "2..20"], "b"),
        (["construct", "--n", "36", "--seed", "7"], "c"),
        (["exact", "--n", "8", "--method", "exhaustive"], "e"),
        (["herdisc", "--n", "6"], "h"),
        (["fourier-check", "--n", "8", "--trials", "2", "--seed", "3"], "f"),
        (["sweep", "--range", "2..12", "--seed", "1"], "s"),
    ]
    for args, tag in pairs:
        p1 = tmp_path / f"{tag}1.json"
        p2 = tmp_path / f"{tag}2.json"
        assert run(args + ["--out", str(p1)]) == EXIT_OK
        assert run(args + ["--out", str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")
        assert b"\r" not in p1.read_bytes()


def test_parser_built_once_and_reused(tmp_path, capsys):
    # one parser serves every call in a process; a run of subcommands, a usage
    # error and --version among them, gives the exit codes, output and
    # artifacts that a fresh parser per call gives
    import zndisc.cli as cli

    calls = [  # (argv, exit code, writes --out)
        (["construct", "--n", "36", "--seed", "7"], EXIT_OK, True),
        (["exact", "--n", "40"], EXIT_LIMIT, True),
        (["bounds", "--range", "2..9", "--format", "csv"], EXIT_OK, True),
        (["nonsense"], EXIT_USAGE, False),
        (["--version"], EXIT_OK, False),
        (["construct", "--n", "20", "--format", "text"], EXIT_OK, True),
        (["exact"], EXIT_USAGE, False),
        (["fourier-check", "--n", "8", "--trials", "2", "--seed", "3"], EXIT_OK, True),
        (["herdisc", "--n", "5", "--format", "text"], EXIT_OK, True),
    ]

    def session(tag, fresh):
        cli.build_parser.cache_clear()
        got = []
        for i, (args, expect, writes) in enumerate(calls):
            if fresh:
                cli.build_parser.cache_clear()
            out = tmp_path / f"{tag}{i}"
            assert main(args + ["--out", str(out)] if writes else args) == expect
            streams = capsys.readouterr()
            got.append((streams.out, streams.err, out.read_bytes() if out.exists() else None))
        return got

    fresh = session("fresh", True)
    reused = session("reused", False)
    assert cli.build_parser.cache_info().misses == 1
    assert reused == fresh
    assert fresh[4][0].strip() == __version__
    assert all(art for (_, expect, writes), (_, _, art) in zip(calls, fresh)
               if writes and expect == EXIT_OK)


def test_env_seed_fallback(tmp_path, monkeypatch, capsys):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    monkeypatch.setenv("ZNDISC_SEED", "21")
    assert run(["construct", "--n", "20", "--out", str(out1)]) == EXIT_OK
    monkeypatch.delenv("ZNDISC_SEED")
    assert run(["construct", "--n", "20", "--seed", "21", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    # a negative seed is refused under the name it came by
    monkeypatch.setenv("ZNDISC_SEED", "-1")
    for args in (["construct", "--n", "2"], ["fourier-check", "--n", "8"]):
        assert run(args) == EXIT_USAGE
        assert "ZNDISC_SEED" in capsys.readouterr().err


def test_fourier_check_passes(capsys):
    assert run(["fourier-check", "--n", "12", "--trials", "3",
                "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "subgroup_plancherel" in out
    assert "mobius_identity" in out


def test_fourier_check_rows_are_the_library_checks(tmp_path):
    # one row per check fourier_checks evaluates, subgroup Plancherel included
    out = tmp_path / "fourier.json"
    assert run(["fourier-check", "--n", "12", "--trials", "2", "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())["results"]
    assert [r["identity"] for r in rows] == sorted(FOURIER_CHECKS)
    assert rows[-1]["identity"] == "subgroup_plancherel"
    assert rows[-1]["checks"] == 4 * len(make_context(12).divisors)


def test_fourier_check_takes_pass_sized_stacks(monkeypatch):
    # the check grids stay bounded in --trials: each stack goes _PASS_ROWS rows
    # a call, every row of both stacks once
    import zndisc.cli as cli
    from zndisc.analysis import _PASS_ROWS, fourier_checks

    rows = []

    def spy(f):
        rows.append(len(f))
        return fourier_checks(f)

    monkeypatch.setattr(cli, "fourier_checks", spy)
    trials = 2 * _PASS_ROWS + 3
    assert run(["fourier-check", "--n", "12", "--trials", str(trials)]) == EXIT_OK
    assert max(rows) == _PASS_ROWS
    assert sum(rows) == 2 * trials


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_fourier_check_rejects_no_trials(trials, capsys):
    # zero functions would be zero checks, reported as a pass
    assert run(["fourier-check", "--n", "8", "--trials", trials]) == EXIT_USAGE
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("args, name", [
    (["construct", "--n", "64", "--c-hat", "nan"], "c_hat"),
    (["construct", "--n", "64", "--c-hat", "inf"], "c_hat"),
    (["construct", "--n", "64", "--kappa", "nan"], "kappa"),
    (["construct", "--n", "64", "--kappa", "inf"], "kappa"),
    (["construct", "--n", "64", "--budget", "0"], "budget"),
    (["construct", "--n", "64", "--budget", "-3"], "budget"),
    # r* = 1 or 2 colors its base without an engine request
    (["construct", "--n", "2", "--kappa", "inf"], "kappa"),
    (["construct", "--n", "3", "--budget", "0"], "budget"),
    (["sweep", "--range", "2..4", "--kappa", "nan"], "kappa"),
    (["bounds", "--n", "12", "--c-hat", "nan"], "c_hat"),
    # numpy refused a negative seed at n = 64 in words that named no flag
    (["construct", "--n", "2", "--seed", "-1"], "--seed"),
    (["construct", "--n", "64", "--seed", "-1"], "--seed"),
])
def test_rejects_bad_engine_parameters(args, name, capsys):
    # nan and inf passed every check before: c_hat = inf picked r* = 1, kappa = nan
    # left the walk unconstrained, kappa = inf wrote Infinity into the JSON, and a
    # budget below 1 still ran one restart
    assert run(args) == EXIT_USAGE
    assert name in capsys.readouterr().err


def test_python_m_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "zndisc", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "fourier-check" in proc.stdout


def test_sweep_primes_fit(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--range", "2..40", "--primes-only", "--seed", "2",
                "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert all(r["n"] in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
               for r in payload["results"])
    assert payload["fit"]["points"] == len(payload["results"])


def test_herdisc_prints_value(capsys):
    assert run(["herdisc", "--n", "4", "--format", "text"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"


def test_construct_search_failure_exit_code(monkeypatch):
    import zndisc.cli as cli
    from zndisc.engine import SearchFailed

    def boom(*args, **kwargs):
        raise SearchFailed("synthetic", restarts=64, cell=3)

    monkeypatch.setattr(cli, "construct_best_coloring", boom)
    assert run(["construct", "--n", "12"]) == 3


@pytest.mark.parametrize("command", [
    ["construct", "--n", "999983"],
    ["sweep", "--range", "999983..999983", "--primes-only"],
])
def test_engine_table_limit_exit_code(command, capsys):
    # refused from the closed-form table size, before anything is allocated
    assert run(command) == EXIT_LIMIT
    assert "limit" in capsys.readouterr().err


def test_construct_invariant_breach_exit_code(monkeypatch, tmp_path, capsys):
    # both write their artifact and name each breaching n; sweep used to exit 0
    import zndisc.cli as cli
    from zndisc.constructions import ConstructionReport
    from zndisc.ap_system import Coloring

    def fake(ctx, **kwargs):
        rep = ConstructionReport(n=ctx.n, r_star=1, predicted=1.0, measured_t=1,
                                 measure={"T": 1}, base_congruence_max=2, c_hat=1.0,
                                 kappa=1.0, seed=0)
        return Coloring(ctx.n, [1] * ctx.n), rep

    monkeypatch.setattr(cli, "construct_best_coloring", fake)
    for args, ns in ((["construct", "--n", "4"], [4]), (["sweep", "--range", "2..4"], [2, 3, 4])):
        out = tmp_path / f"{args[0]}.json"
        assert run(args + ["--out", str(out)]) == EXIT_INVARIANT
        rows = json.loads(out.read_text())["results"]
        assert [(r["n"], r["base_congruence_max"]) for r in rows] == [(n, 2) for n in ns]
        err = capsys.readouterr().err
        assert all(f"invariant breach at n={n}" in err for n in ns)


# sha256 of json.dumps(payload["results"], sort_keys=True); meta is left out
# because it carries the configuration, not the computed results.
GOLDEN_RESULTS = [
    (["construct", "--n", "360", "--seed", "7"],
     "f330d717f6ccede652143fe2a5b481db4c2cebf2bb188337c85585e2009dc23c"),
    # a prime cell whose engine request binds 1 628 160 (point, block) pairs
    (["construct", "--n", "1061", "--seed", "1"],
     "76d5507db1c0c8abc836e68a18e618884f087d4d1fc13b5e0d2fab7c7617f735"),
    # a prime cell whose walk table has 64 000 finest-scale ids, so the walk's
    # runs are sized by the ids, not by _RUN_CELLS
    (["construct", "--n", "4001", "--seed", "1"],
     "b5f61f4d9f35365e93786375344de8dcbb8aa7bea883fc35bc94f1f0f689803b"),
    (["exact", "--n", "12"],
     "c9561459a310c32dba774ec78993794d6df5ceaff584158e1c107b88d3e62bfb"),
    (["herdisc", "--n", "7"],
     "642134280f2e7d56e62f4307cc4a9633b279c842492eebda3e8506a6504ac3bc"),
    # the benchmark's analysis-suite input, and a second n, seed and trial count
    (["fourier-check", "--n", "48", "--trials", "2", "--seed", "1"],
     "123ccbd947c200611031d222fb5fb7cdf5a0e6f1fd7333857bdeda90eb2679ff"),
    (["fourier-check", "--n", "30", "--trials", "3", "--seed", "5"],
     "2bcca9edcad4e6bc507378f0b6c8d3ee5854c9630198d9d525bbb80ac3eb1deb"),
    # many test functions per run: the batched checks take them 16 rows a pass
    (["fourier-check", "--n", "48", "--trials", "20", "--seed", "1"],
     "fe10655d948fdbc44e9baa20aa5d7705e659d192785338bc4e42710ded006052"),
    # edge layouts of the window pass: no steps (n = 1), only L = 2 (n = 2), a
    # prime (one gcd class) and a prime power (classes L = 27, 9 and 3)
    (["fourier-check", "--n", "1", "--trials", "2", "--seed", "0"],
     "74bcd39c551dc88a7df23b818bbc6f364859ff3c35d89225ad6d49e885fc2766"),
    (["fourier-check", "--n", "2", "--trials", "5", "--seed", "0"],
     "7e026ac0995d8e80454773a63f24e7a07d12b0d01cec2b8e0d4eff704da57195"),
    (["fourier-check", "--n", "27", "--trials", "3", "--seed", "2"],
     "a9779e1962526a1e4b460c1f250e971c8fbb7d9e1192616e1cc645b43afcb7cf"),
    (["fourier-check", "--n", "31", "--trials", "3", "--seed", "4"],
     "f2e7f772db71213785a191845ce7358cf638c2529f6fe7218c4f4b72d49a5b76"),
    # a lifted coloring (r* = 512), measured on the periodic scan
    (["construct", "--n", "16384", "--seed", "1"],
     "b39d109e1528e296684c33f96bc109ce2a8055747ad4a265fa5ce7bf24501714"),
    # lifts from r* = 144 (15 gcd classes of Z_144) and r* = 343 (4 classes):
    # the periodic scan's many-class route
    (["construct", "--n", "4032", "--seed", "1"],
     "5c6b02ab59eaea405a772a353ee8ce294c56aed91647e2d60bddabdd27ff9b25"),
    (["construct", "--n", "4116", "--seed", "1"],
     "52741176552ceae5f582dddcba74d036aa83403785e980d232bd6aa3f1bec046"),
    # None entries and floats; a sweep whose rows feed a fit
    (["bounds", "--range", "1..30"],
     "fc076d44af6a6a2f81304f436bfd11139e1f78f81c6f6c421a3be11b73f45aba"),
    (["sweep", "--range", "60..90", "--seed", "1"],
     "9b1b66643d087f2fc4c1e5a1451eb56a9dded383178a179f9365f4f23f753f52"),
]


@pytest.mark.parametrize("args,digest", GOLDEN_RESULTS,
                         ids=["construct", "construct-engine", "construct-engine-4001",
                              "exact", "herdisc",
                              "fourier-48", "fourier-30", "fourier-48-many", "fourier-1",
                              "fourier-2", "fourier-27", "fourier-31", "construct-lifted",
                              "construct-lifted-4032", "construct-lifted-4116",
                              "bounds", "sweep"])
def test_golden_results(tmp_path, args, digest):
    out = tmp_path / "out.json"
    assert run(args + ["--out", str(out)]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    got = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert got == digest


# the whole artifact, not its parsed results: each JSON artifact is the stdlib's
# sorted, two-space dump of its own payload plus LF, so a change to indent,
# separators, key order or number text fails here even when GOLDEN_RESULTS passes
@pytest.mark.parametrize("args", [
    ["construct", "--n", "360", "--seed", "7"],
    ["construct", "--n", "16384", "--seed", "1"],
    ["exact", "--n", "12"],  # carries the optimal coloring
    ["herdisc", "--n", "7"],
    ["bounds", "--range", "1..30"],  # None entries and floats
    ["sweep", "--range", "60..90", "--seed", "1"],
    ["fourier-check", "--n", "24", "--trials", "2", "--seed", "1"],
], ids=["construct", "construct-lifted", "exact", "herdisc", "bounds", "sweep",
        "fourier-check"])
def test_json_artifact_byte_layout(tmp_path, capsys, args):
    out = tmp_path / "out.json"
    assert run(args + ["--out", str(out)]) == EXIT_OK
    data = out.read_bytes()
    assert data == (json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n").encode()
    capsys.readouterr()
    assert run(args + ["--format", "json"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == data


# sha256 of the full artifact of `construct --n 360 --seed 7` in each format
# that writes the coloring without JSON
CONSTRUCT_360_DIGESTS = {
    "text": "a3838d868ee2ec9f5017f5103a7d0236d6dd5097a6a7f65cf0e2ca14ed62571f",
    "csv": "7c784e5b55b7d2c719e57a8b3b20adc3e88f18d063bdb3d7d095a4b498a18f56",
}


@pytest.mark.parametrize("fmt", sorted(CONSTRUCT_360_DIGESTS))
def test_construct_text_and_csv_digests(tmp_path, capsys, fmt):
    args = ["construct", "--n", "360", "--seed", "7", "--format", fmt]
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTRUCT_360_DIGESTS[fmt]
    capsys.readouterr()
    assert run(args) == EXIT_OK
    assert capsys.readouterr().out.encode() == out.read_bytes()


# sha256 of the full csv and text artifacts of the three table commands; the
# sweep range writes a fit line in both formats
TABLE_ARGS = {
    "bounds": ["bounds", "--range", "1..30"],
    "sweep": ["sweep", "--range", "60..90", "--seed", "1"],
    "fourier-check": ["fourier-check", "--n", "24", "--trials", "2", "--seed", "1"],
}
TABLE_DIGESTS = {
    ("bounds", "csv"): "238483fb4ae2394dc9227e7df426d30acac1024d3709b3b06b19dc64ce39d0d5",
    ("bounds", "text"): "16492b4ccdf3b229e2ed0fe79a70271e147c095e9e707641fdd64e78932793ef",
    ("sweep", "csv"): "29a6be25173744848dbe4076160f1c5254b53b63ef6dd7216cbee92694328d33",
    ("sweep", "text"): "0a721650b57e326851a6cd5cdb193c5402ad3a08dc744c7e2c6fbfbb0621967f",
    ("fourier-check", "csv"): "f9695b06999a12c5cb897b53773df10a10cc70302db96d48d65a7dca6c7466f1",
    ("fourier-check", "text"): "de578b44dc38c823433f5c6ab24e1c9d52a1d717097fe50b0b679b5d9a57cc9c",
}


@pytest.mark.parametrize("command,fmt", sorted(TABLE_DIGESTS))
def test_table_text_and_csv_digests(tmp_path, capsys, command, fmt):
    args = TABLE_ARGS[command] + ["--format", fmt]
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_DIGESTS[command, fmt]
    capsys.readouterr()
    assert run(args) == EXIT_OK
    assert capsys.readouterr().out.encode() == out.read_bytes()


# every option each subcommand takes; each one is read by the subcommand
SUBCOMMAND_FLAGS = {
    "bounds": {"--n", "--range", "--c-hat", "--format", "--out"},
    "construct": {"--n", "--seed", "--c-hat", "--kappa", "--budget", "--format", "--out"},
    "exact": {"--n", "--method", "--format", "--out"},
    "herdisc": {"--n", "--format", "--out"},
    "fourier-check": {"--n", "--seed", "--trials", "--format", "--out"},
    "sweep": {"--n", "--range", "--seed", "--c-hat", "--kappa", "--budget", "--primes-only",
              "--format", "--out"},
}


def test_subcommand_flags():
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    flags = {name: {opt for action in p._actions for opt in action.option_strings}
             - {"-h", "--help"} for name, p in sub.choices.items()}
    assert flags == SUBCOMMAND_FLAGS


@pytest.mark.parametrize("args", [
    ["exact", "--n", "5", "--kappa", "inf"],
    ["herdisc", "--n", "5", "--seed", "1"],
    ["fourier-check", "--n", "8", "--c-hat", "nan"],
    ["bounds", "--n", "5", "--budget", "-7"],
    ["construct", "--n", "5", "--method", "exhaustive"],
    ["sweep", "--range", "2..4", "--method", "exhaustive"],
], ids=lambda args: args[0] + args[3])
def test_unread_flags_rejected(tmp_path, capsys, args):
    # these were accepted, unread, and written into meta.config (kappa=inf as Infinity)
    out = tmp_path / "out.json"
    assert run(args + ["--out", str(out)]) == EXIT_USAGE
    assert args[3] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [1, 1061, 4096])
def test_sweep_row_is_the_construct_report(tmp_path, n):
    # one construction report feeds both commands
    c_out, s_out = tmp_path / "c.json", tmp_path / "s.json"
    assert run(["construct", "--n", str(n), "--seed", "3", "--out", str(c_out)]) == EXIT_OK
    assert run(["sweep", "--n", str(n), "--seed", "3", "--out", str(s_out)]) == EXIT_OK
    report = json.loads(c_out.read_text())["results"][0]
    row, = json.loads(s_out.read_text())["results"]
    assert row == {k: report[k] for k in ("n", "r_star", "predicted", "measured_t",
                                          "base_congruence_max")}


_json_strings = st.text(alphabet=st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028é☃'),
                                           st.characters()), max_size=6)
_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**70, 2**70),  # past int64 both ways
    st.floats(),  # NaN and infinities included
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324]),
    _json_strings,
)
_json_values = st.recursive(_json_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(_json_strings, kids, max_size=4),
), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(obj=_json_values)
def test_json_text_matches_stdlib(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


@settings(max_examples=100, deadline=None)
@given(values=arrays(st.sampled_from([np.int8, np.int64]), st.integers(0, 40)))
def test_json_text_integer_arrays(values):
    plain = values.tolist()
    assert _json_text(values) == json.dumps(plain, sort_keys=True, indent=2)
    nested = {"coloring": values, "rows": [{"x": values}, []]}
    assert _json_text(nested) == json.dumps(
        {"coloring": plain, "rows": [{"x": plain}, []]}, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [
    np.array([True, False]),
    np.array([1.0, -1.0]),
    np.zeros((2, 2), dtype=np.int8),
    np.array(3),  # 0-d
    {"a": [np.array([0.5])]},
    {1: "x"},
    {"a": {2: 3}},
], ids=["bool-array", "float-array", "2d-array", "0d-array", "nested-float-array",
        "int-key", "nested-int-key"])
def test_json_text_rejects_what_no_artifact_holds(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


@pytest.mark.parametrize("module", [None, "number_theory", "ap_system", "engine",
                                    "constructions", "exact", "analysis"])
def test_public_names_resolve(module):
    # the benchmark's tracer wraps each of these names with getattr
    mod = importlib.import_module("zndisc" + ("." + module if module else ""))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
