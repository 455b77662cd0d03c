import hashlib
import json
import os

import pytest

from zndisc.cli import (
    EXIT_INVARIANT,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


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


def test_bounds_empty_range(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["bounds", "--range", "5..4", "--format", "csv",
                "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert text.splitlines()[0].startswith("n,")
    assert len(text.splitlines()) == 1


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


def test_env_seed_fallback(tmp_path, monkeypatch):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    monkeypatch.setenv("ZNDISC_SEED", "21")
    assert run(["construct", "--n", "20", "--out", str(out1)]) == EXIT_OK
    monkeypatch.delenv("ZNDISC_SEED")
    assert run(["construct", "--n", "20", "--seed", "21", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_fourier_check_passes(capsys):
    assert run(["fourier-check", "--n", "12", "--trials", "3",
                "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "subgroup_plancherel" in out
    assert "mobius_identity" in out


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


def test_construct_invariant_breach_exit_code(monkeypatch, tmp_path):
    import zndisc.cli as cli
    from zndisc.constructions import ConstructionReport
    from zndisc.ap_system import Coloring

    def fake(ctx, **kwargs):
        rep = ConstructionReport(n=ctx.n, r_star=1, predicted=1.0, measured_t=1,
                                 base_congruence_max=2, c_hat=1.0, kappa=1.0,
                                 seed=0)
        return Coloring.full([1] * ctx.n), rep

    monkeypatch.setattr(cli, "construct_best_coloring", fake)
    assert run(["construct", "--n", "4", "--out",
                str(tmp_path / "x.json")]) == EXIT_INVARIANT


# sha256 of json.dumps(payload["results"], sort_keys=True); meta is left out
# because it carries the configuration, not the computed results.
GOLDEN_RESULTS = [
    (["construct", "--n", "360", "--seed", "7"],
     "f330d717f6ccede652143fe2a5b481db4c2cebf2bb188337c85585e2009dc23c"),
    (["exact", "--n", "12"],
     "c9561459a310c32dba774ec78993794d6df5ceaff584158e1c107b88d3e62bfb"),
    (["herdisc", "--n", "7"],
     "642134280f2e7d56e62f4307cc4a9633b279c842492eebda3e8506a6504ac3bc"),
]


@pytest.mark.parametrize("args,digest", GOLDEN_RESULTS, ids=["construct", "exact", "herdisc"])
def test_golden_results(tmp_path, args, digest):
    out = tmp_path / "out.json"
    assert run(args + ["--out", str(out)]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    got = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert got == digest
