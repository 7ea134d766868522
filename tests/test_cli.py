import argparse
import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import spiderlab.analytics as analytics
import spiderlab.cli as cli
import spiderlab.montecarlo as montecarlo
import spiderlab.verify as verify
from spiderlab import (NAMED_INDICES, ZAGREB, SimConfig, UniformLeaf, reduced_values,
                       run_experiment, standardize)
from spiderlab.verify import Failure


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_simulate_seed_horizon(capsys):
    code, out, err = run_cli(capsys, "simulate", "--model", "uniform:0.5", "--n", "1",
                             "--replicates", "10", "--seed", "3", "--format", "csv")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["index", "n", "p", "replicates", "mean", "variance"]
    by_index = {row["index"]: row for row in rows}
    assert by_index["zagreb"]["mean"] == "12.0"
    assert by_index["zagreb"]["variance"] == "0.0"
    assert by_index["gini"]["mean"] == "0.25"
    assert "resolved config" in err and '"master_seed": 3' in err


def test_simulate_json_summary(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--model", "preferential", "--n", "5",
                           "--replicates", "64", "--seed", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["model"] == "preferential"
    assert payload["config"]["master_seed"] == 8
    assert payload["stats"]["leaves"]["count"] == 64
    assert payload["spot_checks"] == 1


def test_simulate_preferential_equals_uniform_half(capsys):
    args = ["--n", "400", "--replicates", "300", "--seed", "77", "--format", "csv"]
    code_a, out_a, _ = run_cli(capsys, "simulate", "--model", "preferential", *args)
    code_b, out_b, _ = run_cli(capsys, "simulate", "--model", "uniform:0.5", *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_simulate_reruns_byte_identical(capsys):
    args = ["simulate", "--model", "uniform:0.3", "--n", "50", "--replicates", "500",
            "--seed", "123456"]
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_simulate_missing_n_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", "uniform:0.5")
    assert code == 2
    assert "'n'" in err


def test_simulate_missing_model_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "10")
    assert code == 2
    assert "'model'" in err


def test_simulate_unknown_index_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", "uniform:0.5", "--n", "5",
                           "--indices", "wiener")
    assert code == 2
    assert "wiener" in err


def test_simulate_bad_model_probability(capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", "uniform:1.0", "--n", "5")
    assert code == 2


def test_simulate_synthesizes_and_echoes_seed(capsys):
    code, out_a, err = run_cli(capsys, "simulate", "--model", "uniform:0.5", "--n", "3",
                               "--replicates", "20", "--format", "csv")
    assert code == 0
    resolved = json.loads(err.split("resolved config: ", 1)[1])
    seed = resolved["master_seed"]
    code, out_b, _ = run_cli(capsys, "simulate", "--model", "uniform:0.5", "--n", "3",
                             "--replicates", "20", "--format", "csv", "--seed", str(seed))
    assert code == 0
    assert out_a == out_b


def test_simulate_config_file_and_flag_override(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": "uniform:0.5", "horizon": 4, "replicates": 25,
        "master_seed": 9, "indices": ["zagreb", "gini"],
    }))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["horizon"] == 4
    assert payload["config"]["indices"] == ["zagreb", "gini"]
    # flags override file values
    code, out, _ = run_cli(capsys, "simulate", "--config", str(config), "--n", "6")
    assert code == 0
    assert json.loads(out)["config"]["horizon"] == 6


def test_out_file_written(capsys, tmp_path):
    target = tmp_path / "summary.csv"
    code, out, _ = run_cli(capsys, "simulate", "--model", "uniform:0.5", "--n", "2",
                           "--replicates", "10", "--seed", "1", "--format", "csv",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    header, rows = csv_rows(target.read_text())
    assert header[0] == "index"
    assert len(rows) == 7


def test_exact_hoover_rational(capsys):
    code, out, _ = run_cli(capsys, "exact", "--index", "hoover", "--n", "10",
                           "--p", "1/2", "--oracle", "--format", "csv")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["index", "n", "p", "mean", "variance",
                      "oracle_mean", "oracle_variance", "match"]
    assert rows[0]["mean"] == "55/208"
    assert rows[0]["match"] == "True"
    assert rows[0]["oracle_mean"] == "55/208"


def test_exact_zagreb_seed_row(capsys):
    code, out, _ = run_cli(capsys, "exact", "--index", "zagreb", "--n", "1", "--p", "0.7",
                           "--format", "csv")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0]["mean"] == "12.0"
    assert rows[0]["variance"] == "0.0"
    assert rows[0]["oracle_mean"] == ""  # column present, empty without --oracle


def test_exact_oracle_matches_over_range(capsys):
    code, out, _ = run_cli(capsys, "exact", "--index", "gini", "--n-range", "1:9:2",
                           "--p", "2/5", "--oracle", "--format", "csv")
    assert code == 0
    _, rows = csv_rows(out)
    assert [row["n"] for row in rows] == ["1", "3", "5", "7", "9"]
    assert all(row["match"] == "True" for row in rows)


@pytest.mark.parametrize("index", [spec.name for spec in NAMED_INDICES])
def test_exact_float_oracle_matches_at_large_n(capsys, index):
    # float p: catalog and oracle must agree within ORACLE_MATCH_RTOL, the sum
    # of their stated accuracies, even where the support spans thousands of
    # masses and E[X^2] dwarfs the variance
    code, out, _ = run_cli(capsys, "exact", "--index", index, "--n-range", "1000:5000:4000",
                           "--p", "0.3", "--oracle", "--format", "csv")
    assert code == 0
    _, rows = csv_rows(out)
    assert [row["n"] for row in rows] == ["1000", "5000"]
    assert [row["match"] for row in rows] == ["True", "True"]


def test_exact_float_match_sees_a_catalog_error_of_1e14(capsys, monkeypatch):
    # the float-p match tolerance was once 1e-12, blind to errors this size
    entry = cli.moment_catalog(ZAGREB)
    skewed = dataclasses.replace(entry, mean=lambda n, p: entry.mean(n, p) * (1 + 1e-14))
    monkeypatch.setattr(cli, "moment_catalog", lambda index: skewed)
    code, out, _ = run_cli(capsys, "exact", "--index", "zagreb", "--n", "1000",
                           "--p", "0.3", "--oracle", "--format", "csv")
    assert code == 0
    assert [row["match"] for row in csv_rows(out)[1]] == ["False"]


def test_exact_json_rows(capsys):
    code, out, _ = run_cli(capsys, "exact", "--index", "leaves", "--n", "12", "--p", "1/4")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["mean"] == "23/4"


def test_exact_unknown_index(capsys):
    code, _, err = run_cli(capsys, "exact", "--index", "wiener", "--n", "4", "--p", "0.5")
    assert code == 2
    assert "wiener" in err


def test_exact_requires_exact_formulas(capsys):
    code, _, err = run_cli(capsys, "exact", "--index", "generalized_zagreb:5",
                           "--n", "4", "--p", "0.5")
    assert code == 2
    assert "asymptotics" in err


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--seed", "4")
    assert code == 0
    assert "all suites passed" in out


def test_verify_full_passes_with_its_counts(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "full")
    assert code == 0
    assert out == ("verification level=full\n"
                   "  catalog_grid: 9 p-values x 50 horizons\n"
                   "  reachable_pairs: 125250\n"
                   "  triangle_order: 20\n"
                   "all suites passed\n")


def test_verify_full_reports_a_fault_in_the_forked_check_as_a_runtime_error(capsys,
                                                                          monkeypatch):
    def raising(max_n):
        raise ValueError(f"planted fault at max_n={max_n}")

    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    monkeypatch.setattr(verify, "reachable_pairs_suite", raising)
    code, out, err = run_cli(capsys, "verify", "--level", "full")
    assert code == 1 and out == ""
    assert "runtime error: planted fault at max_n=500" in err


def test_verify_report_does_not_depend_on_the_seed(capsys):
    # No suite draws a random number; the seed shows only in the resolved config.
    code, out4, err4 = run_cli(capsys, "verify", "--level", "quick", "--seed", "4")
    assert code == 0
    code, out9, err9 = run_cli(capsys, "verify", "--level", "quick", "--seed", "9")
    assert code == 0
    assert out4 == out9
    assert "  reachable_pairs: 7260\n" in out4
    assert '"master_seed": 4' in err4 and '"master_seed": 9' in err9


def test_a_seedless_verify_draws_no_seed(capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr(cli.secrets, "randbits", lambda bits: drawn.append(bits) or 5)
    code, out, err = run_cli(capsys, "verify", "--level", "quick")
    assert code == 0 and "all suites passed" in out
    assert drawn == []
    assert '"master_seed": null' in err


def test_verify_reports_failures_with_witness(capsys, monkeypatch):
    fake = Failure("catalog-oracle", "zagreb", {"n": 3, "p": "1/2"},
                   "variance formula 1 != oracle 2")
    monkeypatch.setattr(verify, "run_level", lambda level: ([fake], {"level": level}))
    code, out, _ = run_cli(capsys, "verify", "--level", "quick")
    assert code == 3
    assert "zagreb" in out and "n=3" in out and "p=1/2" in out


def test_clt_table(capsys):
    code, out, _ = run_cli(capsys, "clt", "--index", "leaves", "--n", "200,800",
                           "--p", "0.5", "--replicates", "2000", "--seed", "6",
                           "--format", "csv")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["index", "n", "p", "mean", "var", "ks",
                      "exceedance", "r_mean_error", "limit"]
    assert [row["n"] for row in rows] == ["200", "800"]
    assert all(row["exceedance"] == "" for row in rows)
    assert all(0.0 < float(row["ks"]) < 0.2 for row in rows)


def test_clt_moments_are_exact_sums_over_every_replicate(capsys):
    # Reference, with no atoms: every replicate's standardized float64 value
    # summed as Fractions over all R replicates, each statistic rounded once.
    n, p, k, R, seed = 300, 0.4, 2.0, 2000, 8
    code, out, _ = run_cli(capsys, "clt", "--index", "zagreb", "--n", str(n), "--p", str(p),
                           "--k", str(k), "--replicates", str(R), "--seed", str(seed),
                           "--format", "csv")
    assert code == 0
    (row,) = csv_rows(out)[1]
    config = SimConfig(model=UniformLeaf(p), horizon=n, replicates=R, master_seed=seed,
                       indices=(ZAGREB,))
    values = reduced_values(ZAGREB, n, run_experiment(config).leaf_counts)
    zs = [Fraction(z) for z in standardize(values, ZAGREB, n, p, k).tolist()]
    mean = sum(zs) / R
    assert float(row["mean"]) == float(mean)
    assert float(row["var"]) == float(sum((z - mean) ** 2 for z in zs) / (R - 1))


def test_clt_shift_that_leaves_n_plus_k_nonpositive_rejected(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    code, out, err = run_cli(capsys, "clt", "--index", "leaves", "--n", "100", "--p", "0.5",
                             "--k", "-200", "--seed", "1")
    assert_rejected_before_work(code, err)
    assert "n + k" in err and out == ""


def test_clt_requires_normalizer(capsys):
    code, _, err = run_cli(capsys, "clt", "--index", "gini", "--n", "100", "--p", "0.5")
    assert code == 2
    assert "CLT" in err


def test_converge_table(capsys):
    code, out, _ = run_cli(capsys, "converge", "--index", "hoover", "--model", "preferential",
                           "--n-grid", "100,400", "--replicates", "800", "--seed", "2",
                           "--format", "csv")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["index", "n", "p", "mean", "var", "ks",
                      "exceedance", "r_mean_error", "limit"]
    assert all(row["limit"] == "0.25" for row in rows)
    assert all(row["ks"] == "" for row in rows)
    assert all(row["p"] == "0.5" for row in rows)


@pytest.mark.parametrize("argv", [
    ["clt", "--index", "zagreb", "--p", "0.5", "--n", "40,50,60"],
    ["converge", "--index", "gini", "--p", "0.4", "--n-grid", "40,50,60"],
])
def test_a_command_forks_once_per_run_that_pays(capsys, monkeypatch, forks, argv):
    # 2100 replicates are 3 chunks: at --threads 2, batches of 2 and 1, one child
    argv = argv + ["--replicates", "2100", "--seed", "4", "--format", "csv"]
    code, serial, _ = run_cli(capsys, *argv, "--threads", "1")
    assert code == 0
    runs = []
    real_pays = montecarlo._pool_pays

    def pays_from_50(config, threads):  # the first horizon runs serially
        runs.append((config.horizon, len(forks)))
        return config.horizon >= 50 and real_pays(config, threads)

    monkeypatch.setattr(montecarlo, "_pool_pays", pays_from_50)
    monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)
    code, pooled, _ = run_cli(capsys, *argv, "--threads", "2")
    assert code == 0 and pooled == serial
    assert runs == [(40, 0), (50, 0), (60, 1)] and len(forks) == 2


def test_a_command_no_run_pays_for_starts_no_pool(capsys, forks):
    code, _, _ = run_cli(capsys, "clt", "--index", "zagreb", "--p", "0.5", "--n", "40,50",
                         "--replicates", "2100", "--threads", "2", "--seed", "4")
    assert code == 0 and forks == []


def test_threads_do_not_change_the_output_at_a_pooled_shape(capsys, forks):
    argv = ["simulate", "--model", "uniform:0.4", "--n", "5000", "--replicates", "20000",
            "--indices", "zagreb,gini", "--seed", "6"]
    code, serial, _ = run_cli(capsys, *argv, "--threads", "1")
    assert code == 0 and forks == []
    code, pooled, _ = run_cli(capsys, *argv, "--threads", "2")
    assert code == 0 and len(forks) == 1  # forked once
    assert pooled == serial


def test_exact_oracle_takes_one_pass_per_row(capsys, monkeypatch):
    passes = []
    for name in ("support_pmf", "support_weights"):
        real = getattr(analytics, name)
        monkeypatch.setattr(analytics, name,
                            lambda law, real=real, name=name: passes.append(name) or real(law))
    for p, route in (("0.3", "support_pmf"), ("3/10", "support_weights")):
        passes.clear()
        code, out, _ = run_cli(capsys, "exact", "--index", "zagreb", "--n-range", "1:5",
                               "--p", p, "--oracle", "--format", "csv")
        assert code == 0
        _, rows = csv_rows(out)
        assert [row["match"] for row in rows] == ["True"] * 5  # n = 1..5
        assert passes == [route] * 5


def test_converge_reports_an_overflowing_r_mean_error_without_a_warning(capsys):
    # |scaled - c| is 11.75 at n = 1, and 11.75**400 is past the float64 range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "converge", "--index", "zagreb", "--p", "0.5",
                                 "--n-grid", "1,2", "--r", "400", "--replicates", "20",
                                 "--seed", "1")
    assert code == 1 and out == ""
    assert err.splitlines()[1:] == ["runtime error: r-mean error E|scaled - c|**r overflows "
                                    "float64 at n=1, r=400.0: |scaled - c| reaches 11.75"]


def test_converge_requires_limit(capsys):
    code, _, err = run_cli(capsys, "converge", "--index", "leaves", "--p", "0.5")
    assert code == 2
    assert "limit" in err


def test_python_dash_m_runs_the_cli():
    # `python -m spiderlab` must reach the same entry point as the script.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "spiderlab"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("usage: spiderlab")
    assert "{simulate,exact,verify,clt,converge}" in done.stderr


def test_import_leaves_the_process_pool_unloaded():
    # Neither the package nor the CLI loads concurrent.futures or
    # multiprocessing, at import or in a run that forks (os.fork and a pipe).
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    probe = ("import os, sys, spiderlab, spiderlab.cli\n"
             "from spiderlab import montecarlo, LEAVES, SimConfig, UniformLeaf, run_experiment\n"
             "montecarlo.POOL_MIN_WORK = 0\n"
             "forked, fork = [], os.fork\n"
             "os.fork = lambda: forked.append(1) or fork()\n"
             "config = SimConfig(model=UniformLeaf(0.4), horizon=30, replicates=3000,\n"
             "                   master_seed=1, indices=(LEAVES,))\n"
             "assert run_experiment(config, 2).to_json() == run_experiment(config).to_json()\n"
             "assert forked == [1]\n"
             "print(sorted(m for m in sys.modules "
             "if m.startswith(('concurrent', 'multiprocessing'))))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_main_builds_its_parser_at_most_once(capsys, monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "spiderlab":
            built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        assert cli.main(["exact", "--index", "leaves", "--p", "1/2", "--n", "4"]) == 0
    assert cli.main(["frobnicate"]) == 2
    assert len(built) <= 1


def test_unknown_subcommand_usage(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_csv_schema_stability(capsys):
    # oracle columns exist with and without --oracle; diagnostics share one schema
    code, out_plain, _ = run_cli(capsys, "exact", "--index", "zagreb", "--n", "2",
                                 "--p", "0.5", "--format", "csv")
    code2, out_oracle, _ = run_cli(capsys, "exact", "--index", "zagreb", "--n", "2",
                                   "--p", "0.5", "--oracle", "--format", "csv")
    assert code == code2 == 0
    assert out_plain.splitlines()[0] == out_oracle.splitlines()[0]


# -- validation before work, and truthful exit codes ---------------------------

def assert_rejected_before_work(code, err):
    assert code == 2
    assert "config error" in err or "error: argument" in err
    assert "resolved config" not in err  # the echo precedes any work


def test_config_file_bad_values_rejected(capsys, tmp_path):
    # fractional counts were once truncated, wrongly typed values once exited 1
    for field, value in (("horizon", 20.9), ("replicates", 3.7), ("master_seed", 2.5),
                         ("model", 5), ("indices", 5), ("indices", ["zagreb", 2])):
        config = {"model": "uniform:0.5", "horizon": 20, "replicates": 30, "master_seed": 9}
        config[field] = value
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert_rejected_before_work(code, err)
        assert field in err and out == ""


CONFIG_FIELD_CASES = [
    (["simulate"], {"model": "uniform:0.5", "horizon": 5, "replicates": 10, "master_seed": 1,
                    "indices": "leaves"}, "clt_shift"),
    (["clt", "--index", "leaves", "--p", "0.5", "--n", "10"],
     {"replicates": 10, "master_seed": 1}, "model"),
    (["converge", "--index", "gini", "--p", "0.5", "--n-grid", "10"],
     {"replicates": 10, "master_seed": 1}, "horizon"),
    (["verify"], {"master_seed": 1}, "threads"),
]


@pytest.mark.parametrize("argv, fields, unread", CONFIG_FIELD_CASES,
                         ids=[case[0][0] for case in CONFIG_FIELD_CASES])
def test_config_file_takes_only_the_fields_its_subcommand_reads(capsys, tmp_path, monkeypatch,
                                                               argv, fields, unread):
    # a typo or a field another subcommand reads was once ignored without a word
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**fields, unread: 7}))
    code, out, err = run_cli(capsys, *argv, "--config", str(path))
    assert_rejected_before_work(code, err)
    assert f"field {unread!r}" in err and out == ""
    # every field the subcommand reads is accepted
    monkeypatch.setattr(verify, "run_level", lambda *a, **k: ([], {}))
    path.write_text(json.dumps(fields))
    code, _, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    ["exact", "--index", "leaves", "--n", "4", "--p", "1/2", "--threads", "2"],
    ["exact", "--index", "leaves", "--n", "4", "--p", "1/2", "--seed", "1"],
    ["exact", "--index", "leaves", "--n", "4", "--p", "1/2", "--config", "run.json"],
    ["verify", "--threads", "2"],
    ["verify", "--format", "csv"],
    ["simulate", "--model", "uniform:0.5", "--n", "4", "--clt-shift", "3"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and "resolved config" not in err
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err and out == ""


def test_exact_draws_no_seed(capsys):
    code, _, err = run_cli(capsys, "exact", "--index", "leaves", "--n", "4", "--p", "1/2")
    assert code == 0
    assert "master_seed" not in json.loads(err.split("resolved config: ", 1)[1])


@pytest.mark.parametrize("command, extra", [("clt", ["--n", "100"]),
                                            ("converge", ["--n-grid", "100"])])
def test_diagnostics_reject_model_with_p(capsys, monkeypatch, command, extra):
    # --model once silently won over --p
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    code, out, err = run_cli(capsys, command, "--index", "leaves" if command == "clt" else "gini",
                             "--model", "uniform:0.3", "--p", "0.9", *extra, "--seed", "1")
    assert_rejected_before_work(code, err)
    assert "'model' or 'p', not both" in err and out == ""


def test_unreadable_config_file_rejected(capsys, tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert_rejected_before_work(code, err)
        assert "cannot read config file" in err


def test_nonpositive_threads_rejected(capsys):
    for threads in ("-3", "0"):
        code, _, err = run_cli(capsys, "simulate", "--model", "uniform:0.5", "--n", "5",
                               "--replicates", "10", "--seed", "1", "--threads", threads)
        assert_rejected_before_work(code, err)
        assert "--threads" in err


def test_negative_seed_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--level", "quick", "--seed", "-4")
    assert_rejected_before_work(code, err)


def test_exact_zero_horizon_rejected(capsys):
    code, _, err = run_cli(capsys, "exact", "--index", "zagreb", "--n", "0", "--p", "0.5")
    assert_rejected_before_work(code, err)


def test_clt_too_few_replicates_rejected_before_run(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    code, _, err = run_cli(capsys, "clt", "--index", "leaves", "--n", "100", "--p", "0.5",
                           "--replicates", "5", "--seed", "1")
    assert_rejected_before_work(code, err)
    assert "at least 10" in err


def test_converge_bad_epsilon_rejected(capsys):
    code, _, err = run_cli(capsys, "converge", "--index", "gini", "--p", "0.5",
                           "--n-grid", "100", "--eps", "-0.1", "--seed", "1")
    assert_rejected_before_work(code, err)


def test_error_during_run_is_runtime_failure(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("worker fault")

    monkeypatch.setattr(cli, "run_experiment", broken)
    code, out, err = run_cli(capsys, "simulate", "--model", "uniform:0.5", "--n", "5",
                             "--replicates", "10", "--seed", "1")
    assert code == 1
    assert "resolved config" in err
    assert "runtime error: worker fault" in err
    assert "config error" not in err and out == ""


# The sha256 of the stdout of each command.  A pin changes only with a change
# to the outputs that CHANGES.md declares; re-pin it then, and never else.
PINNED_OUTPUTS = [
    (["simulate", "--model", "uniform:0.4", "--n", "201", "--replicates", "2000", "--seed", "5"],
     "0b2b736cd4d8290b9b57b2793e7c33281fe91eb72f07655c8c60a68d7320a1cb"),
    (["simulate", "--model", "uniform:0.4", "--n", "201", "--replicates", "2000", "--seed", "5",
      "--format", "csv"],
     "ef26677b99260e513c8978aaa9f2bc275fae9f35246c258365ba1e7c08fbc60e"),
    (["clt", "--index", "zagreb", "--p", "0.5", "--n", "5000", "--seed", "5"],
     "7c8143077930227b34901ef23fe231fd2e0f62fd2582c09f1405fd4c27349a5b"),
    # the byte rule's pieces of 43 rows at n = 3000 leave a last piece of 35 rows
    (["clt", "--index", "gordon_scantlebury", "--p", "0.3", "--n", "100,1000,3000",
      "--replicates", "5000", "--seed", "7"],
     "0be5af141dd9a4b875578e94c3b36725fa44cb25bc12a9947c3a4ae28c6c7f11"),
    (["converge", "--index", "hoover", "--model", "preferential", "--seed", "3", "--format", "csv"],
     "9de03ebea293c10c2ec3d269c8c5c949767ec150b876503bed9be9cdde507482"),
    (["exact", "--index", "zagreb", "--n-range", "1:20", "--p", "3/10", "--oracle",
      "--format", "csv"],
     "341affb1338659f7eacf372e76e230366b069d5a37a0a3a49f1801d7262f66c9"),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS,
                         ids=[f"{k}-{argv[0]}" for k, (argv, _) in enumerate(PINNED_OUTPUTS)])
def test_outputs_are_pinned_byte_for_byte(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["clt", "--index", "zagreb", "--p", "0.5", "--n", "100", "--k", "nan"],
    ["clt", "--index", "zagreb", "--p", "0.5", "--n", "100", "--k", "inf"],
    ["converge", "--index", "hoover", "--p", "0.5", "--n-grid", "100", "--eps", "nan"],
    ["converge", "--index", "hoover", "--p", "0.5", "--n-grid", "100", "--r", "nan"],
    ["converge", "--index", "hoover", "--p", "0.5", "--n-grid", "100", "--r", "inf"],
    ["simulate", "--model", "uniform:0.5", "--n", "10", "--indices", "generalized_zagreb:nan"],
    ["simulate", "--model", "uniform:0.5", "--n", "10", "--indices", "generalized_zagreb:inf"],
    ["simulate", "--model", "uniform:0.5", "--n", "10", "--indices", "generalized_zagreb:1e400"],
])
def test_non_finite_numbers_are_config_errors(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    code, out, err = run_cli(capsys, *argv, "--replicates", "100", "--seed", "1")
    assert_rejected_before_work(code, err)
    assert "config error" in err and out == ""


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


@pytest.mark.parametrize("alpha", ["5000", "700", "1" + "0" * 400])
def test_huge_power_sum_exponents_are_config_errors(alpha):
    # 5000 and the 400-digit exponent exceed the bound on |alpha|; 700 passes
    # it, but 12.0**700 overflows float64 at L = n + 2.  Run in a child under
    # a time and memory limit: without the bound, the exact 2**alpha of the
    # 400-digit exponent grows without limit.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "spiderlab", "simulate", "--model", "uniform:0.4",
                           "--n", "10", "--replicates", "10", "--indices",
                           f"generalized_zagreb:{alpha}"], env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=_limit_memory)
    assert_rejected_before_work(done.returncode, done.stderr)
    assert "config error" in done.stderr and done.stdout == ""


def test_a_huge_exponent_is_echoed_by_its_size(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    code, out, err = run_cli(capsys, "simulate", "--model", "uniform:0.4", "--n", "10",
                             "--replicates", "10", "--seed", "1", "--indices",
                             "generalized_zagreb:1" + "0" * 400)
    assert_rejected_before_work(code, err)
    assert "got an integer of 1329 bits" in err and out == ""  # 10**400 < 2**1329
    assert "0" * 20 not in err and len(err) < 300
