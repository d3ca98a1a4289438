"""Command-line checks: worked examples, config semantics, determinism, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from psqkd.cli import main, parse_config_lines, read_header_params
from psqkd.errors import DomainError
from psqkd.montecarlo import load_records
from psqkd.reconciliation import peg_construct, save_alist

# inflated three-sigma band shared with the estimator tests
BAND = 3.0 * 1.2


def run_to_file(tmp_path, argv, name="out.txt"):
    path = tmp_path / name
    rc = main(argv + ["--out", str(path)])
    assert rc == 0
    return path.read_text()


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


class TestWorkedExamples:
    def test_keyrate_json_positive_at_100km(self, tmp_path):
        text = run_to_file(tmp_path, [
            "keyrate", "--v", "20", "--k", "1", "--t", "0.8",
            "--dist", "100", "--eps", "0.01", "--beta", "0.95"])
        doc = json.loads(text)
        assert doc["params"]["v"] == 20.0
        assert doc["params"]["k"] == 1
        rep = doc["report"]
        assert rep["key_rate"] > 0.0
        assert rep["secure"] is True
        assert rep["mutual_info"] > rep["holevo"] > 0.0
        assert rep["success_prob"] == pytest.approx(0.2259215, abs=1e-6)

    def test_keyrate_csv_variant(self, tmp_path):
        text = run_to_file(tmp_path, [
            "keyrate", "--k", "1", "--dist", "100", "--format", "csv"])
        header, rows = csv_rows(text)
        assert header[:2] == ["mutual_info", "holevo"]
        assert len(rows) == 1
        assert read_header_params(text)["dist"] == "100"

    def test_beta_from_rate_and_snr(self, tmp_path):
        text = run_to_file(tmp_path, ["beta", "--rate", "0.1", "--snr", "0.1626"])
        header, rows = csv_rows(text)
        assert header == ["code_rate", "snr", "beta"]
        assert abs(float(rows[0][2]) - 0.9202) < 0.002

    def test_beta_inverse_direction(self, tmp_path):
        text = run_to_file(tmp_path, ["beta", "--rate", "0.1", "--beta", "0.9202"])
        _, rows = csv_rows(text)
        assert float(rows[0][1]) == pytest.approx(0.1626, abs=1e-3)

    def test_fig5_k1_column_peaks_at_quarter(self, tmp_path):
        text = run_to_file(tmp_path, ["fig5", "--v", "20"])
        header, rows = csv_rows(text)
        assert header == ["t", "p_k1", "p_k2", "p_k3", "p_k4"]
        assert len(rows) == 400
        table = np.array(rows, dtype=float)
        # the default grid lands close enough to the maximizer 17/19
        assert abs(table[:, 1].max() - 0.25) < 1e-6
        for col in (2, 3, 4):
            assert table[:, col].max() < 0.25


class TestConfigFiles:
    def test_parse_config_lines(self):
        conf = parse_config_lines([
            "# comment", "", "v = 10", "k-list=1,2", "  t =0.5  "])
        assert conf == {"v": "10", "k_list": "1,2", "t": "0.5"}

    def test_parse_rejects_bare_token(self):
        with pytest.raises(DomainError, match="line 1"):
            parse_config_lines(["not-a-pair"])

    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v = 10\nk = 2\ndist = 50\n")
        text = run_to_file(tmp_path, ["keyrate", "--config", str(cfg)], "a.json")
        assert json.loads(text)["params"]["v"] == 10.0
        text = run_to_file(tmp_path, ["keyrate", "--config", str(cfg), "--v", "20"],
                           "b.json")
        doc = json.loads(text)
        assert doc["params"]["v"] == 20.0
        assert doc["params"]["k"] == 2

    def test_unknown_config_keys_are_ignored(self, tmp_path):
        # one config file can serve several subcommands
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dist = 50\nt_count = 40\nv = 12\n")
        text = run_to_file(tmp_path, ["fig5", "--config", str(cfg)])
        params = read_header_params(text)
        assert params["v"] == "12"
        assert params["t_count"] == "40"
        assert "dist" not in params

    def test_header_echo_replays_the_run(self, tmp_path):
        argv = ["montecarlo", "--k", "1", "--t", "0.8", "--dist", "60",
                "--n", "20000", "--seed", "11"]
        first = run_to_file(tmp_path, argv, "first.csv")
        cfg = tmp_path / "replay.cfg"
        cfg.write_text("\n".join(
            f"{k} = {v}" for k, v in read_header_params(first).items()) + "\n")
        second = run_to_file(tmp_path, ["montecarlo", "--config", str(cfg)],
                             "second.csv")
        assert second == first

    def test_missing_config_file(self, tmp_path):
        assert main(["keyrate", "--config", str(tmp_path / "nope.cfg"),
                     "--dist", "10"]) == 1

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v = plenty\n")
        assert main(["keyrate", "--config", str(cfg), "--dist", "10"]) == 1


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        argv = ["montecarlo", "--k", "1", "--t", "0.8", "--tc", "0.5",
                "--n", "20000", "--seed", "11"]
        a = run_to_file(tmp_path, argv, "a.csv")
        b = run_to_file(tmp_path, argv, "b.csv")
        assert a == b

    def test_bench_same_seed_same_bytes(self, tmp_path):
        argv = ["bench", "--snr", "0.5", "--blocks", "2", "--code-n", "512",
                "--seed", "3"]
        a = run_to_file(tmp_path, argv, "a.csv")
        b = run_to_file(tmp_path, argv, "b.csv")
        assert a == b

    def test_auto_seed_is_recorded(self, tmp_path):
        text = run_to_file(tmp_path, ["montecarlo", "--k", "1", "--tc", "0.5",
                                      "--n", "20000"])
        int(read_header_params(text)["seed"])


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["keyrate", "--dist", "10", "--nosuchflag"])
        assert err.value.code == 2

    def test_missing_channel_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["keyrate", "--v", "20", "--k", "1"])
        assert err.value.code == 2

    def test_contradictory_scheme_flags(self):
        with pytest.raises(SystemExit) as err:
            main(["keyrate", "--k", "1", "--on-off", "--dist", "10"])
        assert err.value.code == 2

    def test_beta_needs_exactly_one_target(self):
        for argv in (["beta", "--rate", "0.1"],
                     ["beta", "--rate", "0.1", "--snr", "0.2", "--beta", "0.9"],
                     ["beta", "--snr", "0.2"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2

    def test_domain_error_exit_code(self, capsys):
        assert main(["keyrate", "--v", "0.5", "--dist", "10"]) == 1
        assert "error" in capsys.readouterr().err

    def test_too_few_rounds(self):
        assert main(["montecarlo", "--k", "1", "--tc", "0.5", "--n", "100",
                     "--seed", "1"]) == 1

    def test_oracle_needs_a_scheme(self):
        assert main(["oracle", "--v", "6"]) == 1


class TestSweepCommands:
    def test_fig2_table_shape(self, tmp_path):
        text = run_to_file(tmp_path, [
            "fig2", "--schemes", "none,k1", "--d-lo", "0", "--d-hi", "20",
            "--d-step", "10"])
        header, rows = csv_rows(text)
        assert header == ["scheme", "distance_km", "t_opt", "key_rate",
                          "success_prob", "has_key"]
        assert [r[0] for r in rows] == ["none"] * 3 + ["k1"] * 3
        assert all(r[5] == "true" for r in rows)
        none20 = float(rows[2][3])
        k1_20 = float(rows[5][3]) * 1.0  # already success-weighted
        assert none20 > k1_20 > 0.0

    def test_fig3_noise_tolerance_positive(self, tmp_path):
        text = run_to_file(tmp_path, [
            "fig3", "--schemes", "none", "--d-lo", "10", "--d-hi", "10",
            "--d-step", "10"])
        _, rows = csv_rows(text)
        assert rows[0][3] == "true"
        assert float(rows[0][2]) > 0.05

    def test_fig4_writes_surface_and_optima(self, tmp_path):
        out = tmp_path / "f4.csv"
        rc = main(["fig4", "--schemes", "k1", "--distances", "100",
                   "--t-count", "32", "--refinements", "1", "--out", str(out)])
        assert rc == 0
        header, rows = csv_rows(out.read_text())
        assert header == ["scheme", "distance_km", "t", "key_rate"]
        assert len(rows) == 32
        oheader, orows = csv_rows((tmp_path / "f4_optima.csv").read_text())
        rec = dict(zip(oheader, orows[0]))
        assert rec["has_key"] == "true"
        t_opt = float(rec["t_opt"])
        assert 0.01 < t_opt < 0.995
        assert float(rec["band50_lo"]) <= float(rec["band90_lo"]) < t_opt
        assert t_opt < float(rec["band90_hi"]) <= float(rec["band50_hi"])

    def test_fig4_json_nests_optima_and_maps_nan(self, tmp_path):
        # noise far above tolerance, so no tap setting keeps the key alive
        out = tmp_path / "f4.json"
        rc = main(["fig4", "--schemes", "k1", "--distances", "100",
                   "--eps", "0.3", "--t-count", "32", "--refinements", "0",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        row = dict(zip(doc["optima"]["columns"], doc["optima"]["rows"][0]))
        assert row["has_key"] is False
        assert row["band90_lo"] is None

    def test_fig6_efficiency_ordering(self, tmp_path):
        text = run_to_file(tmp_path, [
            "fig6", "--eta-list", "1,0.5", "--d-lo", "40", "--d-hi", "40",
            "--d-step", "10"])
        _, rows = csv_rows(text)
        rate = {r[0]: float(r[2]) for r in rows}
        assert rate["1"] > rate["0.5"] > 0.0


class TestSimulationCommands:
    def test_montecarlo_within_bands(self, tmp_path):
        text = run_to_file(tmp_path, [
            "montecarlo", "--k", "1", "--t", "0.8", "--tc", "0.5",
            "--n", "20000", "--seed", "11"])
        header, rows = csv_rows(text)
        assert header == ["quantity", "empirical", "std_error", "analytic",
                          "sigma"]
        assert [r[0] for r in rows] == [
            "accept_rate", "var_heterodyne", "mean_x", "mean_p",
            "cov_v1", "cov_v2", "cov_phi"]
        assert max(float(r[4]) for r in rows) < BAND

    def test_montecarlo_export_round_trip(self, tmp_path):
        rec_path = tmp_path / "rounds.txt"
        text = run_to_file(tmp_path, [
            "montecarlo", "--k", "1", "--t", "0.8", "--tc", "0.5",
            "--n", "20000", "--seed", "8", "--export", str(rec_path)])
        records = load_records(str(rec_path))
        assert len(records) == 20000
        n_accepted = int(read_header_params(text)["n_accepted"])
        assert int(records.accepted.sum()) == n_accepted

    def test_rescale_matches_fresh_analytics(self, tmp_path):
        text = run_to_file(tmp_path, [
            "rescale", "--v", "20", "--t0", "0.8", "--eta", "0.5", "--k", "1",
            "--tc", "0.5", "--n", "50000", "--seed", "12"])
        params = read_header_params(text)
        assert float(params["identity_defect"]) < 1e-12
        assert float(params["v_prime"]) == pytest.approx(31.4)
        _, rows = csv_rows(text)
        assert max(float(r[4]) for r in rows) < BAND

    def test_oracle_agrees_with_closed_forms(self, tmp_path):
        text = run_to_file(tmp_path, [
            "oracle", "--v", "6", "--t", "0.8", "--k", "1", "--eta-d", "0.8"])
        _, rows = csv_rows(text)
        diff = {r[0]: float(r[3]) for r in rows}
        assert diff["success_prob"] < 1e-8
        assert max(diff["cov_v1"], diff["cov_v2"], diff["cov_phi"]) < 1e-6

    def test_bench_reports_both_arms(self, tmp_path):
        text = run_to_file(tmp_path, [
            "bench", "--snr", "0.5", "--blocks", "2", "--code-n", "512",
            "--seed", "3"])
        header, rows = csv_rows(text)
        assert header == ["R", "SNR", "beta", "Type", "S/T", "AIN"]
        assert [r[3] for r in rows] == ["Gaussian",
                                        "non_gaussian(k=1, V=20, T=0.8)"]
        for r in rows:
            assert float(r[0]) == pytest.approx(0.1, abs=5e-4)
            assert r[4].count("/") == 1

    def test_bench_loads_external_alist(self, tmp_path):
        code = peg_construct(512, 461, {2: 0.2, 3: 0.7, 6: 0.1}, seed=11)
        path = tmp_path / "code.alist"
        save_alist(code, str(path))
        text = run_to_file(tmp_path, [
            "bench", "--alist", str(path), "--data", "gaussian",
            "--snr", "0.5", "--blocks", "2", "--seed", "3"])
        _, rows = csv_rows(text)
        assert len(rows) == 1
        assert float(rows[0][0]) == pytest.approx(code.rate)

    def test_bench_ingests_exported_records(self, tmp_path):
        rec_path = tmp_path / "rounds.txt"
        run_to_file(tmp_path, [
            "montecarlo", "--k", "1", "--t", "0.8", "--tc", "0.5",
            "--n", "20000", "--seed", "8", "--export", str(rec_path)])
        text = run_to_file(tmp_path, [
            "bench", "--records", str(rec_path), "--data", "postselected",
            "--code-n", "512", "--blocks", "2", "--seed", "3"], "bench.csv")
        _, rows = csv_rows(text)
        assert rows[0][3] == "rounds.txt"
        assert rows[0][4] == "2/2"
