"""Command-line checks: worked examples, config semantics, determinism, exit codes."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psqkd import cli
from psqkd.cli import build_parser, main, parse_config_lines
from psqkd.errors import DomainError
from psqkd.records import load_records
from psqkd.reconciliation import peg_construct, save_alist

# inflated three-sigma band shared with the estimator tests
BAND = 3.0 * 1.2


def test_import_path_loads_no_scipy(tmp_path):
    # the package is NumPy-only: a fresh interpreter that imports it and its
    # CLI, then runs a small bench (rotation, LLR model, PEG, decoding),
    # must not load any scipy module
    code = ("import sys, psqkd, psqkd.cli; "
            "assert psqkd.cli.main(['bench', '--code-n', '512', '--blocks', '1', "
            f"'--seed', '7', '--out', {str(tmp_path / 'bench.txt')!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
    assert "Gaussian" in (tmp_path / "bench.txt").read_text()


def test_module_entry_point_runs_the_cli(tmp_path, capsys):
    # python -m psqkd from the source tree, with no install, is the CLI:
    # same stdout, same exit codes
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv, code in ((["beta", "--rate", "0.1", "--snr", "0.1626"], 0),
                       (["beta", "--rate", "0.1"], 2)):
        proc = subprocess.run([sys.executable, "-m", "psqkd", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr[-2000:]
        if code == 0:
            assert main(argv) == 0
            assert proc.stdout == capsys.readouterr().out


# every subcommand at a small size
SMALL_ARGV = {
    "keyrate": ["--k", "1", "--dist", "50"],
    "fig2": ["--d-hi", "20", "--d-step", "10"],
    "fig3": ["--d-hi", "10", "--d-step", "10"],
    "fig4": ["--distances", "50", "--t-count", "32", "--refinements", "0"],
    "fig5": ["--t-count", "20"],
    "fig6": ["--d-hi", "10", "--d-step", "5"],
    "montecarlo": ["--k", "1", "--dist", "50", "--n", "20000", "--seed", "1"],
    "rescale": ["--dist", "50", "--n", "20000", "--seed", "5"],
    "oracle": ["--v", "6", "--t", "0.8", "--k", "1"],
    "bench": ["--code-n", "512", "--blocks", "2", "--seed", "7"],
    "beta": ["--rate", "0.1", "--snr", "0.1626"],
}


def read_header_params(text):
    """The parameter echo of an output file's comment header: its ``# key=value``
    lines through the config-file parser, so a saved header replays a run."""
    return parse_config_lines([line[2:] for line in text.splitlines()
                               if line.startswith("# ")])


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

    @pytest.mark.parametrize("command", sorted(SMALL_ARGV))
    def test_header_echo_replays_the_run(self, tmp_path, command):
        # the CSV header, stripped of its "# " prefixes, is the run's config
        first = run_to_file(tmp_path, [command, *SMALL_ARGV[command], "--format", "csv"],
                            "first.csv")
        cfg = tmp_path / "replay.cfg"
        cfg.write_text("".join(line[2:] + "\n" for line in first.splitlines()
                               if line.startswith("# ")))
        second = run_to_file(tmp_path, [command, "--config", str(cfg), "--format", "csv"],
                             "second.csv")
        assert second == first
        if command == "fig4":
            assert ((tmp_path / "second_optima.csv").read_text()
                    == (tmp_path / "first_optima.csv").read_text())

    def test_config_reaches_the_one_populated_subparser(self, tmp_path, monkeypatch):
        built = []

        def spy(command=None):
            built.append(build_parser(command))
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta_list = 0.5\nd_hi = 10\nk = 2\nschemes = k1\n")
        text = run_to_file(tmp_path, ["fig6", "--config", str(cfg), "--d-step", "5"])
        params = read_header_params(text)
        assert (params["eta_list"], params["d_hi"], params["k"]) == ("0.5", "10", "2")
        assert "schemes" not in params
        (_, subs), = built
        assert subs["fig6"].get_default("d_hi") == 10.0
        assert subs["fig6"].get_default("k") == 2
        for name, p in subs.items():
            if name != "fig6":
                assert [action.dest for action in p._actions] == ["help"]

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

    @pytest.mark.parametrize("case", ["missing_alist", "alist_non_integer",
                                      "alist_above_int64", "missing_records",
                                      "out_into_missing_dir", "export_into_missing_dir"])
    def test_bad_file_exits_1_with_an_error_line(self, case, tmp_path, capsys):
        # a file that cannot be read, parsed or written ends in one error
        # line and exit 1, not a traceback
        alist = tmp_path / "code.alist"
        alist.write_text({"alist_non_integer": "8 4\n3 6\n1.5\n",
                          "alist_above_int64": "8 4\n3 9223372036854775808\n"}.get(case, ""))
        missing = str(tmp_path / "missing" / "file.txt")
        bench = ["bench", "--code-n", "512", "--blocks", "1", "--seed", "1"]
        argv = {
            "missing_alist": bench + ["--alist", missing, "--data", "gaussian"],
            "alist_non_integer": bench + ["--alist", str(alist), "--data", "gaussian"],
            "alist_above_int64": bench + ["--alist", str(alist), "--data", "gaussian"],
            "missing_records": bench + ["--records", missing, "--data", "postselected"],
            "out_into_missing_dir": ["keyrate", "--k", "1", "--dist", "10", "--out", missing],
            "export_into_missing_dir": ["montecarlo", "--k", "1", "--dist", "50",
                                        "--n", "20000", "--seed", "1", "--export", missing],
        }[case]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("psqkd: error: ")

    @pytest.mark.parametrize("flag", ["--out", "--export"])
    def test_bad_output_path_fails_before_any_work(self, flag, tmp_path, capsys, monkeypatch):
        # an output into a missing directory is reported before a round is
        # drawn, with the error line opening the file would give
        def refuse(*args, **kwargs):
            raise AssertionError("run_experiment reached")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        path = str(tmp_path / "missing" / "r.txt")
        argv = ["montecarlo", "--k", "1", "--dist", "50", "--n", "10000000", "--seed", "5",
                flag, path]
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            f"psqkd: error: [Errno 2] No such file or directory: {path!r}\n"

    def test_failed_work_keeps_an_existing_out_file(self, tmp_path):
        out = tmp_path / "rate.json"
        out.write_text("kept\n")
        assert main(["keyrate", "--v", "0.5", "--dist", "10", "--out", str(out)]) == 1
        assert out.read_text() == "kept\n"

    def test_too_few_rounds(self):
        assert main(["montecarlo", "--k", "1", "--tc", "0.5", "--n", "100",
                     "--seed", "1"]) == 1

    def test_oracle_needs_a_scheme(self):
        assert main(["oracle", "--v", "6"]) == 1

    @pytest.mark.parametrize("blocks", ["0", "-3"])
    def test_bench_rejects_fewer_than_one_block_before_any_work(self, blocks, capsys,
                                                                monkeypatch):
        # the error names the flag, not the sample count it would lead to,
        # and comes before the code is built
        def refuse(*args, **kwargs):
            raise AssertionError("peg_construct reached")

        monkeypatch.setattr(cli, "peg_construct", refuse)
        assert main(["bench", "--code-n", "512", "--blocks", blocks, "--seed", "1"]) == 1
        assert capsys.readouterr().err == f"psqkd: error: --blocks must be >= 1, got {blocks}\n"


# header keys a command appends after its flags
DERIVED = {"montecarlo": ["n_accepted"], "rescale": ["g", "v_prime", "identity_defect"]}


@pytest.mark.parametrize("command", sorted(SMALL_ARGV))
def test_header_echoes_the_command_flags_in_order(tmp_path, command):
    # the subparser's flags in order, less those left unset, then the derived
    # keys; a seed or cutoff left unset is resolved by the run and echoed
    argv = [command, *SMALL_ARGV[command], "--format", "csv"]
    text = run_to_file(tmp_path, argv)
    parser, subs = build_parser(command)
    args = parser.parse_args(argv)
    flags = [a.dest for a in subs[command]._actions if a.dest not in ("help", *cli._OUTPUT)
             and (getattr(args, a.dest) is not None or a.dest in ("seed", "cutoff"))]
    assert list(read_header_params(text)) == flags + DERIVED.get(command, [])


def test_flag_vocabulary():
    # one _FLAGS entry per flag: every entry is used and has help, every
    # command's flags come from it, and no header echoes an output flag
    parser, subs = build_parser()
    used = {a.dest for p in subs.values() for a in p._actions} - {"help"}
    assert used == set(cli._FLAGS)
    assert set(cli._OUTPUT) <= set(cli._FLAGS)
    for dest, (option, _, help_text) in cli._FLAGS.items():
        assert option == "--" + dest.replace("_", "-")
        assert help_text.strip(), dest
    for name, p in subs.items():
        assert set(cli._COMMANDS[name][3]) <= set(cli._FLAGS), name
        assert all(a.help for a in p._actions), name
        argv = [name, "--out", "o.csv", "--format", "json", "--config", "c.cfg"]
        if "export" in cli._COMMANDS[name][3]:
            argv += ["--export", "rounds.txt"]
        assert not set(cli._echo(parser.parse_args(argv))) & set(cli._OUTPUT), name


def parser_actions(p):
    return [(type(a), a.option_strings, a.dest, a.default, a.type, a.choices, a.nargs,
             a.help) for a in p._actions]


@pytest.mark.parametrize("command", sorted(build_parser()[1]))
def test_one_command_parser_matches_the_full_one(command):
    full_parser, full = build_parser()
    parser, subs = build_parser(command)
    assert list(subs) == list(full)
    assert parser_actions(subs[command]) == parser_actions(full[command])
    assert subs[command].format_help() == full[command].format_help()
    assert parser.format_help() == full_parser.format_help()


def commands_with_flag(flag):
    _, subs = build_parser()
    return sorted(name for name, p in subs.items()
                  if any(flag in action.option_strings for action in p._actions))


@pytest.mark.parametrize("command", commands_with_flag("--eta-d"))
def test_every_eta_d_command_runs_a_lossy_counter(tmp_path, command):
    # a subcommand that accepts --eta-d must model that counter, not reject it
    assert main([command, *SMALL_ARGV[command], "--eta-d", "0.5",
                 "--out", str(tmp_path / "out.txt")]) == 0


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


# The benchmark's golden sweep artifacts, read here and never written.
GOLDEN_SWEEP = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "full" / "sweep"
# fig2 --d-step 2 --eta-d 0.5: its golden file predates the exact counter-loss
# sum and differs in 17 key_rate cells (within the benchmark's rtol), so the
# current bytes are pinned by digest instead.
FIG2_LOSSY_SHA256 = "8a3038dcb50845d24c042df8ea680e7201cfef6d183cc07083fe093e9ad62579"


class TestSweepBytes:
    """Whole sweeps byte for byte.  An argmax tie that flips (fig2_ideal k1 at
    118 km sits on a flat maximum) moves t_opt by 1.5e-4 relative, which a
    check within rtol 1e-6 on a few cells would not see."""

    @pytest.mark.parametrize("argv, names", [
        (["fig2", "--d-step", "1"], ["fig2_ideal.csv"]),
        (["fig3", "--d-step", "1"], ["fig3.csv"]),
        (["fig4"], ["fig4.csv", "fig4_optima.csv"]),
        (["fig6", "--d-step", "5"], ["fig6.csv"]),
    ])
    def test_sweep_equals_golden_bytes(self, tmp_path, argv, names):
        assert main(argv + ["--out", str(tmp_path / names[0])]) == 0
        for name in names:
            assert (tmp_path / name).read_bytes() == (GOLDEN_SWEEP / name).read_bytes(), name

    def test_lossy_fig2_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "fig2_lossy.csv"
        assert main(["fig2", "--d-step", "2", "--eta-d", "0.5", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG2_LOSSY_SHA256


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

    def test_lossy_on_off_oracle_at_the_working_point(self, tmp_path):
        # the paper's V = 20 (cutoff 207) seen through a lossy on-off counter
        text = run_to_file(tmp_path, ["oracle", "--on-off", "--eta-d", "0.7"])
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

    def test_bench_postselected_waterfall_sits_below_gaussian(self, tmp_path):
        """The paper's reconciliation claim on the shipped code's waterfall.

        On the 2^16 PEG code of rate 0.1 at SNR 0.40 (beta 0.412), k = 1 data
        decode where Gaussian data mostly do not.  Measured at 20 blocks per
        arm: seed 7 gave 1/20 against 15/20, seed 11 1/20 against 18/20 and
        seed 13 0/20 against 15/20, about 4 s wall each on two cores.  The
        margin is a one-sided Fisher exact test, p below 1e-3 (5.0e-6 at
        seed 7).  Norm-aware block LLRs (ROADMAP item 2) will move both
        waterfalls down in SNR, so this point must move with them.
        """
        blocks = 20
        text = run_to_file(tmp_path, [
            "bench", "--code-n", "65536", "--snr", "0.40", "--blocks", str(blocks),
            "--seed", "7"])
        _, rows = csv_rows(text)
        ok = {r[3]: [int(v) for v in r[4].split("/")] for r in rows}
        gauss, k1 = ok["Gaussian"], ok["non_gaussian(k=1, V=20, T=0.8)"]
        assert gauss[1] == k1[1] == blocks
        # P(k = 1 decodes >= k1[0] of the decoded blocks) under equal odds:
        # the hypergeometric tail of the 2x2 table with both margins fixed
        decoded = gauss[0] + k1[0]
        p = sum(math.comb(decoded, i) * math.comb(2 * blocks - decoded, blocks - i)
                for i in range(k1[0], min(decoded, blocks) + 1)) / math.comb(2 * blocks, blocks)
        assert k1[0] > gauss[0]
        assert p < 1e-3, f"Gaussian {gauss[0]}/{blocks}, k = 1 {k1[0]}/{blocks}, p = {p:.2g}"

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
