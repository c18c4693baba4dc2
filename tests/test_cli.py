"""Tests for the kpz-tails command line interface."""

import json
import re
import subprocess
import sys

import pytest

from kpztails import cli, she

TINY = {"n_samples": 60, "s_grid": [1.0, 2.0], "moments_k": [1, 2],
        "moments_T": [1.0], "extent": 3.0}


@pytest.fixture()
def tiny_json(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


class TestMain:
    def test_moments_exits_zero(self, tmp_path, capsys):
        rc = cli.main(["moments", "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "moments/psi_sandwich: pass" in out
        assert "moments: pass" in out
        assert (tmp_path / "moments.csv").exists()

    def test_config_overrides_applied(self, tmp_path, tiny_json, capsys):
        # simulate's 3-SE first-moment check on 60 skewed replicas fails by
        # chance at about 4% of seeds (11 of seeds 0-299, among them 3); 4
        # is not one of them
        rc = cli.main(["simulate", "--config", str(tiny_json),
                       "--out-dir", str(tmp_path), "--seed", "4"])
        assert rc == 0
        samples = (tmp_path / "samples_flat.csv").read_text().splitlines()
        assert len(samples) == 1 + TINY["n_samples"]

    def test_report_prints_verdict_counts(self, tmp_path, tiny_json, capsys):
        rc = cli.main(["report", "--config", str(tiny_json),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "report/verdict CONSISTENT:" in out
        assert "report/no_envelope_violation: pass" in out

    def test_failing_check_exits_one(self, tmp_path, monkeypatch, capsys):
        def fake_runner(config, seed, out_dir):
            """Synthetic failing section."""
            return {"status": "fail", "checks": {"synthetic": False},
                    "artifacts": []}
        monkeypatch.setitem(cli._RUNNERS, "moments", fake_runner)
        rc = cli.main(["moments", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "moments/synthetic: FAIL" in capsys.readouterr().out

    def test_all_prints_one_line_per_section(self, tmp_path, tiny_json,
                                             capsys):
        rc = cli.main(["all", "--config", str(tiny_json),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        for section in ("simulate", "report", "bounds", "moments", "airy"):
            assert re.search(rf"^all/{section}: pass \(\d+\.\d s\)$", out,
                             re.MULTILINE), section
        assert f"all/solver threads: {she.usable_cores()}\n" in out
        assert "all: pass" in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "wall_s" not in summary and "solver_threads" not in summary

    def test_dx_override_sets_the_time_step(self, tmp_path):
        # dt follows dx as dx^2/2 unless set; a set dt is still checked
        # (test_bad_config_exits_two)
        path = tmp_path / "dx.json"
        path.write_text('{"dx": 0.02, "n_samples": 10}')
        rc = cli.main(["bounds", "--config", str(path),
                       "--out-dir", str(tmp_path)])
        assert rc == 0

    @pytest.mark.parametrize("text, message", [
        ('{"bogus": 1}', "unknown config fields: ['bogus']"),
        ('{"airy_T": 2}', "unknown config fields: ['airy_T']"),
        ('{"n_samples": 1}', "sample counts must be at least 2"),
        ('{"n_samples": 40.0}', "counts must be integers: ['n_samples']"),
        # --preset chooses the preset; a field of that name would only
        # relabel the summaries
        ('{"preset": "full"}', "preset is chosen by name"),
        ('["n_samples"]', "config must be a JSON object"),
        ('{"n_samples": ', "Expecting value"),
        (None, "No such file"),
        # the whole config is checked before any section runs
        ('{"s_grid": [1.0, NaN]}', "finite and positive"),
        ('{"T": Infinity}', "finite and positive"),
        ('{"s_grid": ["1"]}', "must be real number, not str"),
        ('{"dt": 0.01}', "stability requires"),
        ('{"alpha": 2}', "alpha must lie in (0, 1)"),
        ('{"moments_k": [7]}', "moments_k must lie in [1, 6]"),
        ('{"moments_k": []}', "empty grids: ['moments_k']"),
        ('{"initials": []}', "empty grids: ['initials']"),
        ('{"airy_s": []}', "empty grids: ['airy_s']"),
        ('{"constants": {"k": 5}}', "unknown constants: ['k']"),
        ('{"constants": {"s0": NaN}}', "constants must be finite"),
        # would end in an OverflowError in the solver
        ('{"extent": Infinity}', "extent must be finite"),
        ('{"T": 1e308}', "2T/dt = inf must be finite"),
        # would end in the solver's ValueError: 2T - dt and 2T round to
        # one step multiple
        ('{"T": 1e13}', "distinct step multiples"),
        # would end in an OverflowError in moment_exact
        ('{"moments_T": [2000.0]}',
         "moments exceed float range at (k, T) = [(2, 2000.0)]"),
        # the fields that went with the Gibbs section and the GUE draws,
        # and the checks kept on the fields that no section reads
        ('{"airy_K": 10}', "unknown config fields: ['airy_K']"),
        ('{"gibbs_wall": -0.3}', "unknown config fields: ['gibbs_wall']"),
        ('{"airy_n": 1}', "sample counts must be at least 2"),
        ('{"airy_N": 512.0}', "counts must be integers: ['airy_N']"),
        # true would run as 1 and be written as True
        ('{"T": true}', "booleans are not numbers: ['T']"),
        ('{"moments_k": [true]}', "booleans are not numbers: ['moments_k']"),
        ('{"gibbs_n": true}', "booleans are not numbers: ['gibbs_n']"),
        ('{"constants": {"K1": true}}',
         "booleans are not numbers: ['constants']"),
        # a repeated entry repeats its rows and verdicts
        ('{"initials": ["flat", "flat"]}',
         "duplicate grid entries: ['initials']"),
        ('{"s_grid": [1.0, 1.0]}', "duplicate grid entries: ['s_grid']"),
        # a K2 this small puts nw_lower's lower envelope above its upper one
        ('{"s_grid": [3.0], "constants": {"K1": 1.0, "K2": 0.001}}',
         "lower envelope must lie in [0, 0.43"),
    ])
    def test_bad_config_exits_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", "--config", str(path), "--out-dir", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_dir_under_a_file_exits_two(self, tmp_path, capsys, sub):
        # exit 1 means a failed check, so a path that cannot be a
        # directory is a usage error, found before any section runs
        path = tmp_path / "file"
        path.write_text("kept")
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--out-dir", str(path / sub)])
        assert exc.value.code == 2
        assert "--out-dir" in capsys.readouterr().err
        assert path.read_text() == "kept"

    @pytest.mark.parametrize("command", sorted(cli._RUNNERS))
    def test_negative_seed_exits_two(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--seed", "-1", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "--seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_threshold_reports(self, tmp_path):
        # every envelope term is exactly 0 at s = 1e200, not an overflow
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "s_grid": [1e200]}))
        rc = cli.main(["report", "--config", str(path),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["moments", "--preset", "gigantic",
                      "--out-dir", str(tmp_path)])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_gibbs_and_airy_and_bounds(self, tmp_path, tiny_json, capsys):
        # the gibbs section is retired: its command is a usage error
        with pytest.raises(SystemExit) as exc:
            cli.main(["gibbs", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'gibbs'" in capsys.readouterr().err
        for cmd in ("airy", "bounds"):
            rc = cli.main([cmd, "--config", str(tiny_json),
                           "--out-dir", str(tmp_path)])
            assert rc == 0
        assert (tmp_path / "airy.csv").exists()
        assert (tmp_path / "bounds.csv").exists()
        assert not (tmp_path / "gibbs_paths.csv").exists()


    def test_flat_only_simulate_matches_all(self, tmp_path, tiny_json):
        # flat samples are composed from the run's narrow-wedge ensemble,
        # whatever else the run simulates or writes
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({**TINY, "initials": ["flat"]}))
        assert cli.main(["simulate", "--config", str(path),
                         "--out-dir", str(tmp_path / "flat")]) == 0
        assert cli.main(["all", "--config", str(tiny_json),
                         "--out-dir", str(tmp_path / "all")]) == 0
        assert ((tmp_path / "flat" / "samples_flat.csv").read_bytes()
                == (tmp_path / "all" / "samples_flat.csv").read_bytes())


class TestInstalledScript:
    def test_module_invocation(self, tmp_path, tiny_json):
        proc = subprocess.run(
            [sys.executable, "-m", "kpztails.cli", "bounds",
             "--config", str(tiny_json), "--out-dir", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "bounds: pass" in proc.stdout
