"""Tests for experiment runners: artifacts, checks, determinism."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from kpztails import airy, bridges, experiment
from kpztails.airy import laplace_exact, laplace_lhs
from kpztails.bounds import BoundQuery
from kpztails.experiment import (PRESETS, ExperimentConfig, preset_config,
                                 run_airy, run_all, run_moments, run_simulate)
from kpztails.initial_data import NarrowWedge, scale_center_height
from kpztails.she import (convolve_upsilon_with_f, solve_she_ensemble,
                          wedge_readout_times)

# small enough for the whole bundle to run in about a second
TINY = dict(n_samples=60, s_grid=(1.0, 2.0), moments_k=(1, 2),
            moments_T=(1.0,), extent=3.0)


@pytest.fixture(scope="module")
def tiny_cfg():
    return ExperimentConfig(**TINY)


@pytest.fixture(scope="module")
def bundle(tiny_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    summary = run_all(tiny_cfg, seed=0, out_dir=out)
    return out, summary


@pytest.fixture(scope="module")
def wedge_z(tiny_cfg):
    """The bundle's raw narrow-wedge Z(2T, 0), recomputed from its stream."""
    cfg = tiny_cfg.solver()
    wedge = solve_she_ensemble(
        NarrowWedge(), tiny_cfg.T, cfg,
        seed=experiment._stream_seed(0, "narrow_wedge"),
        n_replicas=tiny_cfg.n_samples,
        probe_times=wedge_readout_times(tiny_cfg.T, cfg), probe_x=cfg.x_grid)
    return convolve_upsilon_with_f(wedge, NarrowWedge(), tiny_cfg.T, cfg)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_samples(path):
    _, rows = _read_csv(path)
    return np.array([float(r[1]) for r in rows])


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(initials=("wedge",)),
        dict(n_samples=1),
        dict(T=0.0),
        dict(s_grid=(1.0, -2.0)),
        # tail thresholds and times must be finite as well as positive
        dict(s_grid=(1.0, math.nan)),
        dict(s_grid=(math.inf,)),
        dict(T=math.inf),
        # the lattices the runners build
        dict(dt=0.01),
        dict(extent=0.01),
        dict(extent=math.inf),
        dict(dx=math.inf),
        # the narrow-wedge composition reads the field one step before 2T
        dict(T=1e-4),
        # the envelope parameters every theorem family checks
        dict(eps=0.4),
        dict(mu=0.6),
        dict(zeta=0.2),
        dict(constants={"K": -1.0}),
        dict(constants={"s0": math.nan}),
        # the rules nothing else states
        dict(alpha=2.0),
        dict(alpha=0.0),
        dict(moments_k=(7,)),
        dict(moments_k=(0,)),
        dict(moments_k=(1.5,)),
        dict(moments_T=(0.0,)),
        dict(moments_T=(-4.0,)),
        dict(airy_s=(0.0, math.nan)),
        dict(s_grid=()),
        dict(initials=()),
        dict(airy_s=()),
        dict(moments_k=()),
        dict(moments_T=()),
        dict(constants={"k": 5.0}),
        # counts must be integers, not merely integral floats
        dict(n_samples=40.0),
        dict(gibbs_n=200.0),
        dict(airy_n=300.0),
        dict(airy_N=512.0),
        # the fields no section reads keep their checks, and the rules
        # above hold for the airy levels, alpha and moments_T too
        dict(gibbs_n=1),
        dict(airy_n=1),
        dict(airy_N=True),
        dict(airy_s=(math.inf,)),
        dict(alpha=math.nan),
        dict(moments_T=(math.inf,)),
        # bool is an int subclass: true would run as 1
        dict(T=True),
        dict(airy_n=True),
        dict(extent=True),
        dict(moments_k=(True,)),
        dict(s_grid=(2.0, True)),
        dict(constants={"K": True, "K1": 1.0, "K2": 1.0, "s0": 0.0}),
        # a repeated entry repeats its rows and verdicts
        dict(initials=("flat", "flat")),
        dict(s_grid=(1.0, 2.0, 1.0)),
        dict(s_grid=(1, 1.0)),
        dict(airy_s=(0.0, 0.0)),
        dict(moments_k=(1, 2, 1)),
        dict(moments_T=(4.0, 4.0)),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_threshold_override_rejected(self, value):
        with pytest.raises(ValueError, match="finite and positive"):
            preset_config("smoke", {"s_grid": [value]})

    def test_presets_exist(self):
        assert set(PRESETS) == {"smoke", "full"}
        assert PRESETS["full"].n_samples > PRESETS["smoke"].n_samples

    def test_preset_overrides(self):
        cfg = preset_config("smoke", {"n_samples": 77, "s_grid": [1.0, 3.0]})
        assert cfg.n_samples == 77
        assert cfg.s_grid == (1.0, 3.0)

    def test_overrides_not_mutated(self):
        overrides = {"s_grid": [1.0, 3.0]}
        preset_config("smoke", overrides)
        assert overrides == {"s_grid": [1.0, 3.0]}

    def test_configs_do_not_share_constants(self):
        a, b = preset_config("smoke"), preset_config("smoke")
        assert a.constants is not b.constants
        assert a.constants is not PRESETS["smoke"].constants
        a.constants["s0"] = 5.0
        assert b.constants["s0"] == PRESETS["smoke"].constants["s0"] != 5.0

    def test_config_does_not_share_callers_constants(self):
        d = {"K": 2.0, "K1": 1.0, "K2": 1.0, "s0": 0.0}
        cfg = ExperimentConfig(constants=d)
        d["s0"] = 5.0
        assert cfg.constants["s0"] == 0.0

    def test_unknown_override_field_rejected(self):
        with pytest.raises(ValueError, match=r"unknown config fields: \['bogus'\]"):
            preset_config("smoke", {"bogus": 1, "n_samples": 77})

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("huge")

    def test_solver_uses_config_lattice(self, tiny_cfg):
        sc = tiny_cfg.solver()
        assert sc.dx == tiny_cfg.dx and sc.extent == tiny_cfg.extent

    def test_query_uses_config_parameters(self):
        cfg = ExperimentConfig(T=4.0, eps=0.2, delta=0.15, mu=0.25, zeta=0.1,
                               constants={"K": 2.0, "K1": 3.0, "K2": 5.0,
                                          "s0": 0.7})
        q = cfg.query("nw_upper", 1.5)
        assert (q.theorem, q.s, q.T, q.eps, q.delta, q.mu, q.zeta) == (
            "nw_upper", 1.5, 4.0, 0.2, 0.15, 0.25, 0.1)
        assert q.constants == cfg.constants
        assert q.constants is not cfg.constants


class TestBundle:
    def test_all_sections_pass(self, bundle):
        _, summary = bundle
        assert summary["status"] == "pass"
        assert list(summary["sections"]) == ["simulate", "report", "bounds",
                                             "moments", "airy"]

    def test_sample_artifacts(self, bundle, tiny_cfg):
        out, _ = bundle
        for name in tiny_cfg.initials:
            header, rows = _read_csv(out / f"samples_{name}.csv")
            assert header == ["replica", "value"]
            assert len(rows) == tiny_cfg.n_samples
            assert [int(r[0]) for r in rows] == list(range(len(rows)))
            assert all(math.isfinite(float(r[1])) for r in rows)

    def test_simulate_first_moment_check(self, bundle, wedge_z, tiny_cfg,
                                         tmp_path):
        out, _ = bundle
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert summary["checks"]["first_moment_z"] is True
        nw = summary["stats"]["narrow_wedge"]
        assert abs(nw["z_mean"] - nw["z_exact"]) <= 3.0 * nw["z_se"]
        # the check reads the raw wedge readout, not Z rebuilt from heights
        assert nw["z_mean"] == float(wedge_z.mean())
        assert nw["z_se"] == float(wedge_z.std(ddof=1)
                                   / math.sqrt(wedge_z.size))
        # the bundle's 60 replicas cannot tell the two apart (the round trip
        # exp(T^{1/3} h - T/12) leaves their mean and SE on the same doubles),
        # so also judge a heavy-tailed hand-built Z whose mean and SE the
        # round trip moves in the last bits
        T = tiny_cfg.T
        z = nw["z_exact"] * np.random.default_rng(0).lognormal(0.0, 3.0, 60)
        h = scale_center_height(z, T, NarrowWedge())
        rebuilt = np.exp(T ** (1.0 / 3.0) * h - T / 12.0)
        assert rebuilt.mean() != z.mean()
        assert rebuilt.std(ddof=1) != z.std(ddof=1)
        hand = run_simulate(tiny_cfg, 0, tmp_path,
                            samples={name: z for name in tiny_cfg.initials})
        hand_nw = hand["stats"]["narrow_wedge"]
        assert hand_nw["z_mean"] == float(z.mean())
        assert hand_nw["z_se"] == float(z.std(ddof=1) / math.sqrt(z.size))

    def test_bounds_table_covers_every_theorem(self, bundle, tiny_cfg):
        out, _ = bundle
        header, rows = _read_csv(out / "bounds.csv")
        assert header == ["theorem", "s", "T", "value", "value_lower",
                          "regime", "c1", "c2", "validity_note"]
        # one row per (theorem, s)
        assert len(rows) == len(BoundQuery.THEOREMS) * len(tiny_cfg.s_grid)
        theorems = {r[0] for r in rows}
        assert theorems == {"general_lower", "nw_lower", "nw_upper",
                            "general_upper", "brownian_lower",
                            "brownian_upper", "nw_upper_laplace"}
        s_seen = {float(r[1]) for r in rows}
        assert s_seen == set(tiny_cfg.s_grid)

    def test_moments_artifact(self, bundle, tiny_cfg):
        out, _ = bundle
        header, rows = _read_csv(out / "moments.csv")
        assert header == ["k", "T", "moment", "psi", "psi69", "in_sandwich",
                          "quad_error"]
        assert len(rows) == len(tiny_cfg.moments_k) * len(tiny_cfg.moments_T)
        for r in rows:
            k, T = int(r[0]), float(r[1])
            lo, val, hi = float(r[3]), float(r[2]), float(r[4])
            # lower sandwich constant degrades below T = pi
            c = 1.0 if T > math.pi else T ** ((k - 1) / 2.0) * math.pi ** (-k / 2.0)
            assert r[5] == "True"
            assert c * lo <= val * (1.0 + 1e-9) and val <= hi * (1.0 + 1e-9)

    def test_airy_artifact(self, bundle, tiny_cfg):
        out, _ = bundle
        header, rows = _read_csv(out / "airy.csv")
        assert header == ["s", "T", "lhs", "rhs", "se_lhs", "quad_error",
                          "nodes", "within_tolerance"]
        assert len(rows) == len(tiny_cfg.airy_s)
        for r in rows:
            lhs, rhs = float(r[2]), float(r[3])
            se_l, quad_error = float(r[4]), float(r[5])
            assert r[7] == "True"
            assert (rhs, quad_error, int(r[6])) == laplace_exact(
                float(r[0]), float(r[1]))
            assert abs(lhs - rhs) <= 3.0 * se_l + quad_error
            assert 0.0 <= lhs <= 1.0 and 0.0 < rhs < 1.0
        summary = json.loads((out / "airy_summary.json").read_text())
        assert set(summary) == {"artifacts", "checks", "command", "preset",
                                "seed", "status"}

    def test_airy_judges_the_narrow_wedge_samples(self, bundle, tiny_cfg):
        out, _ = bundle
        ups = _read_samples(out / "samples_narrow_wedge.csv")
        _, rows = _read_csv(out / "airy.csv")
        for r in rows:
            s, T = float(r[0]), float(r[1])
            assert T == tiny_cfg.T
            assert float(r[2]) == laplace_lhs(ups, s=s, T=T).value

    def test_report_artifact(self, bundle, tiny_cfg):
        out, _ = bundle
        header, rows = _read_csv(out / "report.csv")
        summary = json.loads((out / "report_summary.json").read_text())
        # three initials x two theorems x each s, one upper cell per query
        expected = len(tiny_cfg.initials) * 2 * len(tiny_cfg.s_grid)
        assert len(rows) == expected
        assert sum(summary["verdicts"].values()) == expected
        assert summary["verdicts"]["VIOLATION"] == 0
        verdict_col = header.index("verdict")
        assert {r[verdict_col] for r in rows} <= {"CONSISTENT",
                                                  "UNTESTABLE-AT-SCALE"}

    def test_rerun_byte_identical(self, bundle, tiny_cfg, tmp_path):
        out, _ = bundle
        out2 = tmp_path / "again"
        run_all(tiny_cfg, seed=0, out_dir=out2)
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_changes_samples(self, tiny_cfg, tmp_path):
        a = run_simulate(tiny_cfg, 0, tmp_path / "a")
        b = run_simulate(tiny_cfg, 1, tmp_path / "b")
        assert (a["stats"]["narrow_wedge"]["mean"]
                != b["stats"]["narrow_wedge"]["mean"])


class TestAiryCheck:
    def test_shifted_samples_fail(self, wedge_z, tiny_cfg, tmp_path):
        # seed 0's tiny bundle first fails at shifts of +0.61 and -0.12 (on
        # a 0.01 grid); a slack on the check, such as the 0.05 it once
        # had, lets both of these pass
        for delta in (0.62, -0.13):
            # a height shift of delta scales Z by exp(T^{1/3} delta)
            shifted = wedge_z * math.exp(tiny_cfg.T ** (1.0 / 3.0) * delta)
            summary = run_airy(tiny_cfg, 0, tmp_path,
                               samples={"narrow_wedge": shifted})
            assert summary["checks"] == {"laplace_identity": False}, delta
            assert summary["status"] == "fail"

    def test_unconverged_determinant_fails(self, wedge_z, tiny_cfg, tmp_path,
                                           monkeypatch):
        # 60 and 120 nodes disagree by 2e-5 to 3e-4 at the tiny levels,
        # so the determinant stops unconverged and the check must fail
        monkeypatch.setattr(airy, "_DET_NODES_MAX", 120)
        summary = run_airy(tiny_cfg, 0, tmp_path,
                           samples={"narrow_wedge": wedge_z})
        assert summary["checks"] == {"laplace_identity": False}
        _, rows = _read_csv(tmp_path / "airy.csv")
        assert all(r[3] == "nan" and r[7] == "False" for r in rows)

    @pytest.mark.parametrize("initials", [("narrow_wedge", "flat", "brownian"),
                                          ("flat",)])
    def test_standalone_matches_bundle(self, bundle, tiny_cfg, tmp_path,
                                       initials):
        # without samples, the section simulates the narrow wedge on its
        # own stream, so it writes what run_all writes
        out, _ = bundle
        run_airy(replace(tiny_cfg, initials=initials), 0, tmp_path)
        assert ((tmp_path / "airy.csv").read_bytes()
                == (out / "airy.csv").read_bytes())


class TestRunScope:
    def test_run_all_draws_no_gue_matrices_and_no_gibbs_paths(
            self, tiny_cfg, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run called a Monte Carlo route it dropped")

        for module, name in ((airy, "sample_gue_edge_many"),
                             (airy, "laplace_rhs"),
                             (bridges, "gibbs_resample")):
            monkeypatch.setattr(module, name, refuse)
        summary = run_all(tiny_cfg, 0, tmp_path)
        assert summary["status"] == "pass"
        assert not any(p.name.startswith("gibbs") for p in tmp_path.iterdir())

    def test_flat_only_simulate_judges_the_wedge(self, bundle, tiny_cfg,
                                                 tmp_path):
        # the first-moment oracle reads the narrow-wedge readout that every
        # run makes, whatever initials lists
        out, _ = bundle
        summary = run_simulate(replace(tiny_cfg, initials=("flat",)), 0,
                               tmp_path)
        assert summary["checks"] == {"first_moment_z": True}
        full = json.loads((out / "simulate_summary.json").read_text())
        wedge = full["stats"]["narrow_wedge"]
        assert summary["stats"]["narrow_wedge"] == {
            k: wedge[k] for k in ("z_mean", "z_se", "z_exact")}
        assert set(summary["stats"]) == {"narrow_wedge", "flat"}


class TestStreams:
    def test_seeds_share_no_solver_stream(self, tiny_cfg, tmp_path,
                                          monkeypatch):
        # a run makes one narrow-wedge ensemble whatever its initials, on
        # replica streams that no ensemble of another seed draws from
        real = experiment.solve_she_ensemble
        calls = []

        def record(*args, **kwargs):
            calls.append((args[0], kwargs["seed"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "solve_she_ensemble", record)
        used = {}
        for seed in (0, 3):
            for initials in (tiny_cfg.initials, ("flat",)):
                calls.clear()
                run_all(replace(tiny_cfg, initials=initials), seed,
                        tmp_path / f"{seed}{len(initials)}")
                assert [type(initial) for initial, _ in calls] == [NarrowWedge]
                used.setdefault(seed, calls[0][1])
                assert calls[0][1] == used[seed]
        assert used[0] != used[3]


class TestPartialRuns:
    @pytest.mark.parametrize("lattice", [dict(dx=0.06, extent=4.0),
                                         dict(extent=4.03),
                                         dict(dx=0.1, extent=0.3)])
    def test_lattice_end_site_past_extent(self, lattice, tmp_path):
        # the whole-field readout reaches dx * round(extent / dx) > extent
        cfg = ExperimentConfig(**{**TINY, **lattice})
        experiment.run_simulate(cfg, 0, tmp_path)
        for name in cfg.initials:
            samples = _read_samples(tmp_path / f"samples_{name}.csv")
            assert samples.size == cfg.n_samples
            assert np.all(np.isfinite(samples))

    def test_moments_closed_form_check(self, tmp_path):
        cfg = ExperimentConfig(**{**TINY, "moments_k": (1,),
                                  "moments_T": (0.5, 2.0)})
        summary = run_moments(cfg, 0, tmp_path)
        assert summary["checks"]["k1_closed_form"] is True
        _, rows = _read_csv(tmp_path / "moments.csv")
        for r in rows:
            T = float(r[1])
            closed = math.exp(T / 12.0) / (2.0 * math.sqrt(math.pi * T))
            assert float(r[2]) == pytest.approx(closed, abs=1e-10)

    def test_moments_closed_form_check_is_relative(self, tmp_path,
                                                   monkeypatch):
        # at T = 300 the moment is 1.2e9, so rounding alone exceeds any
        # fixed absolute tolerance of 1e-8; at T = 8550, inside
        # moment_in_range, e^{T/12} alone exceeds the float range
        cfg = ExperimentConfig(**{**TINY, "moments_k": (1,),
                                  "moments_T": (300.0, 1000.0, 8550.0)})
        assert run_moments(cfg, 0, tmp_path)["checks"]["k1_closed_form"]
        real = experiment.moment_exact

        def perturbed(k, T):
            res = real(k, T)
            return replace(res, value=res.value * (1.0 + 1e-6))

        monkeypatch.setattr(experiment, "moment_exact", perturbed)
        summary = run_moments(cfg, 0, tmp_path)
        assert summary["checks"]["k1_closed_form"] is False
        assert summary["status"] == "fail"
