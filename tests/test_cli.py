import csv
import dataclasses
import hashlib
import inspect
import json
import math
import multiprocessing
import re
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from duogame import cli, runner
from duogame import gsa as gsa_module
from duogame.cli import build_parser, main
from duogame.config import config_from_dict, config_to_dict, default_config, load_config
from duogame.errors import ConfigError, IncompleteGameError, ParameterError, ReplicationError
from duogame.factors import FACTORS
from duogame.game import EmpiricalGame, StrategySpace
from duogame.gsa import stability_analysis
from duogame.market import MarketParams
from duogame.reporting import read_payoff_matrix, write_payoff_matrix
from duogame.runner import (
    PASS_ROWS,
    CostRates,
    SimulationSettings,
    replication_seeds,
    run_replication,
)
from game_tools import game_from_matrices

TOPUP_CONFIG = Path(__file__).parent / "golden" / "topup_gsa_config.json"

DESK_CONFIG = {
    "master_seed": 99,
    "run_length_days": 25,
    "warmup_days": 10,
    "agents": 50,
    "sampling": {"initial_n": 3, "trim_per_tail": 0, "cap": 3,
                 "ecvi_floor": 1e9},
    "gsa": {"stability_steps": 40, "tolerance_grid": [0.0, 500.0],
            "neighbor_count": 2},
    "schedule": [{"g": 1, "factors": [{"name": "pricing"},
                                      {"name": "marketing"}]}],
}


@pytest.fixture
def desk_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DESK_CONFIG))
    return path


def written_files(out) -> dict:
    """Every file under ``out`` by its path there, a JSON file parsed and its
    report's ``runtime_seconds`` dropped."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = json.loads(data)
            if isinstance(data.get("report"), dict):
                data["report"].pop("runtime_seconds")
        files[path.relative_to(out).as_posix()] = data
    return files


class TestLoadConfig:
    def test_defaults_materialized(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        config = load_config(path)
        assert config.sampling.initial_n == 70
        assert config.sampling.trim_per_tail == 10
        assert config.settings.run_length_days == 100
        assert config.settings.n_agents == 200
        assert len(config.schedule) == 5
        # echo back the fully resolved tree
        echoed = config_to_dict(config)
        assert echoed["sampling"]["initial_n"] == 70

    def test_defaults_pinned(self):
        # a changed default changes every default run's results and turns
        # every checkpoint written under the defaults stale
        config = default_config()
        tree = json.dumps(config_to_dict(config), sort_keys=True)
        assert config.fingerprint() == "0e7528dae9d2ab38"
        assert hashlib.sha256(tree.encode()).hexdigest() == (
            "ff26434fde0b090d4519a0563072a99a863a42ce9701b517937c55fcc2fe4d40")

    def test_every_settings_key_reaches_its_field(self):
        data = {"run_length_days": 80, "dt": 0.5, "agents": 60,
                "network": {"m0": 4, "m": 2, "population_seed": 7},
                "per_capita_demand": 1.5, "marketing_period": 5,
                "initial_stock_fraction": 0.5, "deterministic_marketing": True,
                "fixed_share_split": 0.4, "sunk_cost_mode": "own",
                "warmup_days": 20, "truncate_warmup": True,
                "company_defaults": {"mb_pct": 0.2, "ad_range": [0.1, 0.2],
                                     "pm_range": [0.3, 0.4]},
                "schema_version": 1, "master_seed": 5, "out_dir": "elsewhere",
                "jobs": 2, "default_profile": {"pricing": "H"}}
        echoed = config_to_dict(config_from_dict(data))
        assert {key: echoed[key] for key in data} == data

    def test_default_schedule_is_paper_shape(self):
        config = default_config()
        sizes = [len(p.strategy_labels()) for p in config.schedule]
        assert sizes == [16, 16, 16, 16, 16]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_range_violation_names_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sd_defaults": {"price_sens_invcov": 0.5}}))
        with pytest.raises(ConfigError, match="price_sens_invcov"):
            load_config(path)

    @pytest.mark.parametrize("cap", [-5.0, float("nan")], ids=["negative", "nan"])
    def test_bad_layoff_cap_exits_2(self, tmp_path, capsys, cap):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sd_defaults": {"max_layoff_rate": cap}}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "max_layoff_rate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("band,name", [
        ({"mp_floor_ratio": float("nan")}, "mp_floor_ratio"),
        ({"mp_floor_ratio": -1.0}, "mp_floor_ratio"),
        ({"mp_floor_ratio": 0.0}, "mp_floor_ratio"),
        ({"mp_floor_ratio": 6.0, "mp_cap_ratio": 5.0}, "mp_cap_ratio"),
        ({"mp_cap_ratio": float("nan")}, "mp_cap_ratio")],
        ids=["nan-floor", "negative-floor", "zero-floor", "floor-over-cap", "nan-cap"])
    def test_bad_price_band_exits_2(self, tmp_path, capsys, band, name):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sd_defaults": band}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_dt_must_divide_a_day(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dt": 0.3}))  # 3 sub-steps make 0.9 days
        with pytest.raises(ConfigError, match="dt"):
            load_config(path)
        path.write_text(json.dumps({"dt": 0.125}))
        assert load_config(path).settings.dt == 0.125

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"agnets": 100}))
        with pytest.raises(ConfigError, match="agnets"):
            load_config(path)

    def test_unknown_nested_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"market": {"weight_of_evidence": 1}}))
        with pytest.raises(ConfigError, match="weight_of_evidence"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_run_length_must_exceed_warmup(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"run_length_days": 30}))  # warm-up is 50
        with pytest.raises(ConfigError, match="warm-up"):
            load_config(path)

    def test_negative_warmup_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"warmup_days": -5, "truncate_warmup": True,
                                    "run_length_days": 20}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == \
            "error: warmup_days must be >= 0, got -5"
        assert not out.exists()
        with pytest.raises(ParameterError, match="warmup_days"):
            SimulationSettings(run_length_days=20, warmup_days=-5).validate()


    @pytest.mark.parametrize("config, match", [
        ({"gsa": {"stability_steps": 9}}, "stability_steps"),
        ({"gsa": {"stability_noise": "bogus"}}, "stability_noise"),
        ({"gsa": {"stability_update": "bogus"}}, "stability_update"),
        ({"gsa": {"epsilon_solve": -1.0}}, "epsilon"),
        ({"gsa": {"epsilon_stability": -3.0}}, "epsilon"),
        ({"gsa": {"tolerance_grid": [0.0, -500.0]}}, "tolerance_grid"),
        ({"gsa": {"neighbor_count": -1}}, "neighbor_count"),
        ({"gsa": {"alpha": 0.0}}, "alpha"),
        ({"gsa": {"alpha": 1.0}}, "alpha"),
        ({"gsa": {"max_iterations": 0}}, "max_iterations"),
        ({"sampling": {"trim_per_tail": -1}}, "trim_per_tail"),
    ], ids=["steps", "noise", "update", "epsilon_solve", "epsilon_stability",
            "tolerance_grid", "neighbor_count", "alpha_zero", "alpha_one",
            "max_iterations", "trim_per_tail"])
    def test_gsa_setting_rejected(self, tmp_path, config, match):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        assert main(["gsa", "--config", str(path),
                     "--out", str(tmp_path / "g")]) == 2
        assert not (tmp_path / "g").exists()

    NINE = ["vac_creation_time", "layoff_time", "labor_fulfillment_time",
            "wip_fulfillment_time", "inv_fulfillment_time", "rm_lead_time",
            "safety_stock_cov", "rm_inventory_cov", "price_sens_cost"]

    @pytest.mark.parametrize("factors, match", [
        (NINE, "schedule entry 1: 9 two-level factors exceed"),
        ([], "schedule entry 1 lists no factors"),
        (["pricing", {"name": "marketing", "levels": ["L", "ML", "MH", "H"]}],
         "schedule entry 1: mixed level counts"),
        (["pricing", "marketing", "pricing"], "schedule entry 1: duplicate strategy"),
    ], ids=["nine-two-level", "empty", "mixed-levels", "factor-twice"])
    def test_schedule_plan_rejected(self, tmp_path, factors, match):
        # every plan is checked at load, before the first iteration runs
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schedule": [{"factors": ["pricing", "marketing"]},
                                                 {"factors": factors}]}))
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        assert main(["gsa", "--config", str(path),
                     "--out", str(tmp_path / "g")]) == 2
        assert not (tmp_path / "g").exists()

    def test_empty_initial_plan_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schedule": None, "initial_plan": {"factors": []}}))
        with pytest.raises(ConfigError, match="initial_plan lists no factors"):
            load_config(path)
        assert main(["gsa", "--config", str(path),
                     "--out", str(tmp_path / "g")]) == 2
        assert not (tmp_path / "g").exists()

    def test_gsa_settings_at_their_bounds_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gsa": {
            "stability_steps": 10, "stability_noise": "none",
            "stability_update": "simultaneous", "epsilon_solve": 0.0,
            "epsilon_stability": 0.0, "tolerance_grid": [0.0],
            "neighbor_count": 0, "alpha": 0.5, "max_iterations": 1}}))
        assert load_config(path).gsa.stability_steps == 10

    def test_cap_past_the_replication_indices_refused(self, tmp_path, capsys):
        # a profile's replication indices lie below 2**32, one spawn-key word
        # each (runner.replication_seeds), so a larger cap is refused at
        # load, before any replication runs, rather than by the top-up that
        # asks for indices past it. The desk config's ecvi_floor tops up
        # nothing, and load_config is checked first, so no run starts
        # while the check is missing
        path = tmp_path / "c.json"
        sampling = {**DESK_CONFIG["sampling"], "cap": 2 ** 32 + 1}
        path.write_text(json.dumps({**DESK_CONFIG, "sampling": sampling}))
        with pytest.raises(ConfigError, match="sampling.cap"):
            load_config(path)
        out = tmp_path / "g"
        assert main(["gsa", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sampling.cap" in err
        assert not (out / "checkpoints").exists() and not out.exists()

    def test_cap_at_the_replication_index_limit_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sampling": {"cap": 2 ** 32}}))
        assert load_config(path).sampling.cap == 2 ** 32


class TestMatrixRoundTrip:
    def build_game(self):
        rng = np.random.default_rng(7)
        space = StrategySpace([{"i": k} for k in range(4)])
        game = EmpiricalGame(space)
        for p in game.profiles():
            game.set_samples(p, rng.normal(100, 9, size=12),
                             rng.normal(95, 7, size=12))
        return game

    def test_incomplete_game_is_not_written(self, tmp_path):
        game = EmpiricalGame(StrategySpace([{"i": k} for k in range(3)]))
        game.set_samples((0, 0), [1.0], [2.0])
        with pytest.raises(IncompleteGameError) as err:
            write_payoff_matrix(game, tmp_path / "m.csv")
        assert err.value.missing == game.missing_profiles() and len(err.value.missing) == 5
        assert not (tmp_path / "m.csv").exists()

    def test_stats_survive_exactly(self, tmp_path):
        game = self.build_game()
        path = tmp_path / "m.csv"
        write_payoff_matrix(game, path)
        back = read_payoff_matrix(path)
        for name in ("mean", "count", "var"):
            assert np.array_equal(getattr(game, name), getattr(back, name)), name

    def test_rewrite_is_byte_identical(self, tmp_path):
        game = self.build_game()
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_payoff_matrix(game, first)
        back = read_payoff_matrix(first)
        write_payoff_matrix(back, second)
        assert first.read_bytes() == second.read_bytes()

    def test_solving_works_after_reload(self, tmp_path):
        game = self.build_game()
        path = tmp_path / "m.csv"
        write_payoff_matrix(game, path)
        back = read_payoff_matrix(path)
        assert back.pure_nash(0.0) == game.pure_nash(0.0)


@pytest.mark.parametrize("command", ["solve", "stability"])
def test_nan_epsilon_exits_2(tmp_path, capsys, command):
    # NaN fails every comparison, so it must fail the check for epsilon >= 0
    path = tmp_path / "m.csv"
    write_payoff_matrix(TestMatrixRoundTrip().build_game(), path)
    assert main([command, "--game", str(path), "--epsilon", "nan",
                 "--out", str(tmp_path / "out.json")]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


class TestSimulateCommand:
    def test_deterministic_outputs_byte_identical(self, desk_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["simulate", "--config", str(desk_config), "--n", "1",
                         "--trace", "--out", str(out)])
            assert code == 0
            outs.append(out)
        assert (outs[0] / "payoffs.json").read_bytes() == \
            (outs[1] / "payoffs.json").read_bytes()
        assert (outs[0] / "trace_000.csv").read_bytes() == \
            (outs[1] / "trace_000.csv").read_bytes()

    def test_trace_row_count(self, desk_config, tmp_path):
        out = tmp_path / "t"
        main(["simulate", "--config", str(desk_config), "--n", "1", "--trace",
              "--out", str(out)])
        lines = (out / "trace_000.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 25 * 2  # header + one row per day per company

    def test_trace_cells_are_numbers(self, desk_config, tmp_path):
        out = tmp_path / "t"
        main(["simulate", "--config", str(desk_config), "--n", "1", "--trace",
              "--out", str(out)])
        rows = (out / "trace_000.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            for cell in row.split(","):
                float(cell)

    def test_missing_factor_rejected(self, desk_config, tmp_path, capsys):
        code = main(["simulate", "--config", str(desk_config),
                     "--profile", '{"availability": "H"}',
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_bad_level_rejected(self, desk_config, tmp_path):
        code = main(["simulate", "--config", str(desk_config),
                     "--profile", '{"pricing": "XXL"}',
                     "--out", str(tmp_path / "x")])
        assert code == 2


    def test_replication_seed_runs_one_replication(self, desk_config, tmp_path):
        out = tmp_path / "r"
        assert main(["simulate", "--config", str(desk_config), "--out", str(out),
                     "--profile", '{"pricing": "L"}', "--opponent", '{"pricing": "H"}',
                     "--replication-seed", "12345"]) == 0
        record = json.loads((out / "payoffs.json").read_text())
        assert [r["seed"] for r in record["replications"]] == [12345]
        assert record["opponent"] == {"pricing": "H"}
        assert main(["simulate", "--config", str(desk_config), "--n", "2",
                     "--replication-seed", "12345", "--out", str(out)]) == 2

    def test_long_profile_is_json_not_a_file_name(self, desk_config, tmp_path):
        # all fourteen detailed factors, as a gsa failure from iteration 1 on
        # names them: longer than a file name may be
        raw = json.dumps({name: "H" for name in FACTORS})
        assert len(raw.encode()) == 352
        out = tmp_path / "r"
        assert main(["simulate", "--config", str(desk_config), "--profile", raw,
                     "--opponent", raw, "--replication-seed", "7",
                     "--out", str(out)]) == 0
        record = json.loads((out / "payoffs.json").read_text())
        assert record["profile"] == json.loads(raw)
        # a file holding the profile reads the same
        path = tmp_path / "profile.json"
        path.write_text(raw)
        assert main(["simulate", "--config", str(desk_config), "--profile", str(path),
                     "--replication-seed", "7", "--out", str(tmp_path / "f")]) == 0
        assert (tmp_path / "f" / "payoffs.json").read_bytes() == \
            (out / "payoffs.json").read_bytes()

    def test_price_overflow_exits_3(self, tmp_path, capsys):
        # (0.1 / 1e308) ** -1 overflows the coverage multiplier on day 0
        sd = {"max_inv_cov": 1e308, "price_sens_invcov": -1.0,
              "safety_stock_cov": 0.5, "order_processing_time": 0.2}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sd_defaults": sd}))
        assert main(["simulate", "--config", str(path), "--n", "3",
                     "--out", str(tmp_path / "s")]) == 3
        assert capsys.readouterr().err.strip() == (
            "runtime error: replication diverged on day 0: inadmissible price: inf")

    def test_passes_write_the_one_pass_bytes(self, desk_config, tmp_path, monkeypatch):
        # seven replications in passes of at most three rows
        widths = []

        def recorded(specs, settings, seeds, *args, **kwargs):
            widths.append(len(seeds))
            return run_replication(specs, settings, seeds, *args, **kwargs)

        monkeypatch.setattr(cli, "run_replication", recorded)
        written = {}
        for rows in (PASS_ROWS, 3):
            monkeypatch.setattr(cli, "PASS_ROWS", rows)
            out = tmp_path / str(rows)
            assert main(["simulate", "--config", str(desk_config), "--n", "7",
                         "--trace", "--out", str(out)]) == 0
            written[rows] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert widths == [7, 3, 3, 1]
        assert len(written[3]) == 8 and written[3] == written[PASS_ROWS]

    def test_divergence_in_a_later_pass_gives_its_global_index(self, tmp_path,
                                                               monkeypatch):
        # without the price band, replication 8 of these twelve diverges
        # first; in passes of three it is row 2 of the third pass
        sd = {"max_inv_cov": 1e6, "mp_cap_ratio": float("inf"), "sigma_order": 20.0,
              "price_sens_invcov": -0.7}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"master_seed": 100, "run_length_days": 55,
                                    "agents": 50, "sd_defaults": sd}))
        args = build_parser().parse_args(["simulate", "--config", str(path), "--n", "12",
                                          "--out", str(tmp_path / "s")])
        failures = []
        for rows in (PASS_ROWS, 3):
            monkeypatch.setattr(cli, "PASS_ROWS", rows)
            with np.errstate(all="ignore"), pytest.raises(ReplicationError) as err:
                cli.cmd_simulate(args)
            e = err.value
            failures.append((e.index, e.seed, e.day, str(e)))
        assert failures[0] == failures[1]
        assert failures[0][:2] == (8, replication_seeds(100, 0, 12)[8])

    @pytest.mark.parametrize("value", [-0.5, float("nan")], ids=["negative", "nan"])
    @pytest.mark.parametrize("name", ["inter_cap", "perception_spread", "i_ad",
                                      "i_pm", "i_ft"])
    def test_bad_market_parameter_exits_2(self, tmp_path, capsys, name, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"market": {name: value}}))
        out = tmp_path / "s"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {name} must be >= 0, got {value}"
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(MarketParams)
                                      if isinstance(f.default, float)])
    def test_non_finite_market_parameter_exits_2(self, tmp_path, capsys, name, value):
        # NaN passes every order comparison, so each float field is checked
        # for finiteness too; a range check may name the value first
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"market": {name: value}}))
        out = tmp_path / "s"
        assert main(["simulate", "--config", str(path), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and name in err
        assert not out.exists()

    # the SDParams fields checked only against a bound
    SD_BOUNDED = ("vac_creation_time", "layoff_time", "labor_fulfillment_time",
                  "wip_fulfillment_time", "inv_fulfillment_time", "rm_lead_time",
                  "safety_stock_cov", "rm_inventory_cov", "cycle_time",
                  "vac_fulfillment_time", "employment_time", "order_processing_time",
                  "labor_productivity", "labor_hours", "max_inv_cov",
                  "mp_fulfillment_time", "mfg_price", "unit_cost",
                  "sigma_wip", "sigma_prod", "sigma_order", "sigma_inv")

    @pytest.mark.parametrize("config, name", [
        *(pytest.param({"sd_defaults": {name: float("nan")}}, name, id=name)
          for name in SD_BOUNDED),
        *(pytest.param({"cost_rates": {f.name: float("nan")}}, f.name, id=f.name)
          for f in dataclasses.fields(CostRates)),
        *(pytest.param({"per_capita_demand": value}, "per_capita_demand",
                       id=f"per_capita_demand-{value}") for value in (float("nan"), 0.0, -1.0)),
        pytest.param({"sampling": {"ecvi_floor": float("nan")}}, "ecvi_floor", id="ecvi_floor"),
        pytest.param({"gsa": {"epsilon_solve": float("nan")}}, "epsilon_solve",
                     id="epsilon_solve"),
        pytest.param({"gsa": {"epsilon_stability": float("nan")}}, "epsilon_stability",
                     id="epsilon_stability"),
        pytest.param({"gsa": {"tolerance_grid": [0.0, float("nan")]}}, "tolerance_grid",
                     id="tolerance_grid")])
    def test_nan_config_value_exits_2(self, tmp_path, capsys, config, name):
        # NaN passes any comparison not written to fail on it: such a config
        # would run on with NaN payoffs or as quiet, or stop at run time
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "s"
        assert main(["simulate", "--config", str(path), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and name in err
        assert not out.exists()

    # an infinity in these stops a run, only at run time, or (for cost
    # rates) fills the payoff matrix with infinite payoffs
    SD_FINITE = ("labor_fulfillment_time", "wip_fulfillment_time",
                 "inv_fulfillment_time", "rm_lead_time", "safety_stock_cov",
                 "rm_inventory_cov", "cycle_time", "vac_fulfillment_time",
                 "order_processing_time", "mfg_price", "unit_cost", "max_inv_cov",
                 "sigma_wip", "sigma_prod", "sigma_order", "sigma_inv")
    # and these run on with an infinity
    SD_INFINITE_RUNS = ("mp_cap_ratio", "max_layoff_rate", "employment_time",
                        "layoff_time", "vac_creation_time", "labor_productivity",
                        "labor_hours", "mp_fulfillment_time")

    @pytest.mark.parametrize("config, name", [
        *(pytest.param({"sd_defaults": {name: float("inf")}}, name, id=name)
          for name in SD_FINITE),
        *(pytest.param({"cost_rates": {f.name: float("inf")}}, f.name, id=f.name)
          for f in dataclasses.fields(CostRates)),
        pytest.param({"per_capita_demand": float("inf")}, "per_capita_demand",
                     id="per_capita_demand")])
    def test_infinite_config_value_exits_2(self, tmp_path, capsys, config, name):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "s"
        assert main(["simulate", "--config", str(path), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and name in err and "inf" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", SD_INFINITE_RUNS)
    def test_infinite_config_value_that_runs_exits_0(self, tmp_path, name):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sd_defaults": {name: float("inf")}}))
        assert getattr(load_config(path).sd_defaults, name) == math.inf
        assert main(["simulate", "--config", str(path), "--seed", "1",
                     "--out", str(tmp_path / "s")]) == 0

    @pytest.mark.parametrize("config, name", [
        pytest.param({"marketing_period": 2.5}, "marketing_period", id="float-period"),
        pytest.param({"deterministic_marketing": "no"}, "deterministic_marketing",
                     id="string-flag"),
        pytest.param({"truncate_warmup": "false"}, "truncate_warmup", id="string-false"),
        pytest.param({"gsa": {"run_stability": 0}}, "run_stability", id="integer-flag"),
        pytest.param({"network": {"m": 2.5}}, "network.m", id="float-m"),
        pytest.param({"master_seed": True}, "master_seed", id="bool-seed"),
        pytest.param({"master_seed": 1.5}, "master_seed", id="float-seed"),
        pytest.param({"warmup_days": 10.5}, "warmup_days", id="float-warmup"),
        pytest.param({"run_length_days": 60.5}, "run_length_days", id="float-length"),
        pytest.param({"agents": 200.5}, "agents", id="float-agents"),
        pytest.param({"jobs": 2.0}, "jobs", id="float-jobs"),
        pytest.param({"sampling": {"cap": 500.0}}, "sampling.cap", id="float-cap"),
        pytest.param({"sd_defaults": {"cycle_time": "3"}}, "cycle_time", id="string-number"),
        pytest.param({"sd_defaults": {"max_layoff_rate": True}}, "max_layoff_rate",
                     id="bool-number"),
        pytest.param({"fixed_share_split": "0.5"}, "fixed_share_split", id="string-split"),
        pytest.param({"company_defaults": {"ad_range": 0.3}}, "ad_range", id="number-range"),
        pytest.param({"gsa": {"tolerance_grid": [0.0, "1"]}}, "tolerance_grid",
                     id="string-in-grid"),
        pytest.param({"market": {"price_sum_mode": 2}}, "price_sum_mode", id="number-mode"),
        pytest.param({"network": {"population_seed": -1}}, "population_seed",
                     id="negative-population-seed"),
        pytest.param({"network": {"m": 9}}, "m0", id="m-over-m0"),
        pytest.param({"network": {"m": 0}}, "m0", id="zero-m"),
        pytest.param({"agents": 4}, "agents", id="m0-over-agents"),
        pytest.param({"company_defaults": {"pm_range": [0.3]}}, "pm_range", id="short-range"),
        pytest.param({"market": 5}, "market", id="number-section"),
        pytest.param({"network": [3]}, "network", id="list-section"),
        pytest.param({"schedule": [{"g": 1.5, "factors": ["pricing"]}]}, "schedule g",
                     id="float-g"),
        pytest.param({"schedule": ["pricing"]}, "schedule entry", id="string-entry"),
        pytest.param({"schedule": [{"factors": ["pricing"], "levels": ["L", "H"]}]},
                     "levels", id="unknown-entry-key"),
        pytest.param({"schedule": 5}, "schedule", id="number-schedule"),
        pytest.param({"schedule": "pricing"}, "schedule", id="string-schedule"),
        pytest.param({"schedule": [{"factors": 5}]}, "factors", id="number-factors"),
        pytest.param({"schedule": [{"factors": [{"name": "pricing", "levels": "LH"}]}]},
                     "levels", id="string-levels"),
        pytest.param({"default_profile": [1]}, "default_profile", id="list-profile"),
        pytest.param({"default_profile": {"nope": "H"}}, "default_profile",
                     id="unknown-profile-factor"),
        pytest.param({"default_profile": {"pricing": "X"}}, "default_profile",
                     id="unknown-profile-label")])
    def test_wrong_typed_config_value_exits_2(self, tmp_path, capsys, config, name):
        # each ran on before, as another value (2.5 days a 5-day period, "no"
        # and "false" true, a g of 1.5 as 1), or stopped with a traceback or
        # at the first replication; each value is checked against its
        # field's default, and each section and schedule entry is an object
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "s"
        assert main(["simulate", "--config", str(path), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and name in err
        assert not out.exists()

    def test_bad_network_fails_before_gsa_writes(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"network": {"m": 9}}))
        out = tmp_path / "g"
        assert main(["gsa", "--config", str(path), "--out", str(out)]) == 2
        assert "1 <= m <= m0 <= agents" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_default_profile_label_fails_gsa_at_load(self, tmp_path, capsys):
        # gsa never reads the default profile, so this loaded and ran before
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"default_profile": {"marketing": "top"}}))
        out = tmp_path / "g"
        assert main(["gsa", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "default_profile: unknown level label 'top'" in err
        assert not out.exists()

    def test_integer_for_a_float_and_null_load_as_given(self):
        # JSON 1 stands for 1.0 and null for an optional number: both load,
        # and the resolved tree echoes them as given
        data = {"dt": 1, "per_capita_demand": 2, "fixed_share_split": None,
                "sd_defaults": {"cycle_time": 3, "max_layoff_rate": None},
                "gsa": {"tolerance_grid": [0, 500.0]}}
        echoed = config_to_dict(config_from_dict(data))
        assert (echoed["dt"], echoed["per_capita_demand"], echoed["fixed_share_split"]) == \
            (1, 2, None)
        assert echoed["sd_defaults"]["cycle_time"] == 3
        assert echoed["gsa"]["tolerance_grid"] == [0, 500.0]

    @pytest.mark.parametrize("name, value", [("s", float("nan")), ("rho", float("nan")),
                                             ("adj_time_ms", float("nan")),
                                             ("w1", float("inf")), ("m_high", float("nan"))])
    def test_market_parameter_must_be_finite(self, tmp_path, capsys, name, value):
        # each of these ran on (or died in the population draw) before
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"market": {name: value}}))
        out = tmp_path / "s"
        assert main(["simulate", "--config", str(path), "--seed", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {name} must be finite, got {value}"
        assert not out.exists()

    def test_replays_gsa_failure(self, tmp_path, capsys):
        # without the price band the asymmetric manufacturing profile runs
        # away first, in the first of its replications
        config = {"master_seed": 3, "run_length_days": 57,
                  "sampling": {"initial_n": 3, "trim_per_tail": 0, "cap": 3},
                  "schedule": [{"g": 1, "factors": [{"name": "manufacturing"}]}],
                  "sd_defaults": {"max_inv_cov": 1e6, "mp_cap_ratio": float("inf"),
                                  "sigma_order": 20.0, "price_sens_invcov": -0.7}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["gsa", "--config", str(path), "--out", str(tmp_path / "g")]) == 3
            err = capsys.readouterr().err.strip()
            match = re.fullmatch(r"runtime error: profile \(0, 1\), tag 1, replication 0 "
                                 r"\(seed (\d+)\), strategies (\{.*\}) vs (\{.*\}): "
                                 r"(replication diverged on day \d+: .*)", err)
            assert match, err
            seed, row, col, failure = match.groups()
            assert row != col
            assert main(["simulate", "--config", str(path), "--profile", row,
                         "--opponent", col, "--replication-seed", seed,
                         "--out", str(tmp_path / "s")]) == 3
        assert capsys.readouterr().err.strip() == f"runtime error: {failure}"


@pytest.mark.parametrize("argv", [
    ["estimate", "--jobs", "0"], ["gsa", "--jobs", "0"], ["simulate", "--seed", "-1"],
    ["simulate", "--n", "-1"], ["simulate", "--n", "0"],
    ["simulate", "--replication-seed", "-1"],
    ["simulate", "--replication-seed", str(2**128)]],
    ids=["estimate-jobs", "gsa-jobs", "seed", "n-negative", "n-zero", "replication-seed",
         "replication-seed-large"])
def test_bad_override_exits_2_before_any_output(desk_config, tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--config", str(desk_config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_simulate_refuses_jobs(desk_config, tmp_path, capsys):
    # simulate runs in process, so a worker count would do nothing
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--config", str(desk_config), "--jobs", "2",
              "--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not out.exists()


class TestEstimateCommand:
    def test_writes_matrix_and_strategies(self, desk_config, tmp_path):
        out = tmp_path / "e"
        assert main(["estimate", "--config", str(desk_config),
                     "--out", str(out)]) == 0
        game = read_payoff_matrix(out / "payoff_matrix.csv")
        assert game.n == 4  # two factors at two levels
        strategies = json.loads((out / "strategies.json").read_text())
        assert len(strategies["strategies"]) == 4
        assert len(strategies["sample_sizes"]) == 10  # (16 - 4) / 2 + 4

    def test_jobs_reaches_the_worker_pool(self, desk_config, tmp_path, monkeypatch):
        import duogame.gsa
        original = duogame.gsa.estimate_payoffs
        signature = inspect.signature(original)
        seen = []

        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments["jobs"])
            return original(*args, **kwargs)

        monkeypatch.setattr(duogame.gsa, "estimate_payoffs", spy)
        matrices = {}
        for jobs in (1, 2):
            out = tmp_path / f"e{jobs}"
            seen.clear()
            assert main(["estimate", "--config", str(desk_config),
                         "--out", str(out), "--jobs", str(jobs)]) == 0
            assert seen and set(seen) == {jobs}
            matrices[jobs] = (out / "payoff_matrix.csv").read_bytes()
        assert matrices[1] == matrices[2]


class TestGsaCommand:
    def test_smoke_and_reproducible(self, desk_config, tmp_path):
        out_a = tmp_path / "ga"
        out_b = tmp_path / "gb"
        assert main(["gsa", "--config", str(desk_config), "--out", str(out_a)]) == 0
        assert main(["gsa", "--config", str(desk_config), "--out", str(out_b),
                     "--jobs", "2"]) == 0
        report_a = json.loads((out_a / "iteration_00.json").read_text())["report"]
        report_b = json.loads((out_b / "iteration_00.json").read_text())["report"]
        report_a.pop("runtime_seconds")
        report_b.pop("runtime_seconds")
        assert report_a == report_b
        assert (out_a / "summary.json").read_bytes() == \
            (out_b / "summary.json").read_bytes()
        assert (out_a / "payoff_matrix_00.csv").read_bytes() == \
            (out_b / "payoff_matrix_00.csv").read_bytes()
        assert (out_a / "equilibrium_share_vs_tolerance.csv").exists()

    def test_checkpoint_resume_bit_identical(self, desk_config, tmp_path):
        out = tmp_path / "g"
        main(["gsa", "--config", str(desk_config), "--out", str(out)])
        original = (out / "iteration_00.json").read_bytes()
        (out / "iteration_00.json").unlink()
        main(["gsa", "--config", str(desk_config), "--out", str(out)])
        assert (out / "iteration_00.json").read_bytes() == original

    def test_resume_from_moved_dir_with_other_jobs(self, desk_config, tmp_path):
        out = tmp_path / "g"
        main(["gsa", "--config", str(desk_config), "--out", str(out)])
        moved = tmp_path / "moved"
        shutil.copytree(out, moved)
        checkpoints = sorted((moved / "checkpoints").iterdir())
        assert checkpoints
        before = [c.stat().st_mtime_ns for c in checkpoints]
        assert main(["gsa", "--config", str(desk_config), "--out", str(moved),
                     "--jobs", "2"]) == 0
        assert [c.stat().st_mtime_ns for c in checkpoints] == before

    def test_stale_checkpoint_reported_then_recomputed(self, desk_config, tmp_path,
                                                       capsys):
        out = tmp_path / "g"
        main(["gsa", "--config", str(desk_config), "--out", str(out)])
        checkpoint = out / "checkpoints" / "iteration_00.json"
        payload = json.loads(checkpoint.read_text())
        fingerprint = payload["fingerprint"]
        matrix = (out / "payoff_matrix_00.csv").read_bytes()
        payload["fingerprint"] = "f" * len(fingerprint)
        checkpoint.write_text(json.dumps(payload, sort_keys=True) + "\n")
        capsys.readouterr()
        assert main(["gsa", "--config", str(desk_config), "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "iteration 0" in err[0]
        assert fingerprint in err[0] and "f" * len(fingerprint) in err[0]
        recomputed = json.loads(checkpoint.read_text())
        assert recomputed["fingerprint"] == fingerprint
        assert recomputed["samples"] == payload["samples"]
        assert (out / "payoff_matrix_00.csv").read_bytes() == matrix

    @pytest.mark.parametrize("iteration", [0, 1])
    def test_cut_checkpoint_reported_then_recomputed(self, tmp_path, capsys,
                                                     iteration):
        # an interrupted save leaves half a file; cut iteration 1's, iteration
        # 0 is restored and its saved baseline must reach the recomputed one
        config = dict(DESK_CONFIG, schedule=[
            *DESK_CONFIG["schedule"], {"g": 1, "factors": [{"name": "pricing"}]}])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "g"
        argv = ["gsa", "--config", str(path), "--out", str(out)]
        assert main(argv) == 0
        uninterrupted = written_files(out)
        checkpoint = out / "checkpoints" / f"iteration_{iteration:02d}.json"
        data = checkpoint.read_bytes()
        checkpoint.write_bytes(data[:len(data) // 2])
        capsys.readouterr()
        assert main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"unreadable checkpoint {checkpoint}: ")
        assert written_files(out) == uninterrupted

    def test_diverging_replication_names_profile(self, tmp_path, capsys):
        # without the price band the high coverage sensitivity runs away
        config = dict(DESK_CONFIG, sd_defaults={"max_inv_cov": 1e9,
                                                "mp_cap_ratio": float("inf")})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["gsa", "--config", str(path), "--out", str(tmp_path / "g")])
        assert code == 3
        err = capsys.readouterr().err
        assert "runtime error: profile (" in err
        assert ", tag " in err and "(seed " in err and "diverged on day" in err

    # sha256 of the desk run's summary.json
    SUMMARY_PIN = "446d3c87bd4c3ed58d484ee474dfac9af5c17fae3269b18e2c57d33dab945c47"

    def test_report_command(self, desk_config, tmp_path, capsys):
        out = tmp_path / "g"
        main(["gsa", "--config", str(desk_config), "--out", str(out)])
        capsys.readouterr()  # drop the gsa progress line
        assert main(["report", "--dir", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["iterations"] == 1
        # report re-reads the iteration reports into the summary gsa wrote,
        # plus its two fields
        written = (out / "summary.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == self.SUMMARY_PIN
        fields = json.loads(written)
        assert sorted(fields) == ["equilibrium_counts", "iterations", "solution_payoffs",
                                  "stability"]
        assert {key: summary[key] for key in fields} == fields
        assert sorted(set(summary) - set(fields)) == ["factors", "payoff_trend_increasing"]

    def test_report_command_over_two_iterations(self, tmp_path, capsys):
        # the top-up run's two iterations screen other factors and raise the
        # solution's payoff, so every field report adds reads both reports
        config = json.loads(TOPUP_CONFIG.read_text())
        out = tmp_path / "g"
        assert main(["gsa", "--config", str(TOPUP_CONFIG), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 0
        printed = capsys.readouterr().out
        summary = json.loads(printed)
        assert summary["iterations"] == 2
        assert summary["factors"] == [sorted(f["name"] for f in plan["factors"])
                                      for plan in config["schedule"]]
        first, last = (json.loads((out / f"iteration_{i:02d}.json").read_text())
                       ["report"]["solution"]["mean"] for i in (0, 1))
        assert summary["solution_payoffs"] == [first, last]
        assert summary["payoff_trend_increasing"] is (last[0] > first[0]) is True
        written = tmp_path / "report.json"
        assert main(["report", "--dir", str(out), "--out", str(written)]) == 0
        assert capsys.readouterr().out == ""
        assert written.read_text() == printed


class TestWorkerPool:
    """One worker pool per ``gsa`` run, its start method passed to the
    executor, never set for the process."""

    CONFIG = dict(DESK_CONFIG, schedule=[*DESK_CONFIG["schedule"],
                                         {"g": 1, "factors": [{"name": "pricing"}]}])

    @staticmethod
    def start_by(monkeypatch, method) -> list:
        """Make the CLI's executors start their workers by ``method``;
        returns the list of the methods of those made."""
        import concurrent.futures
        made, base = [], concurrent.futures.ProcessPoolExecutor

        def executor(jobs):
            made.append(method)
            return base(jobs, mp_context=multiprocessing.get_context(method))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", executor)
        return made

    @classmethod
    def run(cls, out, jobs) -> dict:
        """The files of a two-iteration ``gsa`` run, less the saved config's
        ``jobs`` and ``out_dir``."""
        out.mkdir(exist_ok=True)
        path = out / "config.json"
        path.write_text(json.dumps(cls.CONFIG))
        assert main(["gsa", "--config", str(path), "--out", str(out / "g"),
                     "--jobs", str(jobs)]) == 0
        files = written_files(out / "g")
        assert files["config.json"].pop("jobs") == jobs
        assert files["config.json"].pop("out_dir") == str(out / "g")
        return files

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        files = self.run(tmp_path_factory.mktemp("one-job") / "r", 1)
        assert "solution_trace_01.csv" in files
        return files

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_same_bytes_under_every_start_method(self, method, reference, tmp_path,
                                                 monkeypatch):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        made = self.start_by(monkeypatch, method)
        assert self.run(tmp_path / "g", 2) == reference
        assert made == [method]

    def test_one_pool_and_no_replication_in_the_cli(self, reference, tmp_path,
                                                    monkeypatch):
        # both iterations' payoff calls and solution traces go to the one
        # pool; the workers' calls are not counted here
        made = self.start_by(monkeypatch, "spawn")
        entered = []
        run_rows = runner._run_rows

        def recorded(*args):
            entered.append(len(args[2]))
            return run_rows(*args)

        monkeypatch.setattr(runner, "_run_rows", recorded)
        assert self.run(tmp_path / "g", 2) == reference
        assert len(made) == 1 and entered == []

    def test_restored_run_runs_only_its_traces_on_the_pool(self, reference, tmp_path,
                                                           monkeypatch):
        # the second run restores both iterations: it makes no source call
        # and submits their two solution traces to its pool
        self.run(tmp_path / "g", 2)
        import concurrent.futures
        submitted = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(args[0])
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        calls = []
        monkeypatch.setattr(gsa_module.SimulationPayoffSource, "__call__",
                            lambda *args, **kwargs: calls.append(args))
        entered = []
        run_rows = runner._run_rows

        def recorded(*args):
            entered.append(len(args[2]))
            return run_rows(*args)

        monkeypatch.setattr(runner, "_run_rows", recorded)
        assert self.run(tmp_path / "g", 2) == reference
        assert calls == [] and entered == [] and len(submitted) == 2

    def test_divergence_in_a_worker_names_it_and_leaves_no_worker(self, tmp_path,
                                                                  monkeypatch, capsys):
        # without the price band the high coverage sensitivity runs away
        self.start_by(monkeypatch, "spawn")
        config = dict(DESK_CONFIG, sd_defaults={"max_inv_cov": 1e9,
                                                "mp_cap_ratio": float("inf")})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["gsa", "--config", str(path), "--out", str(tmp_path / "g"),
                     "--jobs", "2"]) == 3
        err = capsys.readouterr().err
        assert re.match(r"runtime error: profile \(\d+, \d+\), tag \d+, "
                        r"replication \d+ \(seed \d+\), strategies .* diverged on day",
                        err)
        assert multiprocessing.active_children() == []

    def test_interrupt_cancels_queued_work_and_leaves_no_worker(self, tmp_path,
                                                                monkeypatch):
        # the second iteration's payoff call queues 40 tasks on the pool and
        # is interrupted; the run does not wait for them
        self.start_by(monkeypatch, "spawn")
        queued = []
        estimate = gsa_module.estimate_payoffs

        def interrupted(*args, executor=None, **kwargs):
            if not queued:
                queued.append(None)
                return estimate(*args, executor=executor, **kwargs)
            queued.extend(executor.submit(time.sleep, 0.05) for _ in range(40))
            raise KeyboardInterrupt

        monkeypatch.setattr(gsa_module, "estimate_payoffs", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self.run(tmp_path / "g", 2)
        assert len(queued) == 41
        assert sum(f.cancelled() for f in queued[1:]) >= 30
        assert multiprocessing.active_children() == []


class TestSolveAndStability:
    def make_matrix(self, tmp_path):
        u1 = np.array([[3.0, 0.0], [5.0, 1.0]])
        game = game_from_matrices(u1)
        path = tmp_path / "pd.csv"
        write_payoff_matrix(game, path)
        return path

    def test_solve(self, tmp_path, capsys):
        path = self.make_matrix(tmp_path)
        assert main(["solve", "--game", str(path), "--epsilon", "0"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert [e["profile"] for e in result["equilibria"]] == [[1, 1]]

    def test_stability_huge_band_no_instability(self, tmp_path, capsys):
        path = self.make_matrix(tmp_path)
        assert main(["stability", "--game", str(path), "--epsilon", "1e9",
                     "--steps", "40", "--noise", "none"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["ratios"]["instable"] == 0.0
        assert sum(result["ratios"].values()) == pytest.approx(1.0)

    def test_stability_update_rule_replays_the_analysis(self, tmp_path, capsys):
        # a coordination game: simultaneous updates from a miscoordinated
        # start swap forever, alternating ones settle, so the ratios differ
        game = game_from_matrices(np.array([[3.0, 0.0], [0.0, 2.0]]))
        path = tmp_path / "coordination.csv"
        write_payoff_matrix(game, path)
        ratios = {}
        for rule in ("alternating", "simultaneous"):
            assert main(["stability", "--game", str(path), "--epsilon", "0.5",
                         "--steps", "20", "--seed", "3", "--update", rule]) == 0
            result = json.loads(capsys.readouterr().out)
            imported = read_payoff_matrix(path)
            solution = imported.min_regret_profile()
            report = stability_analysis(imported, solution, epsilon=0.5, steps=20,
                                        seed=3, update=rule)
            assert result == {"solution": list(solution), **report.as_dict()}
            ratios[rule] = result["ratios"]
        assert ratios["alternating"] != ratios["simultaneous"]

    def test_unknown_update_rule_exits_2(self, tmp_path, capsys):
        path = self.make_matrix(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(["stability", "--game", str(path), "--update", "sequential"])
        assert exit_.value.code == 2
        assert "--update" in capsys.readouterr().err

    @pytest.mark.parametrize("solution", ["1,2,3", "x"])
    def test_malformed_solution_is_validation_error(self, tmp_path, capsys,
                                                    solution):
        path = self.make_matrix(tmp_path)
        assert main(["stability", "--game", str(path), "--steps", "20",
                     "--solution", solution]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --solution") and solution in err

    @pytest.mark.parametrize("command", ["solve", "stability"])
    @pytest.mark.parametrize("cell, where", [
        ("abc", "at row 1, column 0"), ("2.0;2|3.0;2;0.1", "at row 1, column 0"),
        (None, "has 1 rows for 2 strategies")], ids=["text", "short-part", "missing-row"])
    def test_malformed_matrix_is_validation_error(self, tmp_path, capsys, command,
                                                  cell, where):
        path = self.make_matrix(tmp_path)
        rows = list(csv.reader(path.read_text().splitlines()))
        if cell is None:
            rows.pop()
        else:
            rows[2][1] = cell
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        steps = ["--steps", "20"] if command == "stability" else []
        assert main([command, "--game", str(path), *steps]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err and str(path) in err

    @pytest.mark.parametrize("command", ["solve", "stability"])
    @pytest.mark.parametrize("cell", ["1.0;-3;0.0|1.0;-3;0.0", "2.0;0;0.0|3.0;2;0.1",
                                      "2.0;2;0.1|3.0;2;-0.5", "2.0;2;nan|3.0;2;0.1",
                                      "nan;2;0.1|nan;2;0.1", "2.0;2;0.1|inf;2;0.1",
                                      "-inf;2;0.1|3.0;2;0.1", "2.0;2;inf|3.0;2;0.1"],
                             ids=["negative-count", "zero-count", "negative-variance",
                                  "nan-variance", "nan-mean", "infinite-mean",
                                  "negative-infinite-mean", "infinite-variance"])
    def test_impossible_cell_is_validation_error(self, tmp_path, capsys, command, cell):
        # no sample set of payoffs has such a count, mean or variance: refused
        # on read, not left to fail or run silently (a NaN mean made ``solve``
        # report no equilibria) or in the stability draw
        path = self.make_matrix(tmp_path)
        rows = list(csv.reader(path.read_text().splitlines()))
        rows[2][1] = cell
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        steps = ["--steps", "20"] if command == "stability" else []
        assert main([command, "--game", str(path), *steps]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed payoff cell") and str(path) in err
        assert "at row 1, column 0" in err

    @pytest.mark.parametrize("command", ["solve", "stability"])
    def test_unmirrored_cell_is_validation_error(self, tmp_path, capsys, command):
        # matching pennies as a general game: cell (1, 0) is well formed but
        # not the mirror of cell (0, 1); read as symmetric, ``solve`` found
        # the pure equilibrium (1, 1) this game does not have
        u1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
        path = tmp_path / "pennies.csv"
        write_payoff_matrix(game_from_matrices(u1, -u1), path)
        steps = ["--steps", "20"] if command == "stability" else []
        assert main([command, "--game", str(path), *steps]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: payoff cell at row 1, column 0 is not the "
                              "mirror of row 0, column 1") and str(path) in err

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        path = self.make_matrix(tmp_path)
        assert main(["stability", "--game", str(path), "--steps", "20",
                     "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_missing_matrix_is_validation_error(self, tmp_path):
        assert main(["solve", "--game", str(tmp_path / "none.csv")]) == 2


# the fields of an iteration report that ``duogame report`` reads
REPORT_FIELDS = {"solution": {"mean": [1.0, 2.0]}, "equilibria": [],
                 "stability": None, "factors": {"pricing": ["L", "H"]}}


@pytest.mark.parametrize("argv, named, report", [
    (["report", "--dir", "{run}"], "{run}/iteration_00.json", "{"),
    (["report", "--dir", "{run}"], "{run}", {"schema_version": 1}),
    (["report", "--dir", "{run}"], "{run}",
     {"report": {k: v for k, v in REPORT_FIELDS.items() if k != "solution"}}),
    (["solve", "--game", "{folder}"], "{folder}", None),
    (["stability", "--game", "{folder}"], "{folder}", None),
    (["solve", "--game", "{binary}"], "{binary}", None),
    (["stability", "--game", "{binary}"], "{binary}", None),
    (["solve", "--game", "{huge}"], "{huge}", None),
    (["stability", "--game", "{huge}"], "{huge}", None),
    (["simulate", "--config", "{folder}", "--out", "{out}"], "{folder}", None),
    (["simulate", "--config", "{binary}", "--out", "{out}"], "{binary}", None),
    (["simulate", "--config", "{desk}", "--profile", "{binary}", "--out", "{out}"],
     "{binary}", None),
    (["solve", "--game", "{matrix}", "--out", "{missing}"], "{missing}", None),
    (["stability", "--game", "{matrix}", "--steps", "20", "--out", "{missing}"],
     "{missing}", None),
    (["report", "--dir", "{run}", "--out", "{missing}"], "{missing}", None),
    (["gsa", "--config", "{desk}", "--out", "{file}"], "{file}", None),
    (["estimate", "--config", "{desk}", "--out", "{file}"], "{file}", None),
    (["simulate", "--config", "{desk}", "--out", "{file}"], "{file}", None),
], ids=["report-not-json", "report-without-report", "report-without-solution",
        "solve-game-directory", "stability-game-directory", "solve-game-not-utf8",
        "stability-game-not-utf8", "solve-game-field-too-large",
        "stability-game-field-too-large", "config-directory", "config-not-utf8",
        "profile-not-utf8", "solve-out-missing-directory",
        "stability-out-missing-directory", "report-out-missing-directory",
        "gsa-out-file", "estimate-out-file", "simulate-out-file"])
def test_unreadable_input_or_unwritable_output_exits_2_naming_it(
        desk_config, tmp_path, capsys, monkeypatch, argv, named, report):
    # each case fails on the file before any replication runs, and says so
    # on one error line rather than in a traceback
    paths = {"run": tmp_path / "run", "folder": tmp_path / "folder",
             "binary": tmp_path / "binary.json", "matrix": tmp_path / "pd.csv",
             "out": tmp_path / "o", "missing": tmp_path / "missing" / "out.json",
             "file": tmp_path / "file", "desk": desk_config,
             "huge": tmp_path / "huge.csv"}
    paths["run"].mkdir()
    if report is None:
        report = {"schema_version": 1, "report": REPORT_FIELDS}
    (paths["run"] / "iteration_00.json").write_text(
        report if isinstance(report, str) else json.dumps(report))
    paths["folder"].mkdir()
    paths["binary"].write_bytes("{}".encode("utf-16"))
    # one cell over csv's field size limit (131072 characters)
    paths["huge"].write_text(f"strategy,a\na,{'1' * 200_000}\n")
    write_payoff_matrix(game_from_matrices(np.array([[3.0, 0.0], [5.0, 1.0]])),
                        paths["matrix"])
    paths["file"].write_text("kept")

    def no_replication(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(cli, "run_replication", no_replication)
    monkeypatch.setattr(gsa_module.SimulationPayoffSource, "__call__", no_replication)
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert named.format(**paths) in captured.err
    assert captured.out == ""
    assert paths["file"].read_text() == "kept"
    assert not paths["out"].exists() and not paths["missing"].parent.exists()
