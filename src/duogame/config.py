"""Experiment configuration: a single JSON key tree, validated and resolved.

The shipped defaults reproduce the soft-drink case study: the full factor
table, the five-iteration refinement schedule, 70 initial samples trimmed by
10 per tail, and a 100-day replication at 200 agents. ``load_config`` fills
every omitted key with its default, and rejects by name an unknown key and a
value of another kind than its default: a count or seed that is not a JSON
integer, a flag that is not a boolean, a number that is a string.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .errors import ConfigError, DesignError, ParameterError
from .factors import FactorPlan, PlanFactor, validate_profile_values
from .game import StrategySpace
from .gsa import GsaSettings, SamplingPolicy
from .market import MarketParams
from .reporting import read_json_object, write_json
from .runner import CompanySpec, CostRates, SimulationSettings
from .supply_chain import SDParams

SCHEMA_VERSION = 1

# the published iteration schedule: aggregated screening, detailed screening,
# then three four-level refinements of the surviving factors
DEFAULT_SCHEDULE = [
    {"g": 1, "factors": [
        {"name": "manufacturing", "levels": ["L", "H"]},
        {"name": "logistics", "levels": ["L", "H"]},
        {"name": "pricing", "levels": ["L", "H"]},
        {"name": "marketing", "levels": ["L", "H"]}]},
    {"g": 1, "factors": [
        {"name": "rm_inventory_cov", "levels": ["L", "H"]},
        {"name": "safety_stock_cov", "levels": ["L", "H"]},
        {"name": "rm_lead_time", "levels": ["L", "H"]},
        {"name": "inv_fulfillment_time", "levels": ["L", "H"]},
        {"name": "promotion_depth", "levels": ["L", "H"]},
        {"name": "advertising_intensity", "levels": ["L", "H"]}]},
    {"g": 2, "factors": [
        {"name": "rm_inventory_cov", "levels": ["L", "ML", "MH", "H"]},
        {"name": "safety_stock_cov", "levels": ["L", "ML", "MH", "H"]},
        {"name": "rm_lead_time", "levels": ["L", "ML", "MH", "H"]},
        {"name": "inv_fulfillment_time", "levels": ["L", "ML", "MH", "H"]}]},
    {"g": 2, "factors": [
        {"name": "rm_inventory_cov", "levels": ["L", "ML", "MH", "H"]},
        {"name": "safety_stock_cov", "levels": ["L", "ML", "MH", "H"]},
        {"name": "promotion_depth", "levels": ["L", "ML", "MH", "H"]},
        {"name": "inv_fulfillment_time", "levels": ["L", "ML", "MH", "H"]}]},
    {"g": 2, "factors": [
        {"name": "rm_inventory_cov", "levels": ["L", "ML", "MH", "H"]},
        {"name": "safety_stock_cov", "levels": ["L", "ML", "MH", "H"]},
        {"name": "advertising_intensity", "levels": ["L", "ML", "MH", "H"]},
        {"name": "promotion_depth", "levels": ["L", "ML", "MH", "H"]}]},
]


@dataclass
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    master_seed: int = 20240101
    out_dir: str = "out"
    jobs: int = 1
    settings: SimulationSettings = field(default_factory=SimulationSettings)
    sd_defaults: SDParams = field(default_factory=SDParams)
    spec_defaults: CompanySpec = field(default_factory=CompanySpec)
    cost_rates: CostRates = field(default_factory=CostRates)
    sampling: SamplingPolicy = field(default_factory=SamplingPolicy)
    gsa: GsaSettings = field(default_factory=GsaSettings)
    schedule: list | None = None        # list of FactorPlan, or None
    initial_plan: FactorPlan | None = None
    default_profile: dict = field(default_factory=dict)

    def validate(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        self.settings.validate()
        self.sd_defaults.validate()
        self.spec_defaults.validate()
        self.cost_rates.validate()
        self.sampling.validate()
        self.gsa.validate()
        if self.settings.run_length_days <= self.settings.warmup_days:
            raise ConfigError("run length must exceed the warm-up")
        if self.schedule is not None and not self.schedule:
            raise ConfigError("schedule must not be empty when given")
        return self

    def first_plan(self) -> FactorPlan:
        if self.schedule:
            return self.schedule[0]
        if self.initial_plan is not None:
            return self.initial_plan
        raise ConfigError("config declares neither a schedule nor an initial plan")

    def fingerprint(self) -> str:
        """Hash of every key that changes results; the output directory and
        the worker count do not, so a resume may change either."""
        keys = {k: v for k, v in config_to_dict(self).items()
                if k not in ("out_dir", "jobs")}
        payload = json.dumps(keys, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _plan_from_dict(entry: dict, context: str) -> FactorPlan:
    """The plan of a schedule entry or initial plan, ``context`` naming it;
    raises :class:`ConfigError` unless its strategy set can be built."""
    _reject_unknown(entry, {"g", "factors"}, context)
    if not isinstance(entry.get("factors"), list):
        raise ConfigError(f"{context} needs a 'factors' list")
    if not entry["factors"]:
        raise ConfigError(f"{context} lists no factors")
    factors = []
    for f in entry["factors"]:
        if isinstance(f, str):
            factors.append(PlanFactor(f))
        else:
            _reject_unknown(f, {"name", "levels"}, "schedule factor")
            levels = f.get("levels", ["L", "H"])
            if not isinstance(levels, list):
                raise ConfigError(f"schedule factor levels must be a list, "
                                  f"got {json.dumps(levels)}")
            factors.append(PlanFactor(f["name"], tuple(levels)))
    g = entry.get("g", 1)
    _check_kinds(FactorPlan, {"g": g}, "schedule ")
    plan = FactorPlan(factors, g=g)
    try:    # a design of its size and level count, each factor listed once
        StrategySpace(plan.strategy_labels())
    except (DesignError, ParameterError) as exc:
        raise ConfigError(f"{context}: {exc}") from None
    return plan


def _plan_to_dict(plan: FactorPlan) -> dict:
    return {"g": plan.g,
            "factors": [{"name": f.name, "levels": list(f.levels)}
                        for f in plan.factors]}


def _reject_unknown(mapping: dict, allowed, context: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object, got {json.dumps(mapping)}")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {context}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what a config value must be, by the type of its field's default: a count or
# seed a JSON integer, a flag a boolean, and a default of None a number or null
_KINDS = {
    bool: (lambda x: isinstance(x, bool), "true or false"),
    int: (lambda x: _is_number(x) and isinstance(x, int), "an integer"),
    float: (_is_number, "a number"),
    type(None): (lambda x: x is None or _is_number(x), "a number or null"),
    str: (lambda x: isinstance(x, str), "a string"),
    tuple: (lambda x: isinstance(x, list) and all(map(_is_number, x)), "a list of numbers"),
}


def _check_kinds(cls, data: dict, prefix: str = ""):
    """Raise :class:`ConfigError`, naming the key, for the first value of
    ``data`` whose kind does not match the default of the field of ``cls``
    that its key sets."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for key, value in data.items():
        accepts, kind = _KINDS[type(defaults[FIELD_NAMES.get(key, key)])]
        if not accepts(value):
            raise ConfigError(f"{prefix}{key} must be {kind}, got {json.dumps(value)}")


def _fill_dataclass(cls, data: dict, context: str, **fixed):
    names = {f.name for f in dataclasses.fields(cls)}
    _reject_unknown(data, names - set(fixed), context)
    _check_kinds(cls, data, f"{context}.")
    kwargs = {key: tuple(value) if isinstance(value, list) else value
              for key, value in data.items()}
    kwargs.update(fixed)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad {context}: {exc}") from exc


# top-level and ``network`` keys of SimulationSettings; a key a config leaves
# out takes the dataclass default
SETTINGS_KEYS = (
    "run_length_days", "dt", "agents", "per_capita_demand", "marketing_period",
    "initial_stock_fraction", "deterministic_marketing", "fixed_share_split",
    "sunk_cost_mode", "warmup_days", "truncate_warmup",
)
NETWORK_KEYS = ("m0", "m", "population_seed")
# keys named apart from the field they set
FIELD_NAMES = {"agents": "n_agents", "m0": "network_m0", "m": "network_m"}
TOP_LEVEL_KEYS = {
    "schema_version", "master_seed", "out_dir", "jobs", *SETTINGS_KEYS,
    "network", "market", "sd_defaults", "company_defaults", "cost_rates",
    "sampling", "gsa", "schedule", "initial_plan", "default_profile",
}


def config_from_dict(data: dict) -> ExperimentConfig:
    _reject_unknown(data, TOP_LEVEL_KEYS, "config")

    network = data.get("network", {})
    _reject_unknown(network, NETWORK_KEYS, "network")
    top_settings = {key: data[key] for key in SETTINGS_KEYS if key in data}
    _check_kinds(SimulationSettings, top_settings)
    _check_kinds(SimulationSettings, network, "network.")
    settings = SimulationSettings(
        market=_fill_dataclass(MarketParams, data.get("market", {}), "market"),
        **{FIELD_NAMES.get(key, key): value
           for key, value in (*top_settings.items(), *network.items())})

    sd_defaults = _fill_dataclass(SDParams, data.get("sd_defaults", {}),
                                  "sd_defaults")
    spec_defaults = _fill_dataclass(CompanySpec, data.get("company_defaults", {}),
                                    "company_defaults", sd=sd_defaults)

    cost_rates = _fill_dataclass(CostRates, data.get("cost_rates", {}),
                                 "cost_rates")
    sampling = _fill_dataclass(SamplingPolicy, data.get("sampling", {}),
                               "sampling")
    gsa = _fill_dataclass(GsaSettings, data.get("gsa", {}), "gsa")

    schedule_data = data.get("schedule", "default")
    if schedule_data == "default":
        schedule_data = DEFAULT_SCHEDULE
    schedule = None
    if schedule_data is not None:
        if not isinstance(schedule_data, list):
            raise ConfigError(f'schedule must be a list of plans, "default" or '
                              f'null, got {json.dumps(schedule_data)}')
        schedule = [_plan_from_dict(e, f"schedule entry {k}")
                    for k, e in enumerate(schedule_data)]

    initial_plan = None
    if data.get("initial_plan") is not None:
        initial_plan = _plan_from_dict(data["initial_plan"], "initial_plan")

    top = {key: data[key] for key in ("schema_version", "master_seed", "out_dir", "jobs")
           if key in data}
    _check_kinds(ExperimentConfig, top)
    if "default_profile" in data:
        profile = data["default_profile"]
        if not isinstance(profile, dict):
            raise ConfigError(f"default_profile must map factor names to level "
                              f"labels, got {json.dumps(profile)}")
        try:
            validate_profile_values(profile)
        except ConfigError as exc:
            raise ConfigError(f"default_profile: {exc}") from exc
        top["default_profile"] = dict(profile)
    config = ExperimentConfig(
        settings=settings,
        sd_defaults=sd_defaults,
        spec_defaults=spec_defaults,
        cost_rates=cost_rates,
        sampling=sampling,
        gsa=gsa,
        schedule=schedule,
        initial_plan=initial_plan,
        **top)
    try:
        return config.validate()
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    s = config.settings
    return {
        "schema_version": config.schema_version,
        "master_seed": config.master_seed,
        "out_dir": config.out_dir,
        "jobs": config.jobs,
        **{key: getattr(s, FIELD_NAMES.get(key, key)) for key in SETTINGS_KEYS},
        "network": {key: getattr(s, FIELD_NAMES.get(key, key)) for key in NETWORK_KEYS},
        "market": dataclasses.asdict(s.market),
        "sd_defaults": dataclasses.asdict(config.sd_defaults),
        "company_defaults": {"mb_pct": config.spec_defaults.mb_pct,
                             "ad_range": list(config.spec_defaults.ad_range),
                             "pm_range": list(config.spec_defaults.pm_range)},
        "cost_rates": dataclasses.asdict(config.cost_rates),
        "sampling": dataclasses.asdict(config.sampling),
        "gsa": {**dataclasses.asdict(config.gsa),
                "tolerance_grid": list(config.gsa.tolerance_grid)},
        "schedule": None if config.schedule is None
                    else [_plan_to_dict(p) for p in config.schedule],
        "initial_plan": None if config.initial_plan is None
                        else _plan_to_dict(config.initial_plan),
        "default_profile": dict(config.default_profile),
    }


def default_config() -> ExperimentConfig:
    return config_from_dict({})


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json_object(path, "config"))


def save_config(config: ExperimentConfig, path) -> None:
    write_json(config_to_dict(config), path)
