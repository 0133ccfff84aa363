"""Strategic factor catalog, level grids and plan refinement.

Four aggregated factors (manufacturing, logistics, pricing, marketing)
decompose into fourteen detailed factors. A plan holds the active factors
with their level labels; strategies come from the 16-run designs in
:mod:`duogame.doe`. Setting an aggregated factor to a label sets every
detailed child to that label.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .doe import design_for
from .errors import ConfigError, DesignError
from .runner import CompanySpec
from .supply_chain import SDParams

LEVEL_LABELS = ("L", "ML", "MH", "H")


@dataclass(frozen=True)
class FactorDef:
    """One detailed strategic factor and its level grid."""

    name: str
    group: str
    kind: str                  # "scalar" | "mb" | "range"
    target: str                # SDParams field, or marketing slot
    low: object
    high: object
    grid: tuple | None = None  # explicit four-level grid, else interpolated

    def level_value(self, label: str):
        if label not in LEVEL_LABELS:
            raise ConfigError(f"unknown level label {label!r} for {self.name}")
        if self.grid is not None:
            return self.grid[LEVEL_LABELS.index(label)]
        if label == "L":
            return self.low
        if label == "H":
            return self.high
        t = {"ML": 1.0 / 3.0, "MH": 2.0 / 3.0}[label]
        if self.kind == "range":
            return tuple(lo + t * (hi - lo) for lo, hi in zip(self.low, self.high))
        return self.low + t * (self.high - self.low)


_RANGE_GRID = ((0.1, 0.2), (0.2, 0.3), (0.3, 0.4), (0.4, 0.5))

FACTOR_DEFS = [
    FactorDef("vac_creation_time", "manufacturing", "scalar", "vac_creation_time", 1.0, 5.0),
    FactorDef("layoff_time", "manufacturing", "scalar", "layoff_time", 3.0, 7.0),
    FactorDef("labor_fulfillment_time", "manufacturing", "scalar", "labor_fulfillment_time", 4.0, 12.0),
    FactorDef("wip_fulfillment_time", "manufacturing", "scalar", "wip_fulfillment_time", 1.0, 3.0),
    FactorDef("inv_fulfillment_time", "logistics", "scalar", "inv_fulfillment_time", 2.0, 14.0,
              grid=(2.0, 6.0, 10.0, 14.0)),
    FactorDef("rm_lead_time", "logistics", "scalar", "rm_lead_time", 1.0, 7.0,
              grid=(1.0, 3.0, 5.0, 7.0)),
    FactorDef("safety_stock_cov", "logistics", "scalar", "safety_stock_cov", 2.0, 14.0,
              grid=(2.0, 6.0, 10.0, 14.0)),
    FactorDef("rm_inventory_cov", "logistics", "scalar", "rm_inventory_cov", 1.0, 7.0,
              grid=(1.0, 3.0, 5.0, 7.0)),
    FactorDef("price_sens_cost", "pricing", "scalar", "price_sens_cost", 0.1, 0.9),
    FactorDef("price_sens_invcov", "pricing", "scalar", "price_sens_invcov", -0.1, -0.9),
    FactorDef("mfg_price", "pricing", "scalar", "mfg_price", 1.0, 2.0),
    FactorDef("mktg_budget_pct", "marketing", "mb", "mb_pct", 0.05, 0.15),
    FactorDef("promotion_depth", "marketing", "range", "pm_range",
              (0.1, 0.2), (0.4, 0.5), grid=_RANGE_GRID),
    FactorDef("advertising_intensity", "marketing", "range", "ad_range",
              (0.1, 0.2), (0.4, 0.5), grid=_RANGE_GRID),
]

FACTORS = {f.name: f for f in FACTOR_DEFS}
AGGREGATED = {}
for f in FACTOR_DEFS:
    AGGREGATED.setdefault(f.group, []).append(f.name)


def is_aggregated(name: str) -> bool:
    return name in AGGREGATED


def detailed_children(name: str):
    if is_aggregated(name):
        return list(AGGREGATED[name])
    if name in FACTORS:
        return [name]
    raise ConfigError(f"unknown factor {name!r}")


@dataclass
class PlanFactor:
    name: str
    levels: tuple = ("L", "H")

    def __post_init__(self):
        if self.name not in FACTORS and self.name not in AGGREGATED:
            raise ConfigError(f"unknown factor {self.name!r}")
        bad = [lv for lv in self.levels if lv not in LEVEL_LABELS]
        if bad:
            raise ConfigError(f"unknown level labels {bad} for {self.name}")
        if len(self.levels) not in (2, 4):
            raise ConfigError("factors run at two or four levels")


@dataclass
class FactorPlan:
    """Active factors for one iteration plus the refinement phase g."""

    factors: list
    g: int = 1

    def level_count(self) -> int:
        counts = {len(f.levels) for f in self.factors}
        if len(counts) != 1:
            raise DesignError("mixed level counts within one plan")
        return counts.pop()

    def strategy_labels(self) -> list:
        """One dict of factor -> level label per design row."""
        design = design_for(len(self.factors), self.level_count())
        return [{f.name: f.levels[code] for f, code in zip(self.factors, row)}
                for row in design]

    def names(self):
        return [f.name for f in self.factors]


def refine_plan(plan: FactorPlan, effects) -> FactorPlan | None:
    """One refinement move: the next plan, or None once refinement is done.

    Phase 1 swaps significant aggregated factors for their detailed children
    and drops insignificant factors (keeping the largest absolute effect when
    everything fails the test, so the plan never empties). Phase 2 widens
    every factor to four levels; a four-level plan has no next plan.
    ``plan.g`` picks the phase.
    """
    g = plan.g
    by_name = {e.name: e for e in effects} if effects else {}

    if g == 1:
        keep = [f for f in plan.factors
                if by_name.get(f.name) is None or by_name[f.name].significant]
        if effects and not keep:
            best = max(plan.factors,
                       key=lambda f: abs(by_name[f.name].effect)
                       if f.name in by_name else 0.0)
            keep = [best]
        new_factors = []
        decomposed = False
        for f in keep:
            if is_aggregated(f.name):
                decomposed = True
                new_factors.extend(PlanFactor(c, ("L", "H"))
                                   for c in detailed_children(f.name))
            else:
                new_factors.append(PlanFactor(f.name, f.levels))
        next_g = 1 if decomposed else 2
        return FactorPlan(_fit_budget(new_factors, by_name, 2), g=next_g)

    # g == 2: densify levels
    if all(len(f.levels) == 4 for f in plan.factors):
        return None
    dense = [PlanFactor(f.name, LEVEL_LABELS) for f in plan.factors]
    return FactorPlan(_fit_budget(dense, by_name, 4), g=2)


def _fit_budget(factors: list, by_name: dict, levels: int) -> list:
    """Drop the weakest factors until a 16-run design can host the rest."""
    cap = 8 if levels == 2 else 5
    if len(factors) <= cap:
        return factors
    def strength(f):
        e = by_name.get(f.name)
        return abs(e.effect) if e else 0.0
    ranked = sorted(factors, key=strength, reverse=True)
    kept = set(id(f) for f in ranked[:cap])
    return [f for f in factors if id(f) in kept]


def materialize(strategy_labels: dict, baseline: dict | None = None,
                sd_defaults: SDParams | None = None,
                spec_defaults: CompanySpec | None = None) -> CompanySpec:
    """Build a company spec from level labels over a baseline assignment.

    ``baseline`` fixes factors that are not active in the strategy; factors
    absent from both stay at the documented defaults.
    """
    assignment = {}
    for name, label in (baseline or {}).items():
        for child in detailed_children(name):
            assignment[child] = label
    for name, label in strategy_labels.items():
        for child in detailed_children(name):
            assignment[child] = label

    sd = replace(sd_defaults) if sd_defaults is not None else SDParams()
    spec = CompanySpec(sd=sd)
    if spec_defaults is not None:
        spec.mb_pct = spec_defaults.mb_pct
        spec.ad_range = spec_defaults.ad_range
        spec.pm_range = spec_defaults.pm_range
    for name, label in assignment.items():
        fac = FACTORS[name]
        value = fac.level_value(label)
        if fac.kind == "scalar":
            setattr(spec.sd, fac.target, value)
        elif fac.kind == "mb":
            spec.mb_pct = value
        else:
            setattr(spec, fac.target, tuple(value))
    return spec.validate()


def validate_profile_values(strategy_labels: dict):
    """Raise when a strategy references unknown factors or labels."""
    for name, label in strategy_labels.items():
        for child in detailed_children(name):
            FACTORS[child].level_value(label)
