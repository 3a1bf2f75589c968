"""Experiment registry and trial-runner dispatch for campaigns.

Two registries decouple the engine from the experiment modules:

* :data:`EXPERIMENTS` — name → :class:`ExperimentDef`, whose ``units``
  callable is the module's uniform ``trial_units()`` entry point
  returning ``(config key, trial)`` pairs in deterministic grid order;
* :data:`TRIAL_RUNNERS` — trial dataclass type → picklable runner, so a
  single campaign batch can mix :class:`InjectionTrial` sweeps and
  :class:`ScenarioTrial` worlds in one ``execute_trials`` call
  (:func:`run_unit_trial` dispatches per unit inside the worker).

:func:`run_experiment` is the one way to run an experiment by name
outside a campaign (the CLI panels, ``repro claims``, tests).

Tests register synthetic experiments (e.g. an always-crashing trial) the
same way the built-ins register themselves; on Linux the fork start
method makes such registrations visible in pool workers.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type

from repro.errors import ConfigurationError

#: name → experiment definition (grid provider).
EXPERIMENTS: Dict[str, "ExperimentDef"] = {}

#: trial dataclass type → picklable ``trial -> TrialResult`` runner.
TRIAL_RUNNERS: Dict[type, Callable[[Any], Any]] = {}


@dataclass(frozen=True)
class ExperimentDef:
    """A campaign-runnable experiment.

    Attributes:
        name: registry key, used as the ``experiment`` field of axes.
        units: the grid provider — keyword arguments in, deterministic
            ``(config key, trial)`` pairs out.
        description: one-liner for ``repro campaign`` listings/errors.
    """

    name: str
    units: Callable[..., List[Tuple[Any, Any]]]
    description: str = ""


def register_experiment(defn: ExperimentDef, replace: bool = False) -> None:
    """Register an experiment definition under ``defn.name``."""
    if defn.name in EXPERIMENTS and not replace:
        raise ConfigurationError(
            f"experiment {defn.name!r} is already registered")
    EXPERIMENTS[defn.name] = defn


def get_experiment(name: str) -> ExperimentDef:
    """Look up a registered experiment or fail with the known names."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; registered: "
            f"{', '.join(sorted(EXPERIMENTS))}") from None


def register_trial_runner(trial_type: Type[Any],
                          runner: Callable[[Any], Any],
                          replace: bool = False) -> None:
    """Map a trial dataclass type to its picklable runner."""
    if trial_type in TRIAL_RUNNERS and not replace:
        raise ConfigurationError(
            f"trial runner for {trial_type.__name__} is already registered")
    TRIAL_RUNNERS[trial_type] = runner


def run_unit_trial(trial: Any) -> Any:
    """Run one campaign unit by dispatching on its trial type.

    Module-level and therefore picklable: this is the single ``runner``
    handed to :func:`repro.runner.execute_trials` for a whole campaign
    batch, however many experiment kinds the batch mixes.
    """
    for cls in type(trial).__mro__:
        runner = TRIAL_RUNNERS.get(cls)
        if runner is not None:
            return runner(trial)
    raise ConfigurationError(
        f"no trial runner registered for {type(trial).__name__} "
        f"(see repro.campaign.register_trial_runner)")


def expand_axis(
    defn: ExperimentDef,
    params: Mapping[str, Any],
    default_seed: Any = None,
    default_connections: Any = None,
    collect_metrics: bool = False,
) -> List[Tuple[Any, Any]]:
    """Call an experiment's grid provider with campaign-level defaults.

    Campaign-wide ``seed`` / ``connections`` / ``collect_metrics`` fill
    the provider's ``base_seed`` / ``n_connections`` /
    ``collect_metrics`` parameters when the provider accepts them and
    the axis params do not override them; a bad axis raises
    :class:`~repro.errors.ConfigurationError` naming the experiment.
    """
    signature = inspect.signature(defn.units)
    kwargs = dict(params)
    if default_seed is not None and "base_seed" in signature.parameters:
        kwargs.setdefault("base_seed", default_seed)
    if default_connections is not None \
            and "n_connections" in signature.parameters:
        kwargs.setdefault("n_connections", default_connections)
    if collect_metrics and "collect_metrics" in signature.parameters:
        kwargs.setdefault("collect_metrics", True)
    try:
        signature.bind(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"axis {defn.name!r}: {exc} "
            f"(provider signature: {defn.name}{signature})") from None
    try:
        return list(defn.units(**kwargs))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigurationError(f"axis {defn.name!r}: {exc}") from exc


def run_experiment(name: str, *, jobs: Optional[int] = None, cache=None,
                   **params: Any) -> Dict[Any, List[Any]]:
    """Run a registered experiment by name; results grouped by config key.

    ``params`` are the experiment's ``trial_units()`` keyword arguments
    (e.g. ``base_seed``, ``n_connections``, ``collect_metrics``), bound
    and validated exactly as a campaign axis's are; ``jobs`` / ``cache``
    go to :func:`repro.experiments.common.run_trial_units`.
    """
    from repro.experiments.common import run_trial_units

    return run_trial_units(expand_axis(get_experiment(name), params),
                           jobs=jobs, cache=cache)


def _register_builtins() -> None:
    """Register the built-in experiment modules and their trial runners."""
    from repro.experiments import (
        ablations,
        defense,
        dense,
        distance,
        hop_interval,
        payload_size,
        scenarios,
        wall,
    )
    from repro.experiments.common import InjectionTrial, run_single_trial

    register_experiment(ExperimentDef(
        "hop", hop_interval.trial_units,
        "Fig. 9 hop-interval sensitivity sweep"))
    register_experiment(ExperimentDef(
        "payload", payload_size.trial_units,
        "Fig. 9 payload-size sensitivity sweep"))
    register_experiment(ExperimentDef(
        "distance", distance.trial_units,
        "Fig. 9 attacker-distance sweep"))
    register_experiment(ExperimentDef(
        "wall", wall.trial_units,
        "behind-a-wall attenuation sweep"))
    register_experiment(ExperimentDef(
        "widening", ablations.trial_units,
        "ABL-1 widening-reduction countermeasure ablation"))
    register_experiment(ExperimentDef(
        "encryption", ablations.encryption_trial_units,
        "ABL-2 injection against encrypted connections"))
    register_experiment(ExperimentDef(
        "scenario", scenarios.trial_units,
        "§VI end-to-end attack scenarios × devices"))
    register_experiment(ExperimentDef(
        "occupancy", dense.trial_units,
        "injection success vs. ambient occupancy in dense-RF worlds"))
    register_experiment(ExperimentDef(
        "defense", defense.trial_units,
        "§VIII detector bench: every detector vs. attack and benign "
        "traffic"))

    register_trial_runner(InjectionTrial, run_single_trial)
    register_trial_runner(scenarios.ScenarioTrial,
                          scenarios.run_scenario_trial)
    register_trial_runner(dense.DenseTrial, dense.run_dense_trial)
    register_trial_runner(defense.DefenseTrial, defense.run_defense_trial)


_register_builtins()
