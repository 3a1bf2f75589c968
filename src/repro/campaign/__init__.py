"""Declarative, fault-tolerant campaign orchestration.

A *campaign* scales the paper's §VII sensitivity analysis from one-shot
panels to resumable sweeps: a JSON :class:`CampaignSpec`
declares axes over the registered experiments, the engine expands them
into seed-deterministic :class:`~repro.campaign.engine.TrialUnit` lists,
executes them through the robust runner (per-trial timeout, bounded
retry with exponential backoff, worker-crash quarantine), and journals
every completed unit to an append-only ``campaign.jsonl`` so an
interrupted run resumes exactly where it stopped — with final reports
byte-identical to an uninterrupted run at any ``--jobs`` setting.

Layering: ``experiments/*.trial_units()`` grids → :mod:`.registry`
(name → provider, trial type → runner) → :mod:`.spec` (declarative
JSON) → :mod:`.engine` (expand/execute/checkpoint) →
:mod:`.journal` (crash-tolerant JSONL) → :mod:`.report` (pure-function
rendering over journal records).  :mod:`.service` layers a
coordinator/worker split with a work-stealing lease queue and an HTTP
API on top, streaming results into the very same journal; it is the
one way to spread a campaign over several hosts.
"""

from repro.campaign.engine import (
    CampaignState,
    TrialUnit,
    expand_units,
    load_state,
    open_journal,
    run_campaign,
    unit_record,
    units_by_id,
)
from repro.campaign.journal import (
    JOURNAL_VERSION,
    UnitRecord,
    read_journal,
    record_from_payload,
)
from repro.campaign.registry import (
    EXPERIMENTS,
    ExperimentDef,
    get_experiment,
    register_experiment,
    register_trial_runner,
    run_experiment,
    run_unit_trial,
)
from repro.campaign.report import (
    build_report,
    render_status,
    report_dict,
    status_dict,
)
from repro.campaign.spec import SPEC_VERSION, AxisSpec, CampaignSpec

__all__ = [
    "AxisSpec",
    "CampaignSpec",
    "CampaignState",
    "EXPERIMENTS",
    "ExperimentDef",
    "JOURNAL_VERSION",
    "SPEC_VERSION",
    "TrialUnit",
    "UnitRecord",
    "build_report",
    "expand_units",
    "get_experiment",
    "load_state",
    "open_journal",
    "read_journal",
    "record_from_payload",
    "register_experiment",
    "register_trial_runner",
    "render_status",
    "report_dict",
    "run_campaign",
    "run_experiment",
    "run_unit_trial",
    "status_dict",
    "unit_record",
    "units_by_id",
]
