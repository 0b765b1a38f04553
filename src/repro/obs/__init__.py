"""repro.obs — deterministic cross-layer observability.

The pieces (docs/OBSERVABILITY.md, docs/MONITORING.md):

* :mod:`repro.obs.probe` — the probe bus: typed, zero-cost-when-disabled
  event emission from every layer, journaled and fanned out to batch
  subscribers, with the typed probe catalogue and ``ProbeLog``, the one
  whole-stream list.
* :mod:`repro.obs.recorder` — the flight recorder (bounded per-node event
  rings), failure-time diagnostic bundles, and the timeline/swimlane
  renderers ``repro trace`` and ``repro obs render`` share.
* :mod:`repro.obs.monitor` — the contract monitor: a live SLO rules
  engine evaluating the paper's overhead bounds over the probe stream.
* :mod:`repro.obs.diff` — trace diff: first-divergence localization
  between two probe exports or bundles.
* :mod:`repro.obs.scenario` — the shared quickstart scenario used by the
  ``repro obs`` CLI and the determinism tests.
* :mod:`repro.obs.spans` — span/episode reconstruction over the probe
  stream (token laps, 911 episodes, merge windows, resync ladders).
* :mod:`repro.obs.agg` — bounded-state streaming aggregation: the one
  rollup every bundle and export carries.
"""

from repro.obs.agg import (
    BoundedHistogram,
    StreamAggregator,
    rollup_json,
)
from repro.obs.diff import (
    Divergence,
    canonical_records,
    first_divergence,
    load_events,
    render_divergence,
)
from repro.obs.monitor import (
    CONTRACT_READS,
    CONTRACT_RULES,
    Alert,
    ContractMonitor,
    RuleSpec,
    RuleWindow,
    contract_rule,
    paper_contract_rules,
    realtime_contract_rules,
    render_alerts,
)
from repro.obs.probe import (
    PROBE_CATALOG,
    PROBE_TYPES,
    ProbeBus,
    ProbeConsumer,
    ProbeEvent,
    ProbeLog,
    conforms,
    event_from_record,
    event_record,
    events_to_jsonl,
    format_event,
)
from repro.obs.recorder import (
    BUNDLE_SCHEMA,
    SUPPORTED_SCHEMAS,
    FlightRecorder,
    build_bundle,
    bundle_events,
    bundle_to_json,
    causal_chain,
    dump_bundle,
    events_to_json,
    load_bundle,
    render_bundle,
    render_chain,
    render_swimlanes,
    render_timeline,
    trace_rows,
)
from repro.obs.spans import Span, SpanTimeline, reconstruct_spans

__all__ = [
    "BoundedHistogram",
    "StreamAggregator",
    "rollup_json",
    "Span",
    "SpanTimeline",
    "reconstruct_spans",
    "PROBE_CATALOG",
    "PROBE_TYPES",
    "ProbeBus",
    "ProbeConsumer",
    "ProbeEvent",
    "ProbeLog",
    "conforms",
    "event_from_record",
    "event_record",
    "events_to_jsonl",
    "format_event",
    "BUNDLE_SCHEMA",
    "SUPPORTED_SCHEMAS",
    "FlightRecorder",
    "build_bundle",
    "bundle_events",
    "bundle_to_json",
    "causal_chain",
    "dump_bundle",
    "load_bundle",
    "render_bundle",
    "render_chain",
    "trace_rows",
    "render_timeline",
    "render_swimlanes",
    "events_to_json",
    "CONTRACT_READS",
    "CONTRACT_RULES",
    "Alert",
    "ContractMonitor",
    "RuleSpec",
    "RuleWindow",
    "contract_rule",
    "paper_contract_rules",
    "realtime_contract_rules",
    "render_alerts",
    "Divergence",
    "canonical_records",
    "first_divergence",
    "load_events",
    "render_divergence",
]
