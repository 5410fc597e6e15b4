"""The structured JSON run artifact every experiment emits.

A :class:`RunReport` is the machine-readable counterpart of the text
tables the harness prints: one per run (an accelerator load experiment,
one chaos scenario, a fleet round, an experiment sweep), carrying the
paper's headline quantities in fixed fields —

* ``latency_us`` — p50/p99/mean/max request latency (Figures 7/10/11),
* ``throughput_top_s`` — inference and training TOp/s (Figure 9),
* ``cycle_breakdown`` — Figure 8's working/dummy/idle/other fractions,
* ``faults`` — the full :class:`repro.faults.counters.FaultCounters`
  snapshot,

plus the free-form ``metrics`` (a :class:`MetricsRegistry` snapshot),
``spans`` (per-name aggregates) and ``profile`` (the simulator event
count, filled only by ``python -m repro metrics smoke``) sections.

Serialization is canonical — keys sorted, NaN/Infinity encoded as the
strings ``"nan"``/``"inf"`` so the output is *valid* JSON — which makes
``to_json`` byte-identical across two runs of the same seed; the chaos
determinism self-check and the metrics test-suite rely on that.

``validate_report`` is the schema gate the CI smoke job runs: it
rejects structurally broken artifacts and any ``nan`` in a latency or
throughput field (an ``"inf"`` p99 is a legal value — it is the
zero-completion sentinel — but ``nan`` always means a collector bug).
"""

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "RunReport",
    "diff_reports",
    "from_jsonable",
    "jsonable",
    "report_from_simulation",
    "validate_report",
    "write_artifact",
]

#: Schema identifier embedded in (and required of) every artifact.
SCHEMA_ID = "repro.obs/run-report/v1"

#: Report kinds the tooling understands.
KINDS = ("accelerator", "experiment", "chaos", "fleet")

#: Figure 8's cycle categories (the only legal breakdown keys).
_CYCLE_KEYS = {"working", "dummy", "idle", "other"}

#: Fields validated as "number, inf allowed, nan forbidden".
_QUANTITY_SECTIONS = ("latency_us", "throughput_top_s")


def _jsonable(value: Any) -> Any:
    """Recursively convert to canonical JSON-encodable values.

    Floats become ``"inf"``/``"-inf"``/``"nan"`` strings when not
    finite (JSON has no encoding for them); numpy scalars collapse to
    Python numbers via their ``item()``.
    """
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} into a RunReport")


def _from_jsonable(value: Any) -> Any:
    """Inverse of :func:`_jsonable` for the sentinel strings."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if value == "nan":
        return math.nan
    if isinstance(value, dict):
        return {k: _from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


#: Public names for the canonical encode/decode pair. These define the
#: repo-wide inf/nan/numpy policy; :mod:`repro.exec.canonical` builds
#: every cache key and job result on top of them so artifacts and the
#: execution engine can never disagree about what a float means.
jsonable = _jsonable
from_jsonable = _from_jsonable


@dataclass
class RunReport:
    """One run's complete, exportable measurement record."""

    name: str
    kind: str
    config: Dict[str, Any] = field(default_factory=dict)
    latency_us: Dict[str, Optional[float]] = field(default_factory=dict)
    throughput_top_s: Dict[str, float] = field(default_factory=dict)
    cycle_breakdown: Dict[str, float] = field(default_factory=dict)
    faults: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    profile: Dict[str, float] = field(default_factory=dict)
    schema: str = SCHEMA_ID

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown report kind {self.kind!r}; choose from {KINDS}"
            )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return _jsonable(asdict(self))

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent, no NaN/Infinity
        literals. Byte-identical for identically seeded runs."""
        return json.dumps(
            self.to_dict(), sort_keys=True, indent=2, allow_nan=False
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        problems = validate_report(data)
        fatal = [p for p in problems if not p.startswith("nan:")]
        if fatal:
            raise ValueError(
                "invalid run artifact: " + "; ".join(fatal[:5])
            )
        decoded = _from_jsonable(dict(data))
        return cls(
            name=decoded["name"],
            kind=decoded["kind"],
            config=decoded.get("config", {}),
            latency_us=decoded.get("latency_us", {}),
            throughput_top_s=decoded.get("throughput_top_s", {}),
            cycle_breakdown=decoded.get("cycle_breakdown", {}),
            faults=decoded.get("faults", {}),
            metrics=decoded.get("metrics", {}),
            spans=decoded.get("spans", {}),
            profile=decoded.get("profile", {}),
            schema=decoded["schema"],
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------

    def flat(self) -> Dict[str, Any]:
        """Dotted-path flattening of every numeric field."""
        out: Dict[str, Any] = {}

        def walk(prefix: str, value: Any) -> None:
            if isinstance(value, Mapping):
                for key in sorted(value):
                    walk(f"{prefix}.{key}" if prefix else str(key), value[key])
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                out[prefix] = value

        for section in (
            "latency_us", "throughput_top_s", "cycle_breakdown",
            "faults", "metrics", "spans", "profile",
        ):
            walk(section, getattr(self, section))
        return out


def diff_reports(
    a: RunReport, b: RunReport, rel_tolerance: float = 0.0
) -> Dict[str, Tuple[Any, Any]]:
    """Fields that differ between two artifacts, as ``path -> (a, b)``.

    Missing fields appear with ``None`` on the absent side. With a
    ``rel_tolerance``, numeric pairs within that relative band are
    treated as equal (useful when diffing across code versions rather
    than checking determinism).
    """
    flat_a, flat_b = a.flat(), b.flat()
    out: Dict[str, Tuple[Any, Any]] = {}
    for path in sorted(set(flat_a) | set(flat_b)):
        va, vb = flat_a.get(path), flat_b.get(path)
        if va is None or vb is None:
            if va != vb:
                out[path] = (va, vb)
            continue
        if va == vb:
            continue
        if math.isnan(va) and math.isnan(vb):
            continue
        if rel_tolerance > 0 and _close(va, vb, rel_tolerance):
            continue
        out[path] = (va, vb)
    return out


def _close(a: float, b: float, rel: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b
    scale = max(abs(a), abs(b))
    return scale == 0 or abs(a - b) <= rel * scale


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_quantity(
    problems: List[str], section: str, key: str, value: Any
) -> None:
    """latency/throughput fields: number or the ``"inf"`` sentinel or
    null; any nan is a hard failure (the CI smoke job's contract)."""
    if value is None or value in ("inf", "-inf"):
        return
    if value == "nan" or (_is_number(value) and math.isnan(value)):
        problems.append(f"nan: {section}.{key} is NaN")
        return
    if not _is_number(value):
        problems.append(
            f"{section}.{key} must be a number, null or 'inf', "
            f"got {value!r}"
        )


def validate_report(data: Mapping[str, Any]) -> List[str]:
    """Validate one decoded JSON artifact against the v1 schema.

    Returns a list of problem strings (empty = valid). NaN problems are
    prefixed ``nan:`` so callers can distinguish structural breakage
    from poisoned measurements.
    """
    problems: List[str] = []
    if not isinstance(data, Mapping):
        return ["artifact must be a JSON object"]
    if data.get("schema") != SCHEMA_ID:
        problems.append(
            f"schema must be {SCHEMA_ID!r}, got {data.get('schema')!r}"
        )
    if not isinstance(data.get("name"), str) or not data.get("name"):
        problems.append("name must be a non-empty string")
    if data.get("kind") not in KINDS:
        problems.append(f"kind must be one of {KINDS}, got {data.get('kind')!r}")
    for section in (
        "config", "latency_us", "throughput_top_s", "cycle_breakdown",
        "faults", "metrics", "spans", "profile",
    ):
        if section in data and not isinstance(data[section], Mapping):
            problems.append(f"{section} must be an object")

    for section in _QUANTITY_SECTIONS:
        values = data.get(section, {})
        if isinstance(values, Mapping):
            for key, value in values.items():
                _check_quantity(problems, section, key, value)

    breakdown = data.get("cycle_breakdown", {})
    if isinstance(breakdown, Mapping) and breakdown:
        unknown = set(breakdown) - _CYCLE_KEYS
        if unknown:
            problems.append(
                f"cycle_breakdown has unknown categories {sorted(unknown)}"
            )
        for key, value in breakdown.items():
            if not _is_number(value) or math.isnan(value):
                problems.append(f"cycle_breakdown.{key} must be a finite number")
            elif not -1e-9 <= value <= 1 + 1e-9:
                problems.append(
                    f"cycle_breakdown.{key}={value} outside [0, 1]"
                )

    faults = data.get("faults", {})
    if isinstance(faults, Mapping):
        for key, value in faults.items():
            if not _is_number(value) or math.isnan(value) or value < 0:
                problems.append(
                    f"faults.{key} must be a non-negative number, got {value!r}"
                )
    return problems


def write_artifact(report: RunReport, directory: str) -> None:
    """Validate ``report``, print each problem to stderr, and write it
    as ``<directory>/<name>.json``."""
    text = report.to_json()
    for problem in validate_report(json.loads(text)):
        print(f"invalid artifact {report.name}: {problem}", file=sys.stderr)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{report.name}.json")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print(f"[artifact] {path}")


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def report_from_simulation(
    name: str,
    sim_report: Any,
    *,
    kind: str = "accelerator",
    config: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    spans: Optional[Dict[str, Dict[str, float]]] = None,
) -> RunReport:
    """Build an artifact from a ``SimulationReport``-shaped object.

    Duck-typed so :mod:`repro.obs` never imports :mod:`repro.core`
    (the dependency runs the other way). A ``nan`` latency — the
    no-traffic "unmeasured" sentinel — becomes JSON ``null`` so the
    artifact stays schema-valid; ``inf`` (offered traffic, zero
    completions) is preserved.
    """
    full_config = {
        "config": sim_report.config_name,
        "load": sim_report.load,
        "duration_cycles": sim_report.duration_cycles,
        "frequency_hz": sim_report.frequency_hz,
    }
    if config:
        full_config.update(config)

    def _measured(value: Optional[float]) -> Optional[float]:
        if value is None or math.isnan(value):
            return None
        return value

    faults = sim_report.faults.as_dict()
    return RunReport(
        name=name,
        kind=kind,
        config=full_config,
        latency_us={
            "p50": _measured(sim_report.p50_latency_us),
            "p99": _measured(sim_report.p99_latency_us),
            "mean": _measured(sim_report.mean_latency_us),
            "max": _measured(sim_report.max_latency_us),
        },
        throughput_top_s={
            "inference": sim_report.inference_top_s,
            "training": sim_report.training_top_s,
        },
        cycle_breakdown=dict(sim_report.cycle_breakdown),
        faults={key: float(faults[key]) for key in sorted(faults)},
        metrics=metrics or {},
        spans=spans or {},
    )
