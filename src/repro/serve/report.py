"""The ``repro.serve/fleet-report/v1`` artifact.

One fleet report captures a whole tenant-mix scenario matrix: for each
fleet size, sustained RPS and p50/p99/p999 latency per SLO class, the
chip-kill record, and the per-class accounting identity (every placed
request is completed, shed, timed out, or dropped in failover —
nothing vanishes). Encoding reuses the repo-wide canonical JSON policy
(:func:`repro.obs.report.jsonable`): sorted keys, 2-space indent,
inf/nan as sentinel strings, so identically seeded runs emit
byte-identical artifacts regardless of ``--jobs``.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from repro.obs.report import from_jsonable, jsonable

#: Schema identifier embedded in (and required of) every artifact.
SCHEMA_ID = "repro.serve/fleet-report/v1"

#: Required per-class measurement keys in every curve point.
_CLASS_KEYS = {
    "tenants",
    "submitted",
    "completed",
    "shed",
    "timed_out",
    "failover_dropped",
    "unroutable",
    "sustained_rps",
    "p50_cycles",
    "p99_cycles",
    "p999_cycles",
    "slo_cycles",
    "slo_met",
}

#: Required totals keys in every curve point.
_TOTAL_KEYS = {
    "submitted",
    "completed",
    "shed",
    "timed_out",
    "failover_redispatched",
    "failover_dropped",
    "unroutable",
    "chips_killed",
}

_COUNT_KEYS = (
    "submitted",
    "completed",
    "shed",
    "timed_out",
    "failover_dropped",
    "unroutable",
)


@dataclass
class FleetReport:
    """One serving scenario matrix, exportable and validated."""

    seed: int
    tenants: List[Dict[str, Any]] = field(default_factory=list)
    service_classes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    calibration: Dict[str, Any] = field(default_factory=dict)
    fault_plan: Any = None
    curve: List[Dict[str, Any]] = field(default_factory=list)
    schema: str = SCHEMA_ID

    @property
    def reproducible(self) -> bool:
        """Every curve point passed its double-run determinism check."""
        return all(point.get("reproducible") for point in self.curve)

    def to_dict(self) -> Dict[str, Any]:
        return jsonable(
            {
                "schema": self.schema,
                "seed": self.seed,
                "tenants": self.tenants,
                "service_classes": self.service_classes,
                "calibration": self.calibration,
                "fault_plan": self.fault_plan,
                "curve": self.curve,
            }
        )

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identically seeded runs."""
        return json.dumps(
            self.to_dict(), sort_keys=True, indent=2, allow_nan=False
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetReport":
        problems = validate_fleet_report(data)
        if problems:
            raise ValueError(
                "invalid fleet report: " + "; ".join(problems[:5])
            )
        decoded = from_jsonable(dict(data))
        return cls(
            seed=decoded["seed"],
            tenants=decoded["tenants"],
            service_classes=decoded["service_classes"],
            calibration=decoded["calibration"],
            fault_plan=decoded.get("fault_plan"),
            curve=decoded["curve"],
            schema=decoded["schema"],
        )


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_fleet_report(data: Mapping[str, Any]) -> List[str]:
    """Structural + sanity validation; returns problems (empty = valid).

    Beyond shape, this enforces the two properties the artifact exists
    to witness: no NaN in any latency column, and the per-class
    accounting identity ``submitted == completed + shed + timed_out +
    failover_dropped`` (the invariant the dispatcher retry-leak bug
    used to violate).
    """
    if not isinstance(data, Mapping):
        return ["fleet report must be a JSON object"]
    problems: List[str] = []
    if data.get("schema") != SCHEMA_ID:
        problems.append(
            f"schema must be {SCHEMA_ID!r}, got {data.get('schema')!r}"
        )
    for key in ("seed", "tenants", "service_classes", "calibration", "curve"):
        if key not in data:
            problems.append(f"missing top-level key {key!r}")
    curve = data.get("curve")
    if not isinstance(curve, list) or not curve:
        problems.append("curve must be a non-empty list")
        return problems
    previous_size = 0
    for position, point in enumerate(curve):
        where = f"curve[{position}]"
        if not isinstance(point, Mapping):
            problems.append(f"{where}: not an object")
            continue
        size = point.get("fleet_size")
        if not isinstance(size, int) or size < 1:
            problems.append(f"{where}: fleet_size must be a positive int")
            continue
        if size <= previous_size:
            problems.append(
                f"{where}: fleet sizes must be strictly increasing"
            )
        previous_size = size
        if not isinstance(point.get("reproducible"), bool):
            problems.append(f"{where}: missing reproducible flag")
        duration = from_jsonable(point.get("duration_cycles"))
        if not _is_number(duration) or not duration > 0:
            problems.append(f"{where}: duration_cycles must be positive")
        totals = point.get("totals")
        if not isinstance(totals, Mapping) or not _TOTAL_KEYS <= set(totals):
            problems.append(
                f"{where}: totals must carry keys {sorted(_TOTAL_KEYS)}"
            )
        classes = point.get("classes")
        if not isinstance(classes, Mapping) or not classes:
            problems.append(f"{where}: classes must be a non-empty object")
            continue
        for class_name, entry in classes.items():
            label = f"{where}.classes[{class_name!r}]"
            if not isinstance(entry, Mapping):
                problems.append(f"{label}: not an object")
                continue
            missing = _CLASS_KEYS - set(entry)
            if missing:
                problems.append(f"{label}: missing keys {sorted(missing)}")
                continue
            for key in _COUNT_KEYS:
                value = entry[key]
                if not isinstance(value, int) or value < 0:
                    problems.append(
                        f"{label}: {key} must be a non-negative int"
                    )
            if all(isinstance(entry[key], int) for key in _COUNT_KEYS):
                identity = (
                    entry["completed"]
                    + entry["shed"]
                    + entry["timed_out"]
                    + entry["failover_dropped"]
                )
                if identity != entry["submitted"]:
                    problems.append(
                        f"{label}: accounting identity broken — submitted "
                        f"{entry['submitted']} != completed + shed + "
                        f"timed_out + failover_dropped = {identity}"
                    )
            for key in ("p50_cycles", "p99_cycles", "p999_cycles"):
                value = from_jsonable(entry[key])
                if value is None:
                    continue  # no completions in this class
                if not _is_number(value) or math.isnan(value):
                    problems.append(f"{label}: {key} must be non-nan")
            slo = from_jsonable(entry["slo_cycles"])
            if not _is_number(slo) or not slo > 0 or math.isnan(slo):
                problems.append(f"{label}: slo_cycles must be positive")
            p99 = from_jsonable(entry["p99_cycles"])
            if (
                isinstance(entry["slo_met"], bool)
                and _is_number(p99)
                and _is_number(slo)
                and entry["slo_met"] != (p99 <= slo)
            ):
                problems.append(
                    f"{label}: slo_met flag contradicts p99 vs slo_cycles"
                )
            rps = from_jsonable(entry["sustained_rps"])
            if not _is_number(rps) or rps < 0 or math.isnan(rps):
                problems.append(
                    f"{label}: sustained_rps must be a non-negative number"
                )
    return problems
