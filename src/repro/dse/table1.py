"""Table 1: Pareto-optimal designs under latency constraints.

Four latency classes per encoding:

* ``min``   — the latency-optimal design (Equinox_min);
* ``50us``  — best throughput with service time under 50 µs;
* ``500us`` — best throughput under 500 µs (the paper's flagship,
  Equinox_500µs);
* ``none``  — best throughput unconstrained (Equinox_none).

:func:`equinox_configuration` materializes a class as a simulatable
:class:`~repro.hw.config.AcceleratorConfig`; results are memoized since
the sweep behind them is deterministic.
"""

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dse.explorer import DesignColumns, DesignPoint, DesignSpaceExplorer
from repro.dse.tech import TechnologyModel, TSMC28
from repro.hw.config import AcceleratorConfig

#: Latency classes of Table 1, as (name, service-time bound in µs).
EQUINOX_LATENCY_CLASSES: Tuple[Tuple[str, Optional[float]], ...] = (
    ("min", None),  # latency-optimal: minimize service time outright
    ("50us", 50.0),
    ("500us", 500.0),
    ("none", math.inf),
)

#: Sweep columns by ``(encoding, repr(tech))`` and Table 1 picks by
#: ``(latency class, encoding, repr(tech))``. The repr lists every
#: field, so equal technologies share a slot and different ones never
#: do. (``TechnologyModel`` holds a dict, so it cannot be a key itself.)
_COLUMNS: Dict[Tuple[str, str], DesignColumns] = {}
_PICKS: Dict[Tuple[str, str, str], DesignPoint] = {}


def _columns(encoding: str, tech: TechnologyModel) -> DesignColumns:
    key = (encoding, repr(tech))
    if key not in _COLUMNS:
        _COLUMNS[key] = DesignSpaceExplorer(encoding, tech).columns()
    return _COLUMNS[key]


def select_design(
    latency_class: str,
    encoding: str = "hbfp8",
    tech: TechnologyModel = TSMC28,
) -> DesignPoint:
    """Pick the Table 1 representative for one latency class.

    ``min`` minimizes (service time, −throughput); every other class
    maximizes (throughput, −service time) among the points within its
    bound. Remaining ties go to the first point in sweep order.
    """
    bounds = dict(EQUINOX_LATENCY_CLASSES)
    if latency_class not in bounds:
        raise KeyError(
            f"unknown latency class {latency_class!r}; "
            f"choose from {[name for name, _ in EQUINOX_LATENCY_CLASSES]}"
        )
    key = (latency_class, encoding, repr(tech))
    if key in _PICKS:
        return _PICKS[key]
    columns = _columns(encoding, tech)
    service = columns.service_time_us
    throughput = columns.throughput_top_s
    if not len(service):
        raise RuntimeError(f"no feasible designs for encoding {encoding!r}")

    bound = bounds[latency_class]
    if bound is None:  # latency-optimal
        candidates = np.arange(len(service))
        keys = (candidates, -throughput, service)
    else:
        candidates = np.flatnonzero(service <= bound)
        if not len(candidates):
            raise RuntimeError(
                f"no design meets the {latency_class} bound for {encoding!r}"
            )
        keys = (candidates, service[candidates], -throughput[candidates])
    # np.lexsort sorts by its last key first.
    best = candidates[np.lexsort(keys)[0]]
    _PICKS[key] = columns.points([best])[0]
    return _PICKS[key]


def pareto_table(
    encoding: str = "hbfp8", tech: TechnologyModel = TSMC28
) -> Dict[str, DesignPoint]:
    """The full Table 1 column for one encoding."""
    return {
        name: select_design(name, encoding, tech)
        for name, _ in EQUINOX_LATENCY_CLASSES
    }


def design_space(
    encoding: str = "hbfp8", tech: TechnologyModel = TSMC28
) -> List[DesignPoint]:
    """The full design cloud (Figure 6's small dots), in sweep order."""
    return DesignSpaceExplorer(encoding, tech).sweep()


def equinox_configuration(
    latency_class: str,
    encoding: str = "hbfp8",
    tech: TechnologyModel = TSMC28,
    **overrides,
) -> AcceleratorConfig:
    """Materialize ``Equinox_<class>`` as a simulatable configuration.

    Example:
        >>> cfg = equinox_configuration("500us")
        >>> cfg.encoding
        'hbfp8'
    """
    point = select_design(latency_class, encoding, tech)
    suffix = "" if encoding == "hbfp8" else f"_{encoding}"
    return point.to_config(f"equinox_{latency_class}{suffix}", **overrides)
