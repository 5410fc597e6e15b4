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
from typing import Any, Dict, List, Optional, Tuple

from repro.dse.explorer import DesignPoint, DesignSpaceExplorer
from repro.dse.pareto import pareto_frontier
from repro.dse.tech import TechnologyModel, TSMC28
from repro.hw.config import AcceleratorConfig

#: Latency classes of Table 1, as (name, service-time bound in µs).
EQUINOX_LATENCY_CLASSES: Tuple[Tuple[str, Optional[float]], ...] = (
    ("min", None),  # latency-optimal: minimize service time outright
    ("50us", 50.0),
    ("500us", 500.0),
    ("none", math.inf),
)

#: Sweeps by ``(encoding, repr(tech))``. The repr lists every field, so
#: equal technologies share a slot and different ones never do.
#: (``TechnologyModel`` holds a dict, so it cannot be a key itself.)
_SWEEP_CACHE: Dict[Tuple[str, str], List[DesignPoint]] = {}


def _sweep(
    encoding: str,
    tech: TechnologyModel,
    executor: Optional[Any] = None,
) -> List[DesignPoint]:
    key = (encoding, repr(tech))
    if key not in _SWEEP_CACHE:
        _SWEEP_CACHE[key] = DesignSpaceExplorer(encoding, tech).sweep(
            executor=executor
        )
    return _SWEEP_CACHE[key]


def select_design(
    latency_class: str,
    encoding: str = "hbfp8",
    tech: TechnologyModel = TSMC28,
) -> DesignPoint:
    """Pick the Table 1 representative for one latency class."""
    bounds = dict(EQUINOX_LATENCY_CLASSES)
    if latency_class not in bounds:
        raise KeyError(
            f"unknown latency class {latency_class!r}; "
            f"choose from {[name for name, _ in EQUINOX_LATENCY_CLASSES]}"
        )
    points = _sweep(encoding, tech)
    if not points:
        raise RuntimeError(f"no feasible designs for encoding {encoding!r}")

    bound = bounds[latency_class]
    if bound is None:  # latency-optimal
        return min(
            points, key=lambda p: (p.service_time_us, -p.throughput_top_s)
        )
    feasible = [p for p in points if p.service_time_us <= bound]
    if not feasible:
        raise RuntimeError(
            f"no design meets the {latency_class} bound for {encoding!r}"
        )
    return max(
        feasible, key=lambda p: (p.throughput_top_s, -p.service_time_us)
    )


def pareto_table(
    encoding: str = "hbfp8", tech: TechnologyModel = TSMC28
) -> Dict[str, DesignPoint]:
    """The full Table 1 column for one encoding."""
    return {
        name: select_design(name, encoding, tech)
        for name, _ in EQUINOX_LATENCY_CLASSES
    }


def frontier(
    encoding: str = "hbfp8",
    tech: TechnologyModel = TSMC28,
    executor: Optional[Any] = None,
) -> List[DesignPoint]:
    """The Pareto frontier of the sweep (Figure 6's blue dots)."""
    return pareto_frontier(_sweep(encoding, tech, executor))


def design_space(
    encoding: str = "hbfp8",
    tech: TechnologyModel = TSMC28,
    executor: Optional[Any] = None,
) -> List[DesignPoint]:
    """The full best-per-(n, f) cloud (Figure 6's small dots)."""
    return list(_sweep(encoding, tech, executor))


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
