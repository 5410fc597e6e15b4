"""Design-space sweep (paper §4.1).

"We sweep the design space by varying n and the design frequency. For a
given n and frequency, we find the largest values of m and w that are
still below the area and power envelopes." The explorer does exactly
that in one numpy pass over the whole (n, f, w) grid: it solves the
largest feasible m of every entry in closed form and evaluates Eq. 3
and the service time on the feasible ones. Table 1 selects from those
columns; Figure 6 plots them as a point cloud.
"""

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.dse.area import accelerator_area_mm2
from repro.dse.performance import peak_throughput_top_s, service_time_us
from repro.dse.power import accelerator_power_w
from repro.dse.tech import FREQUENCY_GRID_HZ, TechnologyModel, TSMC28
from repro.hw.config import AcceleratorConfig

#: PE-width grid: dense at the small widths where the interesting
#: latency/throughput trades live, sparse above.
DEFAULT_W_GRID: Tuple[int, ...] = (
    1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64,
)


@dataclass(frozen=True)
class DesignPoint:
    """One feasible accelerator design with its modeled metrics."""

    n: int
    m: int
    w: int
    frequency_hz: float
    encoding: str
    throughput_top_s: float
    service_time_us: float
    area_mm2: float
    power_w: float
    bound: str  # "area" or "power" — which envelope limited m

    @property
    def frequency_mhz(self) -> float:
        return self.frequency_hz / 1e6

    def to_config(self, name: str, **overrides) -> AcceleratorConfig:
        """Materialize this point as a simulatable configuration."""
        return AcceleratorConfig(
            name=name,
            n=self.n,
            m=self.m,
            w=self.w,
            frequency_hz=self.frequency_hz,
            encoding=self.encoding,
            **overrides,
        )


@dataclass(frozen=True, eq=False)
class DesignColumns:
    """The feasible points of a sweep as parallel arrays, in sweep order
    (n outer, then frequency, then w)."""

    encoding: str
    tech: TechnologyModel
    n: np.ndarray
    m: np.ndarray
    w: np.ndarray
    frequency_hz: np.ndarray
    area_bound: np.ndarray
    throughput_top_s: np.ndarray
    service_time_us: np.ndarray

    def points(self, index: Any = slice(None)) -> List[DesignPoint]:
        """:class:`DesignPoint` objects for ``index`` (default: all).

        ``tolist`` keeps every field a Python number: a numpy scalar
        would serialize identically but slow down every simulator that
        computes with the resulting configuration.
        """
        columns = (
            self.n, self.m, self.w, self.frequency_hz, self.area_bound,
            self.throughput_top_s, self.service_time_us,
        )
        return [
            DesignPoint(
                n=n,
                m=m,
                w=w,
                frequency_hz=f,
                encoding=self.encoding,
                throughput_top_s=throughput,
                service_time_us=service,
                area_mm2=accelerator_area_mm2(
                    n, m, w, self.encoding, self.tech
                ).total_mm2,
                power_w=accelerator_power_w(
                    n, m, w, f, self.encoding, self.tech
                ).total_w,
                bound="area" if area_bound else "power",
            )
            for n, m, w, f, area_bound, throughput, service in zip(
                *(column[index].tolist() for column in columns)
            )
        ]


class DesignSpaceExplorer:
    """Sweeps (n, f, w) under the area and power envelopes.

    Args:
        encoding: Datapath encoding to explore.
        tech: Technology model supplying the unit constants.
        n_values: Array sides to sweep (default 1..256).
        frequencies_hz: Clock grid (default the near-threshold ladder).
        w_values: PE widths to scan per point (default 1..64).
    """

    def __init__(
        self,
        encoding: str = "hbfp8",
        tech: TechnologyModel = TSMC28,
        n_values: Optional[Sequence[int]] = None,
        frequencies_hz: Sequence[float] = FREQUENCY_GRID_HZ,
        w_values: Optional[Sequence[int]] = None,
    ):
        self.encoding = encoding
        self.tech = tech
        self.n_values = list(n_values) if n_values is not None else list(range(1, 257))
        self.frequencies_hz = list(frequencies_hz)
        self.w_values = list(w_values) if w_values is not None else list(DEFAULT_W_GRID)
        if min(self.n_values, default=0) < 1 or min(self.w_values, default=0) < 1:
            raise ValueError("n and w sweeps must be positive")

    def _max_m_grid(self) -> Tuple[np.ndarray, np.ndarray]:
        """Largest m under both envelopes over the n × f × w grid, and
        where the area envelope is the one that binds.

        Keep the order of every product: floor division turns a
        last-bit difference into a different m, and the golden digests
        in ``tests/dse`` pin the grid the scalar formula produced.
        """
        tech = self.tech
        costs = tech.encoding_costs(self.encoding)
        n = np.asarray(self.n_values, dtype=np.int64)[:, None, None]
        f = np.asarray(self.frequencies_hz, dtype=float)[None, :, None]
        w = np.asarray(self.w_values, dtype=float)[None, None, :]
        e_alu = np.array(
            [tech.alu_energy_j(self.encoding, x) for x in self.frequencies_hz]
        )[None, :, None]
        e_byte = np.array(
            [tech.sram_energy_j_per_byte(x) for x in self.frequencies_hz]
        )[None, :, None]
        ob = costs.operand_bytes
        m_area = tech.alu_area_budget_mm2() // (
            n * n * w * (costs.alu_area_um2 / 1e6)
        )
        # P_dyn >= f·(m·n²·w·e_alu + e_byte·ob·(w·n + m·w·n + m·n))
        fixed = w * n * e_byte * ob
        per_m = n * n * w * e_alu + e_byte * ob * n * (w + 1)
        m_power = (tech.dynamic_power_budget_w() / f - fixed) // per_m
        area_binds = m_area <= m_power
        return np.where(area_binds, m_area, m_power), area_binds

    def columns(self) -> DesignColumns:
        """Every feasible (m, w) variant of every (n, f), m maximized
        per width. Every width stays: a shallower (small-w) array trades
        peak throughput for pipeline latency, and the
        latency-constrained Table 1 picks need those variants."""
        m, area_binds = self._max_m_grid()
        feasible = m >= 1
        i_n, i_f, i_w = np.nonzero(feasible)  # row-major: sweep order
        n = np.asarray(self.n_values, dtype=np.int64)[i_n]
        m = m[feasible].astype(np.int64)
        w = np.asarray(self.w_values, dtype=np.int64)[i_w]
        f = np.asarray(self.frequencies_hz, dtype=float)[i_f]
        return DesignColumns(
            encoding=self.encoding,
            tech=self.tech,
            n=n,
            m=m,
            w=w,
            frequency_hz=f,
            area_bound=area_binds[feasible],
            throughput_top_s=peak_throughput_top_s(n, m, w, f),
            service_time_us=service_time_us(n, m, w, f),
        )

    def sweep(
        self, executor: Optional[Any] = None, chunk: int = 8
    ) -> List[DesignPoint]:
        """All feasible points — Figure 6's cloud.

        With an ``executor`` (a :class:`repro.exec.scheduler.JobRunner`), the n
        grid is fanned out in chunks of ``chunk`` as ``dse.points``
        jobs; aggregation preserves sweep order (n outer, frequency
        inner), so the result is identical to the serial loop for any
        worker count or chunking. A non-default technology model is
        not expressible in a job config, so those sweeps silently stay
        serial.
        """
        if executor is None or self.tech is not TSMC28:
            return self.columns().points()
        from repro.exec.jobs import Job

        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        jobs = [
            Job(
                "dse.points",
                {
                    "encoding": self.encoding,
                    "n_values": self.n_values[start:start + chunk],
                    "frequencies_hz": self.frequencies_hz,
                    "w_values": self.w_values,
                },
            )
            for start in range(0, len(self.n_values), chunk)
        ]
        return [
            DesignPoint(**point)
            for batch in executor.map(jobs)
            for point in batch
        ]
