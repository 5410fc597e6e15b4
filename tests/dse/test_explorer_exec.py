"""The design space against committed goldens, and executor-fanned
sweep parity.

The goldens were generated with the scalar per-point sweep this
vectorized pass replaced; `sweep(executor=...)` fans the n grid out as
jobs. Both must reproduce that output *exactly* — the Pareto frontier
and Table 1 picks are downstream of every single point.
"""

from dataclasses import asdict

import pytest

from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.pareto import pareto_frontier
from repro.dse.table1 import design_space
from repro.exec.canonical import config_digest
from repro.exec.scheduler import JobRunner

#: (points, ``config_digest`` of their ``asdict``) of the default grid.
CLOUD_GOLDENS = {
    "hbfp8": (
        17593,
        "87d06952813c4211890f3bf71b71e6bc7d117bff14e7e4fa89727437f1bf613a",
    ),
    "bfloat16": (
        7996,
        "95b64bc67a90c5fb94024b8f9c4e06b053e4e5119d8014a2595c138a22cd0b89",
    ),
    "fixed8": (
        17935,
        "ff56dd7f4c7109edb38b52db7d28b04e5b86b4b8117f602354fff4bf1caf03e5",
    ),
}


@pytest.fixture(scope="module")
def explorer():
    return DesignSpaceExplorer(
        "hbfp8", n_values=[1, 3, 8, 17, 32, 64, 128, 256],
        frequencies_hz=[532e6, 610e6, 1000e6],
    )


class TestDesignSpaceGoldens:
    @pytest.mark.parametrize("encoding", sorted(CLOUD_GOLDENS))
    def test_full_grid_matches_golden(self, encoding):
        cloud = design_space(encoding)
        fields = [asdict(p) for p in cloud]
        assert (len(cloud), config_digest(fields)) == CLOUD_GOLDENS[encoding]
        # The digest writes np.float64(1.5) as 1.5; the types must be
        # checked on their own.
        assert {type(v) for f in fields for v in f.values()} == {
            int, float, str,
        }


class TestExecutorSweep:
    def test_fanned_sweep_identical_to_serial(self, explorer):
        serial = explorer.sweep()
        for chunk in (1, 3, 8):
            fanned = explorer.sweep(executor=JobRunner(jobs=1), chunk=chunk)
            assert fanned == serial, f"chunk={chunk} diverged"

    def test_pareto_frontier_unchanged(self, explorer):
        serial = pareto_frontier(explorer.sweep())
        fanned = pareto_frontier(
            explorer.sweep(executor=JobRunner(jobs=1), chunk=4)
        )
        assert serial == fanned

    def test_non_default_tech_stays_serial(self):
        """A custom technology model is not expressible as job config;
        the sweep must fall back to the serial path, not crash."""
        from repro.dse.tech import TSMC28
        from dataclasses import replace

        tweaked = replace(TSMC28, die_area_mm2=TSMC28.die_area_mm2 / 2)
        explorer = DesignSpaceExplorer(
            "hbfp8", tech=tweaked, n_values=[4, 8],
            frequencies_hz=[532e6],
        )
        fanned = explorer.sweep(executor=JobRunner(jobs=1))
        assert fanned == explorer.sweep()

    def test_bad_chunk_rejected(self, explorer):
        with pytest.raises(ValueError, match="chunk"):
            explorer.sweep(executor=JobRunner(jobs=1), chunk=0)
