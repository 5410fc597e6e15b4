"""Fleet-scale free training (extension): N Equinox + parameter server."""

from repro.cluster.fleet import EquinoxFleet
from repro.workload.scenarios import diurnal_load_profile


def _run():
    from repro.cluster.parameter_server import ParameterServer

    # A sharded parameter service (400 Gb/s aggregate fabric).
    fleet = EquinoxFleet(size=6, server=ParameterServer(network_bytes_per_s=50e9))
    # A fleet snapshot: six accelerators spread across the diurnal swing.
    loads = diurnal_load_profile(points=6, low=0.15, high=0.8)
    return fleet.train(loads=loads, batches=6, local_steps=8)


def _render(report):
    lines = [
        "Fleet training: 6x Equinox_500us + parameter server",
        "worker  load   inf TOp/s  train TOp/s  iter ms",
    ]
    for w in report.workers:
        lines.append(
            f"{w.worker_id:6d} {w.load:5.2f} {w.inference_top_s:10.1f} "
            f"{w.training_top_s:12.1f} {w.iteration_s * 1e3:8.2f}"
        )
    lines.append(
        f"round: compute {report.round.compute_s * 1e3:.2f} ms, "
        f"communication {report.round.communication_fraction:.0%}"
    )
    lines.append(
        f"fleet harvest: {report.fleet_training_top_s:.1f} TOp/s = "
        f"{report.dedicated_equivalents:.2f} dedicated training "
        f"accelerators for free ({report.samples_per_s:.0f} samples/s, "
        f"scaling efficiency {report.scaling_efficiency:.0%})"
    )
    return "\n".join(lines)


def test_fleet_training(run_once):
    report = run_once(_run, _render)
    # Six moderately loaded inference accelerators give away more than
    # one dedicated training accelerator's worth of throughput.
    assert report.dedicated_equivalents > 1.0
    assert report.scaling_efficiency > 0.5
