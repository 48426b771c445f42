"""The cluster tier: Device protocol, pass-through identity, fleet runs.

The load-bearing properties:

* **N=1 identity** — a single-device cluster behind the pass-through
  router is bit-identical to a bare ``GPUSystem`` run (outcomes,
  admission counters, WG traces, engine clocks), on both the finite
  and the streamed path, with and without job retirement;
* **determinism** — re-running the same fleet spec is bit-identical,
  and per-device seeds follow the documented spawn scheme (device
  ``i``'s seed never depends on the fleet size);
* **parallel == serial** — fanning device simulations over a process
  pool changes the wall clock, never a result;
* **conservation** — every arrival lands in exactly one device lane
  or the router-rejected ledger (``audit_routing`` runs after every
  fleet run);
* **route once** — a serial run, finite or streamed, draws and routes
  every arrival exactly once, however many devices it feeds.
"""

from __future__ import annotations

from itertools import islice

import pytest

from repro import cli
from repro.cluster import (ClusterMetrics, ClusterSystem, derive_device_seed,
                           derive_router_seed)
from repro.cluster.routers import Router
from repro.config import SimConfig
from repro.errors import ConfigError, SimulationError
from repro.schedulers.registry import make_scheduler
from repro.sim import Device
from repro.sim.device import GPUSystem
from repro.telemetry import TelemetryHub
from repro.validation import audit_routing
from repro.workloads.streaming import (SUSTAINED_RATES, SUSTAINED_TINY_KERNEL,
                                       JobTemplate, PoissonSource,
                                       build_sustained_jobs,
                                       sustained_fleet_source,
                                       sustained_source)

RATE = SUSTAINED_RATES["high"]


def _device_signature(system, metrics):
    """Everything a single-device run decides, as a comparable value."""
    admission = getattr(system.policy, "admission", None)
    return (
        [(o.job_id, o.accepted, o.completion, o.wgs_executed, o.latency)
         for o in metrics.outcomes],
        metrics.end_time,
        metrics.wg_completions,
        system.sim.events_fired,
        system.sim.now,
        system.dispatcher.wgs_issued,
        system.dispatcher.wgs_preempted,
        system.host.commands_sent,
        (admission.accepted, admission.rejected)
        if admission is not None else None,
    )


def _fleet_signature(metrics: ClusterMetrics):
    """Everything a fleet run decides, as a comparable value."""
    return (
        metrics.lane_sizes,
        metrics.router_rejected,
        metrics.decision_reasons,
        metrics.num_jobs,
        metrics.jobs_meeting_deadline,
        metrics.jobs_rejected,
        tuple(None if m is None else
              (m.num_jobs, m.jobs_meeting_deadline, m.jobs_rejected,
               m.end_time, m.wg_completions)
              for m in metrics.per_device),
        tuple(None if d is None else
              (d["events_fired"], d["now"], d["wgs_issued"],
               d["commands_sent"], d["admission"])
              for d in metrics.diagnostics),
    )


def _streamed_fleet(num_devices=3, router="laxity", jobs=400,
                    multiplier=1.0, **kwargs):
    fleet = ClusterSystem("LAX", SimConfig(), num_devices=num_devices,
                          router=router, retire=True, **kwargs)
    fleet.submit_stream(
        sustained_fleet_source(num_devices, RATE * multiplier),
        max_jobs=jobs)
    return fleet


class _CountingSource:
    """An arrival source that counts the jobs its streams yield."""

    def __init__(self, source):
        self._source = source
        self.drawn = 0

    def jobs(self, first_job_id=0):
        for job in self._source.jobs(first_job_id):
            self.drawn += 1
            yield job


class TestDeviceProtocol:
    def test_gpu_system_is_the_reference_device(self):
        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        assert isinstance(system, Device)

    def test_cluster_system_is_a_device(self):
        fleet = ClusterSystem("LAX", SimConfig(), num_devices=2)
        assert isinstance(fleet, Device)

    def test_interchangeable_at_call_sites(self):
        """One driver function serves both tiers through the protocol."""
        def drive(device: Device):
            device.submit_workload(
                build_sustained_jobs(40, RATE, 1, SimConfig().gpu))
            return device.run()

        single = drive(GPUSystem(make_scheduler("LAX"), SimConfig()))
        fleet = drive(ClusterSystem("LAX", SimConfig(), num_devices=2))
        assert single.num_jobs == fleet.num_jobs == 40


class TestPassThroughIdentity:
    """N=1 + pass-through == bare GPUSystem, bit for bit."""

    @pytest.mark.parametrize("retire", (False, True))
    def test_finite_path_bit_identical(self, retire):
        jobs = build_sustained_jobs(120, RATE, 1, SimConfig().gpu)
        bare = GPUSystem(make_scheduler("LAX"), SimConfig(), retire=retire)
        bare.submit_workload(jobs)
        bare_sig = _device_signature(bare, bare.run())

        fleet = ClusterSystem("LAX", SimConfig(), num_devices=1,
                              router="pass-through", retire=retire)
        fleet.submit_workload(
            build_sustained_jobs(120, RATE, 1, SimConfig().gpu))
        metrics = fleet.run()
        fleet_sig = _device_signature(fleet.devices[0],
                                      metrics.per_device[0])
        assert fleet_sig == bare_sig

    @pytest.mark.parametrize("retire", (False, True))
    def test_streamed_path_bit_identical(self, retire):
        bare = GPUSystem(make_scheduler("LAX"), SimConfig(), retire=retire)
        bare.submit_stream(sustained_source(RATE).jobs(), max_jobs=120)
        bare_sig = _device_signature(bare, bare.run())

        fleet = ClusterSystem("LAX", SimConfig(), num_devices=1,
                              router="pass-through", retire=retire)
        fleet.submit_stream(sustained_source(RATE), max_jobs=120)
        metrics = fleet.run()
        fleet_sig = _device_signature(fleet.devices[0],
                                      metrics.per_device[0])
        assert fleet_sig == bare_sig

    def test_wg_traces_identical(self, tmp_path):
        hub_bare = TelemetryHub(wg_events=True)
        bare = GPUSystem(make_scheduler("LAX"), SimConfig(),
                         telemetry=hub_bare, retire=False)
        bare.submit_workload(
            build_sustained_jobs(60, RATE, 1, SimConfig().gpu))
        bare.run()

        hub_dev = TelemetryHub(wg_events=True)
        fleet = ClusterSystem("LAX", SimConfig(), num_devices=1,
                              router="pass-through", retire=False,
                              device_telemetry=[hub_dev])
        fleet.submit_workload(
            build_sustained_jobs(60, RATE, 1, SimConfig().gpu))
        fleet.run()

        assert hub_dev.trace.counts() == hub_bare.trace.counts()
        bare_path = str(tmp_path / "bare.jsonl")
        fleet_path = str(tmp_path / "fleet.jsonl")
        hub_bare.trace.to_jsonl(bare_path)
        hub_dev.trace.to_jsonl(fleet_path)
        with open(bare_path, encoding="utf-8") as b, \
                open(fleet_path, encoding="utf-8") as f:
            assert f.read() == b.read()

    def test_fleet_headline_metrics_match_device(self):
        fleet = ClusterSystem("LAX", SimConfig(), num_devices=1,
                              router="pass-through", retire=False)
        fleet.submit_workload(
            build_sustained_jobs(80, RATE, 1, SimConfig().gpu))
        metrics = fleet.run()
        device = metrics.per_device[0]
        assert metrics.num_jobs == device.num_jobs
        assert metrics.jobs_meeting_deadline == device.jobs_meeting_deadline
        assert metrics.deadline_ratio == device.deadline_ratio
        assert metrics.p99_latency_ticks == device.p99_latency_ticks
        assert metrics.load_imbalance == 1.0


class TestDeterministicSeeding:
    def test_device_seed_spawn_is_stable(self):
        # The documented spawn scheme: SeedSequence(seed, (1, index)).
        assert derive_device_seed(1, 0) == derive_device_seed(1, 0)
        assert derive_device_seed(1, 0) != derive_device_seed(1, 1)
        assert derive_device_seed(1, 0) != derive_device_seed(2, 0)
        assert derive_router_seed(1) != derive_device_seed(1, 0)

    def test_device_seeds_independent_of_fleet_size(self):
        small = ClusterSystem("LAX", SimConfig(), num_devices=2)
        large = ClusterSystem("LAX", SimConfig(), num_devices=5)
        assert large.device_seeds[:2] == small.device_seeds

    @pytest.mark.parametrize("router", ("round-robin", "power-of-two",
                                        "laxity"))
    def test_rerun_same_spec_bit_identical(self, router):
        first = _streamed_fleet(router=router, multiplier=1.5).run()
        second = _streamed_fleet(router=router, multiplier=1.5).run()
        assert _fleet_signature(second) == _fleet_signature(first)


class TestParallelExecution:
    def test_pool_bit_identical_to_serial(self):
        serial = _streamed_fleet(jobs=600, multiplier=1.5, workers=1).run()
        pooled = _streamed_fleet(jobs=600, multiplier=1.5, workers=3).run()
        assert _fleet_signature(pooled) == _fleet_signature(serial)
        assert pooled.workers == 3

    def test_finite_lanes_through_the_pool(self):
        jobs = build_sustained_jobs(300, 3 * RATE, 1, SimConfig().gpu)
        serial = ClusterSystem("LAX", SimConfig(), num_devices=3,
                               router="round-robin")
        serial.submit_workload(jobs)
        pooled = ClusterSystem("LAX", SimConfig(), num_devices=3,
                               router="round-robin", workers=3)
        pooled.submit_workload(
            build_sustained_jobs(300, 3 * RATE, 1, SimConfig().gpu))
        assert _fleet_signature(pooled.run()) == \
            _fleet_signature(serial.run())


class TestFleetRuns:
    def test_streamed_fleet_with_retirement(self):
        metrics = _streamed_fleet(num_devices=4, jobs=800).run()
        assert metrics.num_jobs == 800
        assert sum(metrics.lane_sizes) + metrics.router_rejected == 800
        assert 0.0 < metrics.deadline_ratio <= 1.0
        assert metrics.load_imbalance >= 1.0
        assert metrics.describe().startswith("laxity:")

    def test_validated_fleet_run_is_clean(self):
        metrics = _streamed_fleet(num_devices=2, jobs=300,
                                  validate=True).run()
        assert metrics.num_jobs == 300

    def test_router_decisions_reach_the_hub(self):
        hub = TelemetryHub(decision_events=True)
        fleet = _streamed_fleet(num_devices=2, jobs=200, telemetry=hub)
        fleet.run()
        assert hub.decisions.counts().get("router_decision") == 200
        event = hub.decisions.of_kind("router_decision")[0]
        assert event.scheduler == "laxity"
        assert set(("job_id", "device", "accepted",
                    "reason")) <= set(event.fields)

    def test_overload_sheds_at_the_router(self):
        metrics = _streamed_fleet(num_devices=2, jobs=600,
                                  multiplier=3.0).run()
        assert metrics.router_rejected > 0
        assert metrics.jobs_rejected >= metrics.router_rejected
        assert metrics.decision_reasons.get("router_reject", 0) \
            == metrics.router_rejected

    @pytest.mark.parametrize("submission", ("finite", "streamed"))
    def test_idle_devices_stay_unbuilt(self, submission):
        # Two jobs across four devices: at least two devices are idle.
        fleet = ClusterSystem("LAX", SimConfig(), num_devices=4,
                              router="least-loaded")
        if submission == "finite":
            fleet.submit_workload(
                build_sustained_jobs(2, RATE, 1, SimConfig().gpu))
        else:
            fleet.submit_stream(sustained_fleet_source(4, RATE), max_jobs=2)
        metrics = fleet.run()
        assert metrics.num_jobs == 2
        idle = [d for d, size in enumerate(metrics.lane_sizes) if size == 0]
        assert len(idle) >= 2
        for d in idle:
            assert metrics.per_device[d] is None
            assert fleet.devices[d] is None

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("submission", ("finite", "streamed"))
    def test_streamed_fleet_shedding_everything_builds_no_device(
            self, submission, workers):
        # A deadline of one tick: the laxity router sheds every arrival,
        # so no device is built and the pool path starts no pool.
        hopeless = JobTemplate(
            "SUSTAINED", (SUSTAINED_TINY_KERNEL.descriptor(SimConfig().gpu),),
            deadline=1)
        source = PoissonSource([hopeless], RATE)
        fleet = ClusterSystem("LAX", SimConfig(), num_devices=4,
                              router="laxity", workers=workers)
        if submission == "finite":
            fleet.submit_workload(source.materialize(50))
        else:
            fleet.submit_stream(source, max_jobs=50)
        metrics = fleet.run()
        assert metrics.per_device == (None,) * 4
        assert fleet.devices == [None] * 4
        assert metrics.router_rejected == 50
        audit_routing(fleet.router, metrics)


class TestRouteOnce:
    """A serial fleet draws and routes each arrival once."""

    @pytest.mark.parametrize("submission", ("finite", "streamed"))
    def test_each_arrival_drawn_and_routed_once(self, monkeypatch,
                                                submission):
        routed = []
        route = Router.route

        def counting_route(router, job, now):
            routed.append(job.job_id)
            return route(router, job, now)

        monkeypatch.setattr(Router, "route", counting_route)
        source = _CountingSource(sustained_fleet_source(4, 2 * RATE))
        fleet = ClusterSystem("LAX", SimConfig(), num_devices=4,
                              router="laxity", retire=True)
        if submission == "finite":
            # Job ids follow arrival order; a reversed list must still
            # be routed in (arrival, job_id) order.
            jobs = list(islice(source.jobs(), 400))
            fleet.submit_workload(reversed(jobs))
        else:
            fleet.submit_stream(source, max_jobs=400)
        metrics = fleet.run()
        assert metrics.num_jobs == 400
        assert source.drawn == 400
        assert routed == list(range(400))


class TestSubmissionErrors:
    def test_double_submit_rejected(self):
        fleet = ClusterSystem("LAX", SimConfig(), num_devices=2)
        fleet.submit_workload(
            build_sustained_jobs(4, RATE, 1, SimConfig().gpu))
        with pytest.raises(SimulationError, match="already submitted"):
            fleet.submit_workload(
                build_sustained_jobs(4, RATE, 1, SimConfig().gpu))

    def test_run_without_submit_rejected(self):
        with pytest.raises(SimulationError, match="no workload"):
            ClusterSystem("LAX", SimConfig(), num_devices=2).run()

    def test_empty_workload_rejected(self):
        fleet = ClusterSystem("LAX", SimConfig(), num_devices=2)
        with pytest.raises(SimulationError, match="empty workload"):
            fleet.submit_workload([])

    def test_source_stream_needs_max_jobs(self):
        fleet = ClusterSystem("LAX", SimConfig(), num_devices=2)
        with pytest.raises(SimulationError, match="max_jobs"):
            fleet.submit_stream(sustained_fleet_source(2, RATE))

    def test_finite_iterable_stream_allowed(self):
        fleet = ClusterSystem("LAX", SimConfig(), num_devices=2)
        fleet.submit_stream(
            iter(build_sustained_jobs(30, 2 * RATE, 1, SimConfig().gpu)),
            max_jobs=20)
        assert fleet.run().num_jobs == 20

    def test_bad_construction_rejected(self):
        with pytest.raises(ConfigError):
            ClusterSystem("LAX", SimConfig(), num_devices=0)
        with pytest.raises(ConfigError):
            ClusterSystem("LAX", SimConfig(), num_devices=2,
                          router="pass-through")
        with pytest.raises(ConfigError):
            ClusterSystem("LAX", SimConfig(), num_devices=2, workers=0)
        with pytest.raises(ConfigError):
            ClusterSystem("LAX", SimConfig(), num_devices=2, workers=2,
                          device_telemetry=[None, None])
        with pytest.raises(ConfigError):
            ClusterSystem("LAX", SimConfig(), num_devices=2,
                          device_telemetry=[None])


class TestClusterCLI:
    def test_streamed_cluster_run(self, capsys):
        code = cli.main(["--benchmark", "SUSTAINED", "--devices", "2",
                         "--router", "laxity", "--stream", "300",
                         "--validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet SLO attainment" in out
        assert "router conservation ok" in out

    def test_finite_cluster_run(self, capsys):
        code = cli.main(["--benchmark", "LSTM", "--devices", "2",
                         "--jobs", "24"])
        assert code == 0
        assert "device 1" in capsys.readouterr().out

    def test_router_without_devices_rejected(self, capsys):
        assert cli.main(["--router", "laxity"]) == 2
        assert "--devices" in capsys.readouterr().out

    def test_unknown_router_rejected(self, capsys):
        assert cli.main(["--devices", "2", "--router", "nope"]) == 2
        assert "unknown router" in capsys.readouterr().out

    def test_cluster_with_telemetry_flags_rejected(self, capsys):
        assert cli.main(["--devices", "2", "--emit-telemetry",
                         "out/"]) == 2
        assert "cannot be combined" in capsys.readouterr().out
