"""GPU + host simulation substrate.

The substrate replaces the paper's gem5 setup: a discrete-event model of an
8-CU GCN-like GPU (Table 2) with hardware compute queues, a command
processor, a workgroup dispatcher, processor-sharing compute units, a host
communication channel and an energy meter.
"""

from .compute_unit import ComputeUnit, ResidentWG
from .device import GPUSystem, StreamFeeder, run_workload
from .dispatcher import WGDispatcher
from .energy import EnergyMeter
from .engine import PeriodicTask, Simulator
from .host import Host
from .job import Job, JobState
from .kernel import KernelDescriptor, KernelInstance, KernelPhase
from .protocol import Device
from .queues import ComputeQueue, QueuePool
from .command_processor import CommandProcessor
from .trace import (TraceEvent, TraceRecorder, occupancy_timeline,
                    render_occupancy)

__all__ = [
    "CommandProcessor",
    "ComputeQueue",
    "ComputeUnit",
    "Device",
    "EnergyMeter",
    "GPUSystem",
    "Host",
    "Job",
    "JobState",
    "KernelDescriptor",
    "KernelInstance",
    "KernelPhase",
    "PeriodicTask",
    "QueuePool",
    "ResidentWG",
    "Simulator",
    "StreamFeeder",
    "TraceEvent",
    "TraceRecorder",
    "WGDispatcher",
    "occupancy_timeline",
    "render_occupancy",
    "run_workload",
]
