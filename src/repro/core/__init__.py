"""LAX core machinery (Section 4 of the paper).

Stream inspection, the Job Table, the Kernel Profiling Table, the laxity
estimate (Equation 1), the priority-update rule (Algorithm 2) and the
Little's-Law admission test (Algorithm 1).  Everything here is reusable by
other policies: SRF borrows the remaining-time estimator, LAX-SW/LAX-CPU
run the same algorithms from the host.
"""

from .admission import (QueuingDelayAdmission, fits_free_capacity,
                        remaining_time_or_deadline, should_admit,
                        steady_state_pass, total_outstanding_time)
from .calibration import offline_profile, profile_workload, warm_table
from .inspection import build_wg_list, outstanding_wg_list, total_outstanding_wgs
from .job_table import ENTRY_BYTES, JobTable, job_table_bytes
from .laxity import (INFINITE_PRIORITY, estimate_completion_time,
                     estimate_remaining_time, laxity_priority, laxity_time)
from .profiling import KernelProfilingTable

__all__ = [
    "ENTRY_BYTES",
    "INFINITE_PRIORITY",
    "JobTable",
    "KernelProfilingTable",
    "QueuingDelayAdmission",
    "build_wg_list",
    "estimate_completion_time",
    "estimate_remaining_time",
    "fits_free_capacity",
    "job_table_bytes",
    "laxity_priority",
    "laxity_time",
    "offline_profile",
    "outstanding_wg_list",
    "profile_workload",
    "remaining_time_or_deadline",
    "should_admit",
    "steady_state_pass",
    "total_outstanding_time",
    "total_outstanding_wgs",
    "warm_table",
]
