"""Cluster-scale power management (Section IV-D, Fig. 12).

Ten servers replay dynamic cluster power caps derived from a diurnal demand
trace at 15/30/45% peak shaving. Three cluster-manager strategies are
compared:

* **Equal(RAPL)** - the cap is split evenly; each server enforces its share
  with RAPL (the Util-Unaware server policy). State of the art [Dynamo].
* **Equal(Ours)** - even split; each server runs the paper's
  App+Res+ESD-Aware policy.
* **Consolidation+Migration(no cap)** - power only as many servers as the
  budget allows, migrate applications onto them (packing up to two per
  socket), cap nobody.

Public API: :class:`~repro.cluster.cluster.ClusterSimulator` and the policy
evaluators in :mod:`~repro.cluster.manager`.
"""

from repro.cluster.cluster import (
    ClusterSimulator,
    ClusterPolicyResult,
    ClusterExperiment,
    NodeOutage,
    outages_from_fault_plan,
    validate_outages,
)
from repro.cluster.controlplane import (
    ClusterController,
    ControlPlaneConfig,
    NodeAgent,
)
from repro.cluster.manager import (
    CLUSTER_POLICY_NAMES,
    evaluate_equal_policy_bin,
    evaluate_consolidation_bin,
)
from repro.cluster.migration import ConsolidationPlanner, ConsolidationWalker, PackedServer
from repro.cluster.scheduler import (
    PowerAwareScheduler,
    Placement,
    ServerSlot,
    PLACEMENT_POLICIES,
)

__all__ = [
    "ClusterSimulator",
    "ClusterPolicyResult",
    "ClusterExperiment",
    "ClusterController",
    "ControlPlaneConfig",
    "NodeAgent",
    "NodeOutage",
    "outages_from_fault_plan",
    "validate_outages",
    "CLUSTER_POLICY_NAMES",
    "evaluate_equal_policy_bin",
    "evaluate_consolidation_bin",
    "ConsolidationPlanner",
    "ConsolidationWalker",
    "PackedServer",
    "PowerAwareScheduler",
    "Placement",
    "ServerSlot",
    "PLACEMENT_POLICIES",
]
