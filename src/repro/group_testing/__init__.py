"""Group-testing framework for threshold querying.

The paper casts threshold querying as a variant of combinatorial group
testing: a hidden set of *positive* nodes, queries on arbitrary *bins*
(subsets), and a silent/active observation per query.  This package holds
the pieces shared by every algorithm:

* :mod:`repro.group_testing.population` -- the hidden ground truth.
* :mod:`repro.group_testing.binning` -- random partitioning of a
  candidate set into bins, and bin sampling.
* :mod:`repro.group_testing.model` -- the 1+ and 2+ collision models
  together with the query-cost ledger, plus a packet-level adapter
  protocol so the mote emulation can stand in for the abstract model.
"""

from repro.group_testing.binning import (
    partition_random,
    sample_bin,
    sample_bins,
)
from repro.group_testing.model import (
    BinObservation,
    KPlusModel,
    ModelSpec,
    ObservationKind,
    OnePlusModel,
    QueryBudgetExceeded,
    QueryModel,
    TwoPlusModel,
)
from repro.group_testing.population import Population
from repro.group_testing.vectorized import (
    BatchDecision,
    QueryBatch,
    UnsupportedBatch,
    dispatch_batch,
    run_lockstep,
    run_probes,
)

__all__ = [
    "BatchDecision",
    "BinObservation",
    "KPlusModel",
    "ModelSpec",
    "ObservationKind",
    "OnePlusModel",
    "Population",
    "QueryBatch",
    "QueryBudgetExceeded",
    "QueryModel",
    "TwoPlusModel",
    "UnsupportedBatch",
    "dispatch_batch",
    "partition_random",
    "run_lockstep",
    "run_probes",
    "sample_bin",
    "sample_bins",
]
