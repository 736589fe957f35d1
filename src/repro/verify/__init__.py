"""repro.verify — cross-solver conformance tooling.

The paper's claims are comparative (Figures 7-11), so the reproduction
stands or falls on every allocator scoring the same placement the same
way.  This package is that guarantee, in three layers:

* :mod:`repro.verify.invariants` — composable checkers of the model's
  ground rules (capacity respected by accepted work, exactly-once
  hosting, affinity closure, objective finiteness, Pareto-front mutual
  non-domination);
* :mod:`repro.verify.oracle` — a differential oracle replaying any
  placement through the reference evaluator, the incremental move
  path, the sparse ILP encoding + LP relaxation bound and (on small
  instances) the complete CP search, with per-term mismatch diagnoses;
  its :func:`check_parity` is the one incremental-vs-reference
  comparison;
* :mod:`repro.verify.metamorphic` + :mod:`repro.verify.fuzzer` —
  transformation laws with provable consequences, driven over seeded
  random scenarios (``python -m repro verify --fuzz N``);
* :mod:`repro.verify.dynamic` — stream-level metamorphic laws over the
  dynamic scenario registry: batch-permutation evaluation equivalence,
  integral time-shift invariance, drain-then-fail equivalence
  (``python -m repro verify --scenario NAME``);
* :mod:`repro.verify.checks` — the one result type, :class:`Report`
  of typed :class:`Mismatch` records, which every layer above except
  the invariant catalog returns, and the contract registry behind
  ``python -m repro verify --check NAME[=ARG]``.  :data:`CHECKS` maps
  each name to a function that runs the real thing twice, compares
  shape then bytes, and returns one :class:`Report`:

  - ``kernels`` (:mod:`~repro.verify.kernels`) — the numpy kernel
    bitwise-equal to the reference on fuzzed and edge-case instances;
  - ``market`` (:mod:`~repro.verify.market`) — a single-provider market
    byte-identical to the pre-market model, brokered fronts mutually
    nondominated with provider-confined routes, preference selection
    deterministic, total and permutation-invariant;
  - ``anytime`` (:mod:`~repro.verify.anytime`) — monotone pooled front,
    ``allocate()`` ≡ stepwise ≡ rerun, and the reoptimizer racing the
    portfolio;
  - ``resume`` (:mod:`~repro.verify.resume`) — a run killed at a
    checkpoint and resumed from disk finishes as the uninterrupted one;
  - ``parallel`` (:mod:`~repro.verify.parallel`, ``parallel=W1,W2``) —
    the repair fan-out byte-identical to serial at each worker count,
    with a pool that really ran;
  - ``service`` (:mod:`~repro.verify.service`, ``service=DIR``) — an
    admission log replayed through a fresh batch scheduler reproduces
    the live residents, ledger and clock.

Telemetry lands in the ``verify.*`` namespace (see
``docs/OBSERVABILITY.md``); the checker catalog, oracle semantics and
the guide to adding a check live in ``docs/VERIFY.md``.
"""

# checks first: the six check modules import Report from it, and it
# imports their check functions once Report exists.
from repro.verify.checks import CHECKS, Mismatch, Report
from repro.verify.anytime import check_anytime_conformance
from repro.verify.dynamic import (
    DYNAMIC_LAWS,
    DrainFailEquivalenceLaw,
    TimeShiftLaw,
    WindowPermutationLaw,
    check_dynamic_laws,
)
from repro.verify.fuzzer import FuzzConfig, run_fuzz
from repro.verify.kernels import check_kernel_conformance
from repro.verify.invariants import (
    CheckContext,
    InvariantReport,
    InvariantViolation,
    invariant_names,
    register_invariant,
    run_invariants,
)
from repro.verify.market import check_market_conformance
from repro.verify.metamorphic import (
    ALL_LAWS,
    CapacityInflationLaw,
    CostScalingLaw,
    DuplicateRequestIdempotenceLaw,
    MetamorphicLaw,
    ServerPermutationLaw,
    run_laws,
)
from repro.verify.oracle import DifferentialOracle, check_parity
from repro.verify.parallel import check_parallel_determinism
from repro.verify.resume import check_resume_determinism
from repro.verify.service import check_service_conformance

__all__ = [
    # the --check registry and its report
    "CHECKS",
    "Mismatch",
    "Report",
    "check_anytime_conformance",
    "check_kernel_conformance",
    "check_market_conformance",
    "check_parallel_determinism",
    "check_resume_determinism",
    "check_service_conformance",
    # invariants
    "CheckContext",
    "InvariantReport",
    "InvariantViolation",
    "invariant_names",
    "register_invariant",
    "run_invariants",
    # oracle
    "DifferentialOracle",
    "check_parity",
    # metamorphic
    "ALL_LAWS",
    "MetamorphicLaw",
    "ServerPermutationLaw",
    "CapacityInflationLaw",
    "CostScalingLaw",
    "DuplicateRequestIdempotenceLaw",
    "run_laws",
    # dynamic (stream-level) laws
    "DYNAMIC_LAWS",
    "DrainFailEquivalenceLaw",
    "TimeShiftLaw",
    "WindowPermutationLaw",
    "check_dynamic_laws",
    # fuzzing
    "FuzzConfig",
    "run_fuzz",
]
