"""Built-in rules of :mod:`repro.lint`.

Importing this package registers every rule with the framework
registry.  Every rule is per-file and syntactic: the invariants that
can be checked on live objects (read-only CSR and shared-memory arrays,
frozen plan artifacts, ``with``-only tracing spans, typed ``_execute``
results, engine registration) are enforced at runtime or by tests over
the live classes instead, see ``docs/architecture.md`` §5c.  Rule ids
are grouped by invariant family:

========  ==========================================================
family    ids
========  ==========================================================
RNG       RNG001 stdlib random, RNG002 unseeded default_rng,
          RNG003 legacy numpy.random API, RNG004 ensure_rng bypass
DET       DET001 unordered-set iteration in deterministic packages
PKL       PKL001 unpicklable callable handed to the process backend
EXC       EXC001 bare except, EXC002 ad-hoc builtin raise
TIM       TIM001 wall-clock read outside timing code
PLN       PLN001 raw compile_regex bypassing the plan funnel
API       API001 __all__ coverage, API002 stale __all__ entry
VER       VER001 engine imports the oracle layer
========  ==========================================================
"""

from repro.lint.rules import (  # noqa: F401  (imports register the rules)
    determinism,
    exceptions,
    picklable,
    planner,
    public_api,
    rng_discipline,
    verify,
    wallclock,
)

__all__ = [
    "determinism",
    "exceptions",
    "picklable",
    "planner",
    "public_api",
    "rng_discipline",
    "verify",
    "wallclock",
]
