"""Long-lived in-process services built on the recovered mappings.

The reverse-engineering pipeline produces a mapping once; production
consumers — fleet orchestrators, rowhammer campaign fuzzers, verification
sweeps — then query it millions of times. This package holds the
persistent service layer those consumers call into:

* :mod:`repro.service.translation` — a phys↔DRAM translation service
  caching each published mapping's compiled GF(2) form under the
  mapping's content fingerprint, with range-checked batch lookup kernels
  and hit/miss accounting through :mod:`repro.obs`.
"""

from repro.service.translation import (
    TranslationService,
    default_service,
    mapping_fingerprint,
    reset_default_service,
)

__all__ = [
    "TranslationService",
    "default_service",
    "mapping_fingerprint",
    "reset_default_service",
]
