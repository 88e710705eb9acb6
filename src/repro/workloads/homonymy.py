"""Homonymy-pattern generators used by the experiments.

The paper stresses that homonymy is a spectrum whose extremes are the
classical unique-identifier systems and the anonymous systems.  The helper
here materialises points on that spectrum: memberships of ``n`` processes with
a chosen number of *distinct* identifiers, distributed as evenly as possible.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..membership import Membership

__all__ = ["membership_with_distinct_ids"]


def membership_with_distinct_ids(n: int, distinct: int, *, prefix: str = "id") -> Membership:
    """A membership of ``n`` processes using exactly ``distinct`` identifiers.

    Processes are spread as evenly as possible over the identifiers:
    ``membership_with_distinct_ids(5, 2)`` produces groups of sizes 3 and 2.
    ``distinct = n`` gives a classical unique-identifier system and
    ``distinct = 1`` an anonymous one.
    """
    if n <= 0:
        raise ConfigurationError("n must be positive")
    if not 1 <= distinct <= n:
        raise ConfigurationError(
            f"the number of distinct identifiers must lie in [1, n]; got {distinct} for n={n}"
        )
    identities = [f"{prefix}{index % distinct}" for index in range(n)]
    return Membership.of(sorted(identities))

