"""Execution contexts: exception level and security state.

Every privileged interface in the SoC (CP15, cache maintenance, secure
memory) checks the requesting agent's exception level (EL0–EL3) and
TrustZone security state.  Attacker-supplied boot images normally obtain
(EL3, secure); a device that enforces TrustZone/authenticated boot pins
third-party code to the non-secure world.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PrivilegeViolation


@dataclass(frozen=True)
class ExecutionContext:
    """Who is performing an access."""

    el: int = 1
    secure: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.el <= 3:
            raise PrivilegeViolation(f"no such exception level: EL{self.el}")

    def require_el(self, minimum: int, what: str) -> None:
        """Raise unless this context runs at ``minimum`` or above."""
        if self.el < minimum:
            raise PrivilegeViolation(
                f"{what} requires EL{minimum}; caller is at EL{self.el}"
            )


#: Firmware / secure monitor — what an attacker-controlled boot image
#: gets on a device without enforced secure boot.
EL3_SECURE = ExecutionContext(el=3, secure=True)

#: The best an attacker gets when TrustZone + authenticated boot pin
#: third-party code to the normal world.
EL2_NS = ExecutionContext(el=2, secure=False)
