"""R8 fixture: a wire message with no codec in the type registry.

The class is a perfectly formed R6 message (frozen, slotted dataclass)
— the *only* defect is that ``repro.wire.codecs`` knows nothing about
it, so a ``repro.net`` replica would die with ``WireFormatError`` the
first time the protocol ships one.
"""

from dataclasses import dataclass

WORD_SIZE = 8


@dataclass(frozen=True, slots=True)
class UnregisteredProbe:
    source: int

    def wire_size(self) -> int:
        return WORD_SIZE
