"""The message-type registry: one codec per wire message class.

Frames are self-describing: the payload opens with a varint *type id*
that maps, through this registry, to the encode/decode pair for one
message class.  Type ids are stable protocol constants (declared in
:mod:`repro.wire.codecs`), never derived from registration order —
reordering imports must not change the wire format.

The registry is also a contract that
``tests/wire/test_codec.py::TestFraming::test_message_classes_are_frozen_slotted_and_registered``
checks: every class in ``repro.core`` that defines ``wire_size`` (a
frozen, slotted message) must be registered here, and every
registration must point at a class that still defines ``wire_size`` —
an unregistered message would crash a :mod:`repro.net` replica the
first time it ships, and a stale registration is dead protocol
surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import WireFormatError

if TYPE_CHECKING:
    from repro.wire.codec import Decoder, Encoder

__all__ = [
    "MessageCodec",
    "codec_for_class",
    "codec_for_id",
    "register",
    "registered_codecs",
]


@dataclass(frozen=True, slots=True)
class MessageCodec:
    """One registered message type: its stable wire id and the pair of
    functions that write/read its body (the type id itself is framed by
    :class:`~repro.wire.codec.WireCodec`, not by these functions)."""

    type_id: int
    cls: type
    encode: Callable[["Encoder", Any], None]
    decode: Callable[["Decoder"], Any]


_BY_ID: dict[int, MessageCodec] = {}
_BY_CLASS: dict[type, MessageCodec] = {}


def register(
    type_id: int,
    cls: type,
    encode: Callable[["Encoder", Any], None],
    decode: Callable[["Decoder"], Any],
) -> None:
    """Register a codec; duplicate ids or classes are programming errors."""
    if type_id in _BY_ID:
        raise ValueError(
            f"wire type id {type_id} already registered for "
            f"{_BY_ID[type_id].cls.__qualname__}"
        )
    if cls in _BY_CLASS:
        raise ValueError(f"{cls.__qualname__} already has a registered codec")
    codec = MessageCodec(type_id, cls, encode, decode)
    _BY_ID[type_id] = codec
    _BY_CLASS[cls] = codec


def codec_for_class(cls: type) -> MessageCodec:
    """The codec for a message class; unregistered classes raise
    :class:`WireFormatError` (no replica can ship them)."""
    try:
        return _BY_CLASS[cls]
    except KeyError:
        raise WireFormatError(
            f"no wire codec registered for message class {cls.__qualname__}"
        ) from None


def codec_for_id(type_id: int) -> MessageCodec:
    """The codec for a frame's type id; unknown ids raise
    :class:`WireFormatError` (the frame is corrupt or from the future)."""
    try:
        return _BY_ID[type_id]
    except KeyError:
        raise WireFormatError(f"unknown wire message type id {type_id}") from None


def registered_codecs() -> tuple[MessageCodec, ...]:
    """Every registration, in type-id order."""
    return tuple(_BY_ID[type_id] for type_id in sorted(_BY_ID))
