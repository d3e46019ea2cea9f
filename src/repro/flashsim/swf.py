"""Simulated SWF container format.

Models the real SWF layout closely enough that analysis code has to do
real parsing: a 3-byte signature (``FWS`` uncompressed / ``CWS``
zlib-compressed body), version byte, file length, and a sequence of
tagged records.  Tags carry either metadata or an encoded
:class:`~repro.flashsim.actions.ActionProgram`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional

from .actions import ActionProgram, decode_program, encode_program

__all__ = ["SwfTag", "SwfFile", "TagCode", "SwfError"]


class SwfError(ValueError):
    """Raised for malformed SWF bytes."""


class TagCode:
    """SWF tag codes (subset, mirroring the real spec's numbering)."""

    END = 0
    SHOW_FRAME = 1
    SET_BACKGROUND_COLOR = 9
    DO_ACTION = 12
    FILE_ATTRIBUTES = 69
    METADATA = 77
    DEFINE_SPRITE = 39

    NAMES = {
        END: "End",
        SHOW_FRAME: "ShowFrame",
        SET_BACKGROUND_COLOR: "SetBackgroundColor",
        DO_ACTION: "DoAction",
        FILE_ATTRIBUTES: "FileAttributes",
        METADATA: "Metadata",
        DEFINE_SPRITE: "DefineSprite",
    }


@dataclass
class SwfTag:
    """One tagged record."""

    code: int
    body: bytes = b""

    @property
    def name(self) -> str:
        return TagCode.NAMES.get(self.code, "Unknown%d" % self.code)


@dataclass
class SwfFile:
    """A parsed (or to-be-serialized) SWF file."""

    version: int = 10
    compressed: bool = True
    width: int = 550
    height: int = 400
    frame_rate: int = 24
    tags: List[SwfTag] = field(default_factory=list)

    # -- convenience ------------------------------------------------------
    def add_actions(self, program: ActionProgram) -> "SwfFile":
        self.tags.append(SwfTag(TagCode.DO_ACTION, encode_program(program)))
        return self

    def add_metadata(self, text: str) -> "SwfFile":
        self.tags.append(SwfTag(TagCode.METADATA, text.encode("utf-8")))
        return self

    def action_programs(self) -> List[ActionProgram]:
        """Decode every DoAction tag; :class:`SwfError` on a malformed
        one (truncated, or an operand that is not UTF-8)."""
        out: List[ActionProgram] = []
        for tag in self.tags:
            if tag.code == TagCode.DO_ACTION:
                try:
                    out.append(decode_program(tag.body))
                except ValueError as exc:
                    raise SwfError("bad DoAction block: %s" % exc) from exc
        return out

    @property
    def metadata(self) -> Optional[str]:
        for tag in self.tags:
            if tag.code == TagCode.METADATA:
                return tag.body.decode("utf-8", errors="replace")
        return None

    # -- serialization -----------------------------------------------------
    def to_bytes(self) -> bytes:
        body = bytearray()
        body += struct.pack("<HHB", self.width, self.height, self.frame_rate)
        for tag in self.tags:
            body += struct.pack("<HI", tag.code, len(tag.body))
            body += tag.body
        body += struct.pack("<HI", TagCode.END, 0)
        payload = zlib.compress(bytes(body)) if self.compressed else bytes(body)
        signature = b"CWS" if self.compressed else b"FWS"
        header = signature + struct.pack("<B", self.version)
        total = len(header) + 4 + len(body)  # uncompressed length, per spec
        return header + struct.pack("<I", total) + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "SwfFile":
        if len(data) < 8:
            raise SwfError("file too short")
        signature = data[:3]
        if signature not in (b"FWS", b"CWS"):
            raise SwfError("bad signature %r" % signature)
        version = data[3]
        compressed = signature == b"CWS"
        payload = data[8:]
        if compressed:
            # inflate no further than the header's declared length (the
            # 8 header bytes included), so a small file cannot expand
            # without bound
            (declared,) = struct.unpack_from("<I", data, 4)
            if declared <= 8:
                raise SwfError("truncated body")
            inflater = zlib.decompressobj()
            try:
                payload = inflater.decompress(payload, declared - 8)
            except zlib.error as exc:
                raise SwfError("bad compressed body: %s" % exc) from exc
            if not inflater.eof and len(payload) < declared - 8:
                raise SwfError("bad compressed body: truncated stream")
        if len(payload) < 5:
            raise SwfError("truncated body")
        width, height, frame_rate = struct.unpack_from("<HHB", payload, 0)
        offset = 5
        tags: List[SwfTag] = []
        while offset + 6 <= len(payload):
            code, length = struct.unpack_from("<HI", payload, offset)
            offset += 6
            if code == TagCode.END:
                break
            if offset + length > len(payload):
                raise SwfError("truncated tag body (code %d)" % code)
            tags.append(SwfTag(code, payload[offset : offset + length]))
            offset += length
        return cls(
            version=version,
            compressed=compressed,
            width=width,
            height=height,
            frame_rate=frame_rate,
            tags=tags,
        )

    @staticmethod
    def sniff(data: bytes) -> bool:
        """True when ``data`` looks like a SWF file."""
        return data[:3] in (b"FWS", b"CWS")
