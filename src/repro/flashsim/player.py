"""Flash player simulation.

Executes an :class:`~repro.flashsim.actions.ActionProgram` against a
stage model and, when embedded in a page, bridges
``ExternalInterface.call`` into the page's JavaScript interpreter — the
exact mechanism the Section V-D sample uses to pop advertisement windows
when the victim clicks anywhere on the (invisible, page-covering) Flash
object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..jsengine.values import JSFunction
from .actions import Op, OpCode
from .swf import SwfFile

__all__ = ["StageState", "PlaybackLog", "FlashPlayer"]


@dataclass
class StageState:
    """The mutable stage the movie manipulates."""

    scale_mode: str = "showAll"
    display_state: str = "normal"
    alpha: float = 1.0
    width: float = 550.0
    height: float = 400.0

    @property
    def invisible(self) -> bool:
        return self.alpha <= 0.05

    def covers_page(self, page_width: float = 1366.0, page_height: float = 768.0) -> bool:
        return (
            self.scale_mode.lower() in ("exact_fit", "exactfit")
            and self.width >= page_width
            and self.height >= page_height
        ) or (self.width >= page_width and self.height >= page_height)


@dataclass
class PlaybackLog:
    """Security-relevant events observed during playback."""

    external_calls: List[Tuple[str, str]] = field(default_factory=list)
    navigations: List[str] = field(default_factory=list)
    allow_domains: List[str] = field(default_factory=list)
    traces: List[str] = field(default_factory=list)
    loaded_movies: List[str] = field(default_factory=list)
    fullscreen_entered: bool = False


class FlashPlayer:
    """Plays a movie; dispatches events; bridges ExternalInterface to JS.

    Parameters
    ----------
    browser_host:
        Optional :class:`repro.jsengine.hostenv.BrowserHost`.  When set,
        ``ExternalInterface.call(name)`` looks up ``name`` in the page's
        global scope and invokes it, so Flash→JS attack chains execute
        end to end.
    """

    def __init__(self, swf: SwfFile, browser_host: Optional[Any] = None) -> None:
        self.swf = swf
        self.browser_host = browser_host
        self.stage = StageState(width=float(swf.width), height=float(swf.height))
        self.log = PlaybackLog()
        self._programs = swf.action_programs()

    def load(self) -> "FlashPlayer":
        """Run the top-level (frame-1) actions of every DoAction tag."""
        for program in self._programs:
            for op in program.top_level():
                self._execute(op)
        return self

    def dispatch(self, event: str) -> None:
        """Fire an event (e.g. ``mouse_up``), running registered handlers."""
        for program in self._programs:
            if any(
                op.code == OpCode.ADD_EVENT_LISTENER and op.operands and op.operands[0] == event
                for op in program.top_level()
            ) or any(op.code == OpCode.LABEL and op.operands and op.operands[0] == event for op in program.ops):
                for op in program.handler(event):
                    self._execute(op)

    def _execute(self, op: Op) -> None:
        operands = op.operands
        if op.code == OpCode.ALLOW_DOMAIN:
            self.log.allow_domains.append(operands[0] if operands else "")
        elif op.code == OpCode.SET_SCALE_MODE:
            self.stage.scale_mode = operands[0] if operands else "showAll"
        elif op.code == OpCode.SET_DISPLAY_STATE:
            state = operands[0] if operands else "normal"
            self.stage.display_state = state
            if state == "fullScreen":
                self.log.fullscreen_entered = True
        elif op.code == OpCode.SET_ALPHA:
            try:
                self.stage.alpha = float(operands[0]) if operands else 1.0
            except ValueError:
                pass
        elif op.code == OpCode.SET_SIZE:
            try:
                self.stage.width = float(operands[0])
                self.stage.height = float(operands[1])
            except (ValueError, IndexError):
                pass
        elif op.code == OpCode.EXTERNAL_CALL:
            name = operands[0] if operands else ""
            arg = operands[1] if len(operands) > 1 else ""
            self.log.external_calls.append((name, arg))
            self._bridge_external_call(name, arg)
        elif op.code == OpCode.NAVIGATE_TO_URL:
            url = operands[0] if operands else ""
            self.log.navigations.append(url)
            if self.browser_host is not None:
                self.browser_host.log.popups.append(url)
        elif op.code == OpCode.TRACE:
            self.log.traces.append(operands[0] if operands else "")
        elif op.code == OpCode.LOAD_MOVIE:
            self.log.loaded_movies.append(operands[0] if operands else "")
        # LABEL/END_HANDLER are structural; ADD_EVENT_LISTENER is declarative

    def _bridge_external_call(self, name: str, arg: str) -> None:
        if self.browser_host is None:
            return
        interpreter = self.browser_host.interpreter
        env = interpreter.global_env
        self.browser_host.log.external_interface_registrations.append(name)
        # dotted names resolve through the global scope (e.g. window.NqPnfu)
        parts = name.split(".")
        try:
            target: Any = env.lookup(parts[0]) if env.has(parts[0]) else None
            for part in parts[1:]:
                if target is None:
                    break
                getter = getattr(target, "js_get", None)
                target = getter(part) if getter else None
            if target is not None and target is not False and callable(getattr(target, "__call__", None)):
                interpreter.call_function(target, [arg] if arg else [])
            elif isinstance(target, JSFunction):
                interpreter.call_function(target, [arg] if arg else [])
        except Exception as exc:  # noqa: BLE001 - playback never crashes the scanner
            self.browser_host.log.errors.append("ExternalInterface: %s" % exc)
