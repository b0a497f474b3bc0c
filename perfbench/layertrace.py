"""Per-layer wall-clock spans recorded from outside the program.

:class:`LayerTracer` replaces public entry points (module functions or
class attributes) with timing wrappers and puts every original back on
:meth:`LayerTracer.restore`.  Spans nest: a span's *self* time is its
duration minus the time of the spans that ran inside it, so the self
times of all spans add up to the duration of the outermost ones.

The wrappers record only between :meth:`start` and :meth:`stop`;
outside that window they call straight through.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Tuple

_MISSING = object()


class LayerTracer:
    """Installs timing wrappers and accumulates self time per span."""

    def __init__(self) -> None:
        self.recording = False
        #: Seconds of self time per span name.
        self.self_seconds: Dict[str, float] = defaultdict(float)
        #: Completed calls per span name.
        self.calls: Dict[str, int] = defaultdict(int)
        #: Summed result sizes and results seen per measured counter.
        self.sizes: Dict[str, int] = defaultdict(int)
        self.sized: Dict[str, int] = defaultdict(int)
        # One ``[child_seconds]`` cell per open span, innermost last.
        self._stack: List[List[float]] = []
        # (owner, attribute, value found in the owner's own __dict__).
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------

    def install(self, span: str, targets: Iterable[Tuple[Any, str]]) -> None:
        """Wrap ``owner.attribute`` for each target under *span*.

        *owner* is a module or a class.  A class attribute inherited
        from a base is shadowed on *owner* and deleted again on
        :meth:`restore`.
        """
        for owner, attribute in targets:
            self._replace(owner, attribute, self.wrap(span, getattr(owner, attribute)))

    def measure(self, counter: str, owner: Any, attribute: str) -> None:
        """Add ``len(result)`` of every recorded call of
        ``owner.attribute`` to *counter* (install before timing wrappers
        so the measurement runs inside the timed span)."""
        function = getattr(owner, attribute)
        sizes, sized = self.sizes, self.sized

        @functools.wraps(function)
        def measured(*args: Any, **kwargs: Any) -> Any:
            result = function(*args, **kwargs)
            if self.recording:
                sizes[counter] += len(result)
                sized[counter] += 1
            return result

        self._replace(owner, attribute, measured)

    def _replace(self, owner: Any, attribute: str, replacement: Callable[..., Any]) -> None:
        own = vars(owner).get(attribute, _MISSING)
        setattr(owner, attribute, replacement)
        self._installed.append((owner, attribute, own))

    def restore(self) -> None:
        """Put every wrapped attribute back as it was, newest first."""
        while self._installed:
            owner, attribute, own = self._installed.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    def wrap(self, span: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """A timing wrapper around *function* that records into *span*."""
        stack = self._stack
        self_seconds = self.self_seconds
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(function)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return function(*args, **kwargs)
            cell = [0.0]
            stack.append(cell)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self_seconds[span] += elapsed - cell[0]
                calls[span] += 1
                if stack:
                    stack[-1][0] += elapsed

        return timed

    # -- recording window -------------------------------------------------

    def start(self) -> None:
        """Begin recording (wrappers are pass-through until then)."""
        self.recording = True

    def stop(self) -> None:
        """Stop recording; wrappers become pass-through again."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open at stop")
        self.recording = False
