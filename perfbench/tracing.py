"""In-memory span tracing around the simulator's public entry points.

The tracer patches wrappers onto functions and methods of ``repro`` from
outside the package: nothing under ``src/`` knows it is being traced.  A
wrapper records one span per call -- name, start, end, parent span, trial
id and, for calls that return an event count, that count.  Spans are held
in flat arrays while the workload runs and written out once it ends.

A function imported by name (``from repro.phy.crc import crc24``) is bound
in the importing module too, so :meth:`Tracer.install` replaces every
binding of the original object in every loaded ``repro`` module: the
caller's own binding is the one that gets traced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

#: (span name, ``module:qualname`` of the wrapped callable, whether the
#: span keeps the callable's integer return value -- the events fired by
#: ``Simulator.run`` or fast-forwarded by ``QuietCycleEngine.advance``).
Target = Tuple[str, str, bool]

#: The simulation layers, traced on in-process trials.
SIM_TARGETS: Tuple[Target, ...] = (
    ("sim.run", "repro.sim.simulator:Simulator.run", True),
    ("sim.fastforward.advance",
     "repro.sim.fastforward:QuietCycleEngine.advance", True),
    ("sim.medium.transmit", "repro.sim.medium:Medium.transmit", False),
    ("sim.medium.deliver", "repro.sim.transceiver:Transceiver.deliver", False),
    ("ll.csa1", "repro.ll.csa1:Csa1.next_channel", False),
    ("ll.csa2", "repro.ll.csa2:Csa2.channel_for_event", False),
    ("phy.crc24", "repro.phy.crc:crc24", False),
    ("phy.whiten", "repro.phy.whitening:whiten", False),
    ("crypto.aes", "repro.crypto.aes:aes128_encrypt_block", False),
)

#: The campaign layer.  Its calls run in the parent process, a handful per
#: unit, so it is traced inside the campaign run itself.
CAMPAIGN_TARGETS: Tuple[Target, ...] = (
    ("campaign.journal.append",
     "repro.campaign.journal:JournalWriter.record_unit", False),
    ("campaign.expand", "repro.campaign.engine:expand_units", False),
    ("campaign.report", "repro.campaign.report:build_report", False),
)


def _resolve(path: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name, value)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Span recorder; see the module docstring.

    Set :attr:`trial_id` before each trial so its spans can be grouped.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.value = array("q")
        self.trial_id = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def _wrap(self, span: str, fn: Callable[..., Any],
              keep_value: bool) -> Callable[..., Any]:
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        clock = time.perf_counter
        start, end, name = self.start, self.end, self.name
        parent, trial, value = self.parent, self.trial, self.value
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            trial.append(tracer.trial_id)
            value.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if keep_value:
                value[idx] = result
            return result

        return traced

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target: a method on its class, a module-level
        function at each of its bindings in the loaded ``repro`` modules."""
        for span, path, keep_value in targets:
            owner, attr, original = _resolve(path)
            wrapper = self._wrap(span, original, keep_value)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or not (module_name == "repro"
                                          or module_name.startswith("repro.")):
                    continue
                for key, val in list(vars(module).items()):
                    if val is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any,
               wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def columns(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy columns (copies)."""
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "trial": np.array(self.trial, dtype=np.int32),
            "value": np.array(self.value, dtype=np.int64),
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s``, ``top_s``, ``value`` and
        ``engaged`` (calls whose kept value was > 0).

        Self time is a span's duration minus the time its direct children
        cover; ``top_s`` is the time covered by the name's spans that have
        no parent.  Every installed name is present, zeros if never called.
        """
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        out: Dict[str, Dict[str, float]] = {}
        for nid, span in enumerate(self.names):
            mask = cols["name"] == nid
            values = cols["value"][mask]
            out[span] = {
                "calls": int(mask.sum()),
                "self_s": float(self_time[mask].sum()),
                "top_s": float(dur[mask & ~nested].sum()),
                "value": int(values.sum()),
                "engaged": int((values > 0).sum()),
            }
        return out
