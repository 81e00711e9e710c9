"""Per-layer tracing of acprov, installed from outside the package.

``install`` wraps the public functions of every layer module and rebinds
each name that points at one of them in every loaded ``acprov`` module,
so calls made inside the package through ``from ... import`` names
(``registry.verify``, ``ledger.hash_obj``, ``gas.canonical_serialize``)
are counted as well.  Each span records calls, total time and self time
(total minus the time spent in traced functions it called).  A few
spans also count bytes or repeats; see ``Tracer.counters``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = ("canonical", "crypto", "gas", "registry", "ledger", "qr", "simnet", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: Dict[str, float] = defaultdict(float)
        self._open: List[str] = []  # names of the open spans, innermost last
        self._child: List[float] = []  # time spent in traced callees, per open span
        self._verified = set()

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        opened, child = self._open, self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            opened.append(name)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                opened.pop()
                inner = child.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if child:
                    child[-1] += elapsed
            if after:
                after(args, result, elapsed, token)
            return result

        return traced

    # Hooks for the spans that count more than calls and time.

    def _serialized(self, args, result, elapsed, token) -> None:
        self.counters["canonical.serialize_bytes"] += len(result)
        if "registry.state_commitment" in self._open:
            self.counters["registry.state_commitment_bytes"] += len(result)

    def _verified_sig(self, args, result, elapsed, token) -> None:
        # A repeat of arguments verified earlier in this process is a call the
        # signature memo can answer.
        if args in self._verified:
            self.counters["crypto.verify_repeats"] += 1
        else:
            self._verified.add(args)

    def _parsed(self, args, result, elapsed, token) -> None:
        self.counters["ledger.parse_chain_bytes"] += len(args[0])
        if self._open and self._open[-1] == "ledger.load_chain":
            self.counters["ledger.parse_in_load_s"] += elapsed

    @staticmethod
    def _chain_size(args):
        return os.path.getsize(args[0].path)

    def _appended(self, args, result, elapsed, token) -> None:
        self.counters["ledger.bytes_appended"] += os.path.getsize(args[0].path) - token

    def report(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules, everywhere it is bound."""
    modules = [importlib.import_module(f"acprov.{layer}") for layer in LAYERS]
    hooks = {
        "canonical.canonical_serialize": (None, tracer._serialized),
        "crypto.verify": (None, tracer._verified_sig),
        "ledger.parse_chain_bytes": (None, tracer._parsed),
        "ledger.append_block": (tracer._chain_size, tracer._appended),
    }
    wrappers = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
            ):
                name = f"{layer}.{attr}"
                before, after = hooks.get(name, (None, None))
                wrappers[value] = tracer.wrap(name, value, before, after)
    for module_name, module in list(sys.modules.items()):
        if module_name == "acprov" or module_name.startswith("acprov."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
    crypto = sys.modules["acprov.crypto"]
    crypto.KeyPair.sign = tracer.wrap("crypto.sign", crypto.KeyPair.sign)
