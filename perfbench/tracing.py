"""In-memory spans around the calls `lrqc.cli` makes into the other modules.

`Tracer.install` rebinds, inside the `lrqc.cli` module only, every function
name that `lrqc.cli` imported from `swapcore`, `bounds`, `path1d`, `oracle`
and `config`, plus its `COMMANDS` entries and `write_table`, to wrappers that
record a span per call.  Nothing under `src/` is edited; `uninstall` restores
the original bindings, so untraced passes run the unmodified code.
"""
from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "config", "swapcore", "bounds", "path1d", "oracle")
_TRACED_MODULES = {f"lrqc.{name}" for name in LAYERS if name != "cli"}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: str
    pass_index: int
    error: bool = False


def _work_counts(name: str, args: tuple) -> dict[str, float]:
    """Work counters taken from a traced call's inputs (and, for output, its file)."""
    if name == "swapcore.purity_trajectory":
        _, spec, k_max = args[:3]
        return {"swapcore.region_maps": k_max * len(spec.structure.regions)}
    if name == "swapcore.build_swap_matrix":
        return {"swapcore.matrix_bytes_computed": 8 * 4 ** args[0].structure.n}
    if name == "oracle.mc_purity_trajectory":
        _, _, k_max, cfg = args[:4]
        steps = cfg.samples * k_max
        return {"oracle.sample_steps": steps,
                "oracle.state_bytes_computed": steps * 16 * cfg.d ** cfg.n}
    if name == "cli.write_table":
        return {"cli.output_bytes": os.path.getsize(args[1])}
    return {}


class Tracer:
    """Records spans and work counters while installed into `lrqc.cli`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple[str, int, float]] = []  # (counter, pass, value)
        self._stack: list[int] = []
        self._saved: dict[str, object] = {}
        self._saved_commands: dict[str, object] = {}
        self.op = ""
        self.pass_index = -1

    def _wrap(self, fn, name: str, layer: str):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, layer, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.op, self.pass_index)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            for counter, value in _work_counts(name, args).items():
                self.counts.append((counter, self.pass_index, value))
            return result
        return traced

    def call(self, name: str, fn, *args):
        """Run `fn(*args)` as a root span of layer `cli` (used around `cli.main`)."""
        return self._wrap(fn, name, "cli")(*args)

    def install(self, cli) -> None:
        for attr, value in list(vars(cli).items()):
            if inspect.isfunction(value) and value.__module__ in _TRACED_MODULES:
                layer = value.__module__.rsplit(".", 1)[1]
                self._saved[attr] = value
                setattr(cli, attr, self._wrap(value, f"{layer}.{attr}", layer))
        self._saved["write_table"] = cli.write_table
        cli.write_table = self._wrap(cli.write_table, "cli.write_table", "cli")
        for command, fn in cli.COMMANDS.items():
            self._saved_commands[command] = fn
            cli.COMMANDS[command] = self._wrap(fn, f"cli.{fn.__name__}", "cli")

    def uninstall(self, cli) -> None:
        for attr, value in self._saved.items():
            setattr(cli, attr, value)
        cli.COMMANDS.update(self._saved_commands)
        self._saved.clear()
        self._saved_commands.clear()

    # -- derived figures ----------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def pass_summary(self, pass_index: int) -> dict[str, float]:
        """Per-layer self time, per-function time, counters and errors of one pass."""
        own = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for s, self_s in zip(self.spans, own):
            if s.pass_index != pass_index:
                continue
            out[f"{s.layer}.self_s"] += self_s
            out[f"{s.layer}.self_s@{s.op}"] += self_s
            out[f"{s.name}_s"] += s.end - s.start
            out[f"{s.name}_calls"] += 1
            out[f"{s.name}_s@{s.op}"] += s.end - s.start
            if s.error:
                out[f"{s.layer}.errors"] += 1
        for counter, index, value in self.counts:
            if index == pass_index:
                out[counter] += value
        return out

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.op, s.pass_index, s.error]
                for s in self.spans]
