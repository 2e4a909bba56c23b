"""Assembled-program container."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sve.decoder import Instruction


@dataclass
class Program:
    """A sequence of decoded instructions plus a label table.

    Programs are position-independent: labels map to instruction
    indices, and the machine's ``pc`` is an instruction index.
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    source: str = ""
    #: The machine's steps for this program, bound once per vector
    #: length (keyed by ``VL.bits``) on the first run at that length.
    _bound: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def target(self, name: str) -> int:
        """Resolve a branch target label to an instruction index."""
        try:
            return self.labels[name]
        except KeyError:
            raise KeyError(f"undefined label {name!r}") from None

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def static_histogram(self) -> dict[str, int]:
        """Static (not dynamic) per-mnemonic instruction counts."""
        hist: dict[str, int] = {}
        for insn in self.instructions:
            key = insn.mnemonic if insn.cond is None else f"b.{insn.cond}"
            hist[key] = hist.get(key, 0) + 1
        return hist

    def listing(self) -> str:
        """Pretty listing with labels, similar to the paper's figures."""
        by_index: dict[int, list[str]] = {}
        for name, idx in self.labels.items():
            by_index.setdefault(idx, []).append(name)
        lines = []
        for i, insn in enumerate(self.instructions):
            for name in by_index.get(i, []):
                lines.append(f"{name}:")
            lines.append(f"    {insn.text}")
        for name in by_index.get(len(self.instructions), []):
            lines.append(f"{name}:")
        return "\n".join(lines)
