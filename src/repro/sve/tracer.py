"""Dynamic instruction tracing and statistics.

The paper's analysis compares *instruction mixes*: the auto-vectorized
complex loop (structure load/store + real FMA chains, Section IV-B)
versus the ACLE FCMLA kernel (Section IV-C/D), and the FCMLA path
versus the real-arithmetic alternative of Section V-E ("at the cost of
higher instruction count").  The tracer records exactly those mixes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

#: Mnemonic classification used in reports.
CATEGORIES: dict[str, tuple[str, ...]] = {
    "load": ("ld1b", "ld1h", "ld1w", "ld1d", "ld2b", "ld2h", "ld2w", "ld2d",
             "ld3d", "ld3w", "ld4d", "ld4w", "ldr"),
    "store": ("st1b", "st1h", "st1w", "st1d", "stnt1b", "stnt1h", "stnt1w", "stnt1d", "st2b", "st2h", "st2w", "st2d",
              "st3d", "st3w", "st4d", "st4w", "str"),
    "fp": ("fadd", "fsub", "fmul", "fdiv", "fneg", "fabs", "fsqrt",
           "fmla", "fmls", "fnmla", "fnmls", "fmad", "fmsb", "fmax", "fmin",
           "faddv", "fadda", "fmaxv", "fminv", "fdup", "fmov"),
    "complex": ("fcmla", "fcadd"),
    "permute": ("zip1", "zip2", "uzp1", "uzp2", "trn1", "trn2", "rev", "ext",
                "tbl", "sel", "splice", "compact", "insr", "dup"),
    "predicate": ("ptrue", "pfalse", "whilelo", "whilelt", "brkn", "brkns",
                  "brka", "brkas", "brkb", "brkbs", "pnext", "pfirst",
                  "ptest", "cntp"),
    "convert": ("fcvt", "scvtf", "fcvtzs"),
    "control": ("b", "cbz", "cbnz", "ret", "cmp", "nop"),
    "prefetch": ("prfb", "prfh", "prfw", "prfd"),
}


#: Mnemonic -> category, the inverse of :data:`CATEGORIES`.
_CATEGORY_OF = {m: cat for cat, members in CATEGORIES.items()
                for m in members}


def categorize(mnemonic: str) -> str:
    """Map a mnemonic to its report category."""
    return _CATEGORY_OF.get(mnemonic, "scalar")


@dataclass
class Tracer:
    """Counts retired instructions, per mnemonic and per category."""

    record_stream: bool = False
    total: int = 0
    by_mnemonic: Counter = field(default_factory=Counter)
    by_category: Counter = field(default_factory=Counter)
    stream: list = field(default_factory=list)

    def retire(self, counts: dict, keys: tuple, categories: tuple) -> None:
        """Fold one run into the totals.

        ``counts`` maps pc -> retirements in first-retired order, so the
        counters gain keys in the order the instructions first retired
        (``most_common`` breaks ties that way); ``keys`` and
        ``categories`` give each pc's histogram key and category.
        """
        for pc, n in counts.items():
            self.total += n
            self.by_mnemonic[keys[pc]] += n
            self.by_category[categories[pc]] += n

    def reset(self) -> None:
        self.total = 0
        self.by_mnemonic.clear()
        self.by_category.clear()
        self.stream.clear()

    def count(self, *mnemonics: str) -> int:
        """Total retired count over the given mnemonics."""
        return sum(self.by_mnemonic[m] for m in mnemonics)

    def data_processing_count(self) -> int:
        """Retired instructions excluding control flow and scalar ALU."""
        return sum(
            n for cat, n in self.by_category.items()
            if cat not in ("control", "scalar")
        )

    def report(self) -> str:
        """Human-readable per-mnemonic histogram."""
        lines = [f"{'mnemonic':<12} {'count':>10}"]
        for mnem, n in self.by_mnemonic.most_common():
            lines.append(f"{mnem:<12} {n:>10}")
        lines.append(f"{'TOTAL':<12} {self.total:>10}")
        return "\n".join(lines)
