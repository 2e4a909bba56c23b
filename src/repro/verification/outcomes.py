"""The one outcome vocabulary every result matrix in the repo speaks.

The scenario runner classifies every fault cell — the default cube's
and the fault campaign's — and the matrix differ ranks the outcomes
when it compares a run against a committed baseline.  This module is
the single definition both import:

* :class:`Outcome` — the four cell outcomes, ordered from best to
  worst (``pass > recovered > detected > fail``);
* :func:`outcome_rank` — the goodness ordering the differ uses to
  decide whether a cell *regressed* (its new outcome ranks strictly
  below its old one);
* :func:`classify_cell` — the fault-cell classifier: fold a cell's
  fault ledger and terminal error into an :class:`Outcome`;
* :class:`SilentCorruption` — what a cell body raises when its answer
  is wrong.

``fail`` always means *silent corruption*: a wrong answer nothing
noticed.  A loud crash or a wrong-but-flagged answer is ``detected``
— the run knows it cannot trust the result, which is categorically
better than not knowing.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional


class Outcome(str, Enum):
    """One cell's classification, best to worst.

    A ``str`` enum so JSON round-trips and existing string-keyed
    tables (``counts()["recovered"]``...) keep working unchanged.
    """

    PASS = "pass"            #: correct answer; no fault, or masked
    RECOVERED = "recovered"  #: faults fired, detected, and repaired
    DETECTED = "detected"    #: failure noticed but not repaired
    FAIL = "fail"            #: silent corruption — wrong and unnoticed

    def __str__(self) -> str:  # "pass", not "Outcome.PASS"
        return self.value


#: The vocabulary in goodness order (best first) — tables iterate
#: this for stable column order.
OUTCOMES: tuple = tuple(Outcome)

#: Goodness rank: higher is better.  ``rank(new) < rank(old)`` is the
#: differ's definition of a regressed cell.
_RANK = {o: len(OUTCOMES) - i for i, o in enumerate(OUTCOMES)}


def outcome_rank(outcome) -> int:
    """Goodness of ``outcome`` (higher = better); accepts the enum or
    its string value."""
    return _RANK[Outcome(outcome)]


def is_regression(old, new) -> bool:
    """True when a cell's outcome got strictly worse."""
    return outcome_rank(new) < outcome_rank(old)


class SilentCorruption(AssertionError):
    """A fault cell produced a wrong answer.

    Raised by cell bodies when the final result fails its correctness
    check; :func:`classify_cell` downgrades it to ``detected`` when
    some mechanism noticed the fault, and brands the cell ``fail``
    (silent corruption) when nothing did.
    """


def classify_cell(campaign, error: Optional[BaseException]) -> Outcome:
    """Fold one cell's fault ledger + terminal error into an outcome.

    ``campaign`` carries the ledger (``detected`` / ``recovered``
    counts); ``error`` is the exception the cell body raised, if any.
    The contract:

    * no error: ``recovered`` if anything was repaired, else ``pass``;
    * a :class:`SilentCorruption` with an empty detection ledger:
      ``fail`` — wrong and unnoticed;
    * anything else (wrong-but-flagged, or a loud crash): ``detected``.
    """
    if error is None:
        return Outcome.RECOVERED if campaign.recovered > 0 else Outcome.PASS
    if isinstance(error, SilentCorruption) and campaign.detected == 0:
        return Outcome.FAIL
    return Outcome.DETECTED
