"""The evidence layer: interned match records with stable cross-worker ids.

A :class:`MatchEvidence` records *that a match of a GFD's antecedent
pattern was found and enforced*: which rule, which pivot, the full
variable assignment, and where it was produced (plan kind, fragment,
worker unit). Its :attr:`~MatchEvidence.ref` is content-derived — a
short blake2s digest over the (gfd, assignment) pair only — so the same
logical match gets the same id no matter which backend, worker, plan, or
fragment produced it. That stability is what lets the coordinator merge
evidence shipped from process workers with sequential runs and have the
backend-equivalence differential compare refs directly.

Producer metadata (pivot, unit uid, fragment id, origin) is carried on
the record but deliberately excluded from the ref: two workers finding
the same match through different routes still intern to one record.

:class:`EvidenceLog` is the interning container: append-only, dedup by
ref (first record wins), and lazy on both sides of a process boundary.
Producers append raw notes. A process worker takes a
:meth:`~EvidenceLog.mark` before each batch and replies with
:meth:`~EvidenceLog.export_since` — one pickled payload of the raw notes
captured after it — which the coordinator queues unopened with
:meth:`~EvidenceLog.absorb`. Digests and records are built only when
someone reads the log.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from hashlib import blake2s
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from ..graph.elements import NodeId

#: (variable, node) pairs sorted by variable — the canonical assignment form.
AssignmentItems = Tuple[Tuple[str, NodeId], ...]

#: One raw capture: ``(gfd, assignment, producer context)``.
_Note = Tuple[str, Dict[str, NodeId], Dict[str, object]]


def ref_of_items(gfd: str, items: AssignmentItems) -> str:
    return blake2s(repr((gfd, items)).encode(), digest_size=10).hexdigest()


def evidence_ref(gfd: str, assignment: Dict[str, NodeId]) -> str:
    """The stable id of a match: digest of the rule name + assignment.

    Everything else about the match (pivot choice, plan, fragment,
    worker) is reproducible metadata, not identity.
    """
    return ref_of_items(gfd, tuple(sorted(assignment.items())))


class MatchEvidence(NamedTuple):
    """One enforced match: which rule fired, on which nodes, found how.

    *ref* is redundant with (gfd, assignment) — see :func:`evidence_ref` —
    but stored so consumers never recompute digests. *origin* names the
    producer path (``"seq"``, ``"unit"``, ``"cascade"``, ``"validate"``);
    *plan* distinguishes per-rule plans from the ruleset trie; *fragment*
    is the fragment id for fragmented runs (``None`` otherwise).

    A ``NamedTuple`` rather than a dataclass: records are constructed on
    the hot enforcement path (one per satisfied match), where tuple
    construction is measurably cheaper than a frozen dataclass's
    ``__setattr__`` dance.
    """

    ref: str
    gfd: str
    assignment: AssignmentItems
    pivot: Optional[NodeId] = None
    origin: str = ""
    plan: str = ""
    fragment: Optional[int] = None
    unit_uid: str = ""

    @classmethod
    def from_match(
        cls,
        gfd: str,
        assignment: Dict[str, NodeId],
        *,
        pivot: Optional[NodeId] = None,
        origin: str = "",
        plan: str = "",
        fragment: Optional[int] = None,
        unit_uid: str = "",
    ) -> "MatchEvidence":
        items = tuple(sorted(assignment.items()))
        return cls(
            ref=ref_of_items(gfd, items),
            gfd=gfd,
            assignment=items,
            pivot=pivot,
            origin=origin,
            plan=plan,
            fragment=fragment,
            unit_uid=unit_uid,
        )

    def assignment_dict(self) -> Dict[str, NodeId]:
        return dict(self.assignment)

    def to_json(self) -> Dict[str, object]:
        return {
            "ref": self.ref,
            "gfd": self.gfd,
            "assignment": {var: node for var, node in self.assignment},
            "pivot": self.pivot,
            "origin": self.origin,
            "plan": self.plan,
            "fragment": self.fragment,
            "unit_uid": self.unit_uid,
        }


@dataclass
class EvidenceLog:
    """Append-only, ref-interned store of :class:`MatchEvidence` records.

    Interning is first-wins: re-recording a match already present (a
    second worker finding it, a retried unit shipping it again, a cascade
    re-check) is a no-op, which makes absorbing shipped evidence
    idempotent.

    Capture is lazy: the hot path appends raw ``(gfd, assignment,
    context)`` triples via :meth:`note`, and sorting/digesting/record
    construction run on first read (:meth:`_flush`). The same holds
    across processes: :meth:`export_since` pickles raw notes, and
    :meth:`absorb` queues the payload next to local notes, in arrival
    order, to be opened by that same first read. A run whose evidence is
    never queried never pays for it, on any backend.
    """

    _records: List[MatchEvidence] = field(default_factory=list)
    _by_ref: Dict[str, MatchEvidence] = field(default_factory=dict)
    #: Raw entries not yet materialized, in arrival order: notes taken on
    #: the hot path and ``bytes`` payloads absorbed from other logs.
    _pending: List[Union[_Note, bytes]] = field(default_factory=list)
    #: Pending entries materialized so far. A mark is this count plus the
    #: pending length, so flushing entries before a mark keeps it valid.
    _flushed: int = 0

    def note(
        self,
        gfd: str,
        assignment: Dict[str, NodeId],
        context: Dict[str, object],
    ) -> None:
        """Hot-path capture: append the raw match, defer everything else.

        The enforcement engine calls this once per satisfied match, so it
        must cost a list append and nothing more — sorting, digesting, and
        record construction happen lazily in :meth:`_flush` when the log
        is first read. Takes ownership of *assignment* (callers pass a
        fresh dict per match); *context* is snapshotted by reference
        (``set_evidence_context`` replaces the dict, never mutates it).
        """
        self._pending.append((gfd, assignment, context))

    def mark(self) -> int:
        """A mark over the raw entries, for :meth:`export_since`.

        Unlike a read, taking a mark materializes nothing.
        """
        return self._flushed + len(self._pending)

    def export_since(self, mark: int) -> bytes:
        """Pickle the raw entries captured after *mark* into one payload.

        Nothing is sorted, digested or built here: the payload is meant
        for another log's :meth:`absorb`, which defers all of that to its
        own first read. Raises :class:`ValueError` when a read has
        materialized entries past *mark* — they are no longer raw.
        """
        start = mark - self._flushed
        if start < 0:
            raise ValueError(
                f"evidence past mark {mark} was already materialized "
                f"({self._flushed} entries read)"
            )
        return pickle.dumps(self._pending[start:], protocol=pickle.HIGHEST_PROTOCOL)

    def absorb(self, payload: bytes) -> None:
        """Queue an :meth:`export_since` *payload* unopened.

        It is decoded and interned first-wins, in arrival order with the
        local notes around it, on the next read.
        """
        self._pending.append(payload)

    def _flush(self) -> None:
        """Materialize pending entries, first-wins, in arrival order."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._flushed += len(pending)
        self._intern_raw(pending)

    def _intern_raw(self, entries: List[Union[_Note, bytes]]) -> None:
        by_ref = self._by_ref
        for entry in entries:
            if isinstance(entry, bytes):
                self._intern_raw(pickle.loads(entry))
                continue
            gfd, assignment, context = entry
            items = tuple(sorted(assignment.items()))
            ref = ref_of_items(gfd, items)
            if ref in by_ref:
                continue
            record = MatchEvidence(ref, gfd, items, **context)
            self._records.append(record)
            by_ref[ref] = record

    def intern(self, record: MatchEvidence) -> MatchEvidence:
        """Add *record* unless its ref is known; return the canonical one."""
        self._flush()
        existing = self._by_ref.get(record.ref)
        if existing is not None:
            return existing
        self._records.append(record)
        self._by_ref[record.ref] = record
        return record

    def get(self, ref: str) -> Optional[MatchEvidence]:
        self._flush()
        return self._by_ref.get(ref)

    def __contains__(self, ref: str) -> bool:
        self._flush()
        return ref in self._by_ref

    def __len__(self) -> int:
        self._flush()
        return len(self._records)

    def __iter__(self) -> Iterator[MatchEvidence]:
        self._flush()
        return iter(self._records)

    def refs(self) -> List[str]:
        self._flush()
        return [record.ref for record in self._records]

    def to_json(self) -> List[Dict[str, object]]:
        self._flush()
        return [record.to_json() for record in self._records]
