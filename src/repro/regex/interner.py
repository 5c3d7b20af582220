"""State-set interning: dense small-int ids for automaton state sets.

The walk engine's inner loop (Algorithm 2, ``SideRunner.step``) performs
one automaton transition per candidate neighbour.  The baseline
:class:`~repro.regex.matcher._StepCache` memoises those transitions but
still keys them on ``(frozenset, frozenset)`` pairs — a hash of every
member on every lookup, plus a fresh frozenset allocation on every miss.

This module replaces both frozensets with interned small integers:

* :class:`StateSetInterner` maps each distinct :data:`StateSet` to a
  dense id (``frozenset() -> 0`` always), keeping the reverse mapping
  and a pre-sorted tuple per id (what
  :class:`~repro.core.meeting.MeetingIndex` iterates when inserting
  ``(node, state)`` keys — no per-jump ``sorted`` calls).
* :class:`InternedStepTable` is a per-(NFA, direction) transition table
  ``(state_id, label_set_id) -> state_id``.  Label-set ids come from the
  engine's label interner (see :mod:`repro.core.fastpath`), so a cached
  transition is a single dict probe on a tuple of two ints.

Soundness is exactly the :meth:`_StepCache.usable_for
<repro.regex.matcher._StepCache.usable_for>` gate: memoising by label
set is only valid in exact mode (sampled mode draws randomness per
step) and without query-time predicates (whose outcome depends on
per-element attributes, not the label set).  Callers must fall back to
the frozenset trackers otherwise.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.labels import LabelSet
from repro.regex.nfa import NFA, EMPTY_STATES, StateSet

#: id of the empty state set in every interner — walkers compare against
#: this instead of truthiness on a frozenset
EMPTY_STATE_ID = 0


class StateSetInterner:
    """Bijection between :data:`StateSet` values and dense ids.

    The empty set is always id :data:`EMPTY_STATE_ID` so "the walk is
    dead" stays an integer comparison.
    """

    __slots__ = ("_ids", "_sets", "_tuples")

    def __init__(self) -> None:
        self._ids: Dict[StateSet, int] = {EMPTY_STATES: EMPTY_STATE_ID}
        self._sets: List[StateSet] = [EMPTY_STATES]
        self._tuples: List[Tuple[int, ...]] = [()]

    def intern(self, states: StateSet) -> int:
        """The id of ``states``, allocating one on first sight."""
        sid = self._ids.get(states)
        if sid is None:
            sid = len(self._sets)
            self._ids[states] = sid
            self._sets.append(states)
            self._tuples.append(tuple(sorted(states)))
        return sid

    def states_of(self, sid: int) -> StateSet:
        """The frozenset behind an id."""
        return self._sets[sid]

    def tuple_of(self, sid: int) -> Tuple[int, ...]:
        """The id's states as a pre-sorted tuple (meeting-index keys)."""
        return self._tuples[sid]

    def __len__(self) -> int:
        return len(self._sets)


class InternedStepTable:
    """Memoised ``(state_id, symbol_key_id) -> state_id`` transitions.

    One table per (automaton, walk direction), shared across queries by
    the engine exactly like ``_StepCache``.  ``label_sets`` is a *live*
    list owned by the engine's label interner — it grows in place as new
    label sets are seen, so the reference stays valid across graph-view
    rebuilds and the cached transitions survive graph mutations (they
    depend only on the automaton and the label sets themselves).

    **Symbol keys.**  Real label sets are nearly unique per element
    (thousands of distinct sets), but a predicate-free exact-mode
    automaton cannot tell most of them apart: a literal transition fires
    iff its symbol is in the set, and an :class:`~repro.regex.nfa.
    OtherSymbol` (whose ``known`` alphabet is a subset of the
    automaton's literal alphabet ``A``) fires iff the set contains a
    label outside ``known`` — which is determined by ``labels ∩ A`` plus
    the single bit "does the set contain any label outside ``A``".
    :meth:`project` therefore collapses every label-set id onto a dense
    **symbol-key id** via ``(labels ∩ A, bool(labels − A))``, and the
    transition table keys on that: it saturates after
    O(|state sets| × 2^|A|) misses instead of growing with the graph's
    label-set diversity.  (This is unsound for predicates — attrs, not
    labels — and for sampled mode — per-step randomness; both are
    excluded by the fast-path gate.)

    ``table`` and ``sym_ids`` are public on purpose: the walk inner
    loop probes ``table.get((sid, sym_ids[lsid]))`` directly, falling
    into :meth:`step` only on a miss — a bound-method call per
    candidate costs more than the probe itself.  Entries are never
    invalidated, so direct reads can't observe a stale value; the
    engine calls :meth:`project` before wiring the table into runners,
    so ``sym_ids`` always covers every interned label set.
    """

    __slots__ = (
        "nfa",
        "interner",
        "label_sets",
        "table",
        "sym_ids",
        "_alphabet",
        "_key_ids",
        "hits",
        "misses",
    )

    def __init__(self, nfa: NFA, label_sets: Sequence[LabelSet]):
        self.nfa = nfa
        self.interner = StateSetInterner()
        self.label_sets = label_sets
        self.table: Dict[Tuple[int, int], int] = {}
        #: lsid -> symbol-key id, kept in lockstep with ``label_sets``
        #: by :meth:`project`
        self.sym_ids: List[int] = []
        self._alphabet = nfa.literal_alphabet()
        self._key_ids: Dict[Tuple[LabelSet, bool], int] = {}
        self.hits = 0
        self.misses = 0

    def intern(self, states: StateSet) -> int:
        """Intern a state set produced outside the table (walk starts)."""
        return self.interner.intern(states)

    def tuple_of(self, sid: int) -> Tuple[int, ...]:
        """Pre-sorted state tuple for meeting-index insertion."""
        return self.interner.tuple_of(sid)

    def project(self) -> None:
        """Extend ``sym_ids`` over every label set interned so far."""
        label_sets = self.label_sets
        sym_ids = self.sym_ids
        alphabet = self._alphabet
        key_ids = self._key_ids
        for lsid in range(len(sym_ids), len(label_sets)):
            labels = label_sets[lsid]
            relevant = labels & alphabet
            key = (relevant, len(relevant) < len(labels))
            skid = key_ids.get(key)
            if skid is None:
                skid = len(key_ids)
                key_ids[key] = skid
            sym_ids.append(skid)

    def step(self, sid: int, lsid: int) -> int:
        """Transition ``sid`` on the label set with id ``lsid``."""
        key = (sid, self.sym_ids[lsid])
        nsid = self.table.get(key)
        if nsid is not None:
            self.hits += 1
            return nsid
        self.misses += 1
        states = self.nfa.step(
            self.interner.states_of(sid), self.label_sets[lsid], {}
        )
        nsid = self.interner.intern(states)
        self.table[key] = nsid
        return nsid

    # -- shared-memory warm state (see repro.core.shm) -----------------
    def export_state(self) -> Dict[str, Any]:
        """Snapshot the memoised transitions for cross-process shipping.

        Returns the interned state sets (in id order), the symbol-key
        map, and the ``sym_ids`` / dense-transition arrays — the two
        arrays go into shared-memory segments, the rest rides in the
        manifest blob.  The dense array is the shipping format of
        ``table``: ``dense[sid, skid]`` is the cached next state id, or
        ``-1`` where the transition was never taken.
        """
        self.project()
        dense = np.full(
            (len(self.interner), max(1, len(self._key_ids))),
            -1,
            dtype=np.int32,
        )
        for (sid, skid), nsid in self.table.items():
            dense[sid, skid] = nsid
        return {
            "state_sets": list(self.interner._sets),
            "key_ids": dict(self._key_ids),
            "sym_ids": np.asarray(self.sym_ids, dtype=np.int32),
            "dense": dense,
        }

    @classmethod
    def adopt_state(
        cls,
        nfa: NFA,
        label_sets: Sequence[LabelSet],
        state_sets: Sequence[StateSet],
        key_ids: Dict[Tuple[LabelSet, bool], int],
        sym_ids: npt.NDArray[np.int32],
        dense: npt.NDArray[np.int32],
    ) -> "InternedStepTable":
        """Rebuild a warm table from :meth:`export_state` output.

        Sound only when ``nfa`` numbers its states exactly like the
        exporting automaton — guaranteed here because both sides
        compile the same canonical regex source with the deterministic
        Thompson construction — and when ``label_sets`` is the adopted
        (id-stable) interner table.  The dense array is read once, into
        ``table``; the (read-only, shared-memory) array itself is not
        kept.
        """
        table = cls(nfa, label_sets)
        for states in state_sets:
            table.interner.intern(states)
        table._key_ids = dict(key_ids)
        table.sym_ids = [int(skid) for skid in sym_ids.tolist()]
        rows, cols = np.nonzero(dense >= 0)
        for sid, skid in zip(rows.tolist(), cols.tolist()):
            table.table[(sid, skid)] = int(dense[sid, skid])
        return table
