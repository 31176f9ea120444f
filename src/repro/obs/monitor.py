"""Online LTLf conformance monitoring of strict correctness.

The paper's Definition 2 (strict correctness: completeness, recovery
safety, normal-service safety, spec consistency) is checked after the
fact by the epoch audit (:mod:`repro.core.axioms`) and before queuing by
the static plan verifier (:mod:`repro.lint`).  Both leave a gap: a run
that *violates* strict correctness mid-recovery — a heal that undoes a
task outside any heal bracket, a redo dispatched before its undo, a
corrupted-region task the executed plan silently dropped — is invisible
until the run ends.  This module closes that gap with runtime
verification: Definition 2 is encoded as **finite-trace linear temporal
logic** (LTLf, after "An LTL Semantics of Business Workflows with
Recovery", PAPERS.md) and evaluated *online* over the typed
:mod:`repro.obs.events` stream, and *offline* over flight logs with
bit-identical verdicts.

Three layers:

1. **The LTLf core** — a small formula algebra (:class:`Prop`,
   :class:`Not`, :class:`And`, :class:`Or`, :class:`Next`,
   :class:`WeakNext`, :class:`Until`, :class:`Release`, plus the
   derived ``G``/``F``/``W``/``implies`` builders) compiled lazily into
   deterministic monitor automata by **formula progression**
   (:func:`progress`): consuming one trace letter rewrites the formula
   into the obligation on the remaining suffix, and memoizing the
   rewrite per (state, letter) *is* the automaton's transition table
   (:class:`MonitorDfa`: int states, bitmask letters, one table per
   formula per process).
   Verdicts are the four RV-LTL values (:class:`Verdict`): a state of
   ``TRUE``/``FALSE`` is irrevocably satisfied/violated; otherwise the
   empty-suffix evaluation (:func:`eval_empty`) splits the undecided
   states into presumably-true / presumably-false.

2. **The Definition 2 property pack** (:func:`strict_property_pack`) —
   heal-bracket alternation, per-task undo/redo lifecycle obligations,
   Theorem 3/4 dispatch-order consistency, claimed-vs-decided blast
   radius, and the normal-service gate, each a :class:`LtlProperty` or
   a parametric :class:`SlicedLtlProperty` (one automaton per task uid
   or per order edge — classic trace slicing).

3. **The wiring** — :class:`ConformanceMonitor` subscribes the pack to
   an :class:`~repro.obs.events.EventBus`, emits one typed
   :class:`~repro.obs.events.ConformanceViolation` per failed property
   instance, and :func:`replay_conformance` re-derives the exact same
   violation stream from a recorded flight log (replay identity is
   pinned by tests).  :class:`~repro.obs.health.HealthMonitor` embeds a
   ConformanceMonitor and surfaces its verdict as the third
   ``conformance`` SLO.

The monitor is a pure function of the event sequence: it never reads a
clock, never draws randomness, and stamps every violation with the
triggering event's time (end-of-trace obligations with the last seen
time).  Feeding the same events in the same order — online through a
bus or offline from a flight log — always produces the same verdicts.

Soundness notes (why an honest run is monitor-clean):

- scan-time decisions are *monotone*: the Theorem 1/2 closure only
  grows as the log grows, so every uid decided definite at scan time is
  contained in the closure the batch heal executes — ``F undone`` is
  honest-run-safe;
- the system publishes a plan's **claimed** definite sets on its
  :class:`~repro.obs.events.UnitEmitted`, and the analyzer's own
  decision events are re-derived from the same traversal, so claimed
  and decided agree exactly unless the plan was tampered with between
  analysis and queuing (precisely the ``--inject`` fault model);
- heals are bracketed by ``HealStarted``/``HealFinished`` at every
  instrumented site (``SelfHealingSystem.recovery_step``, the fullstack
  simulator's ``commit_repairs``, and the direct epoch heals which opt
  in via ``EpochManager.heal(bracket=True)``).

Deliberately *not* monitored at runtime: the full Theorem 1 blast
radius of the *executed* closure.  Scan/recovery-timed workloads can
legitimately commit between an alert's scan and its batch heal and be
swept into the executed closure without any plan having claimed them —
the run is strictly correct (the end-to-end audit proves it) but no
online claim can anticipate it.  Blast radius is therefore checked at
plan level (claimed vs decided, above) and end-to-end by the audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.strategies import RecoveryStrategy
from repro.obs.events import (
    ActionDispatched,
    ConformanceViolation,
    EventBus,
    HealFinished,
    HealStarted,
    NormalTaskRefused,
    ObsEvent,
    OrderConstraint,
    RedoDecision,
    TaskRedone,
    TaskUndone,
    UndoDecision,
    UnitEmitted,
)
from repro.obs.locks import make_lock

__all__ = [
    "Formula",
    "Verdict",
    "TRUE",
    "FALSE",
    "prop",
    "lnot",
    "land",
    "lor",
    "nxt",
    "wnext",
    "until",
    "release",
    "always",
    "eventually",
    "weak_until",
    "implies",
    "atoms",
    "eval_empty",
    "progress",
    "MonitorDfa",
    "monitor_dfa",
    "MonitorAutomaton",
    "LtlProperty",
    "SlicedLtlProperty",
    "ClaimConsistencyProperty",
    "strict_property_pack",
    "ConformanceMonitor",
    "replay_conformance",
    "DEFINITE_UNDO_CONDITIONS",
    "DEFINITE_REDO_CONDITIONS",
]


# --------------------------------------------------------------------------
# The LTLf formula algebra
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    """Base class of LTLf formulas (immutable, structurally hashable —
    progression memoization keys on formula identity)."""


@dataclass(frozen=True)
class Const(Formula):
    """A propositional constant (use the :data:`TRUE`/:data:`FALSE`
    singletons; every simplification funnels into them)."""

    value: bool


#: The verum / falsum constants — also the automaton's accepting and
#: rejecting sink states.
TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Prop(Formula):
    """An atomic proposition over the current trace letter."""

    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    parts: Tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    parts: Tuple[Formula, ...]


@dataclass(frozen=True)
class Next(Formula):
    """Strong next: a successor position must exist and satisfy the
    operand (false at the last position)."""

    operand: Formula


@dataclass(frozen=True)
class WeakNext(Formula):
    """Weak next: vacuously true at the last position."""

    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    """``left U right``: right eventually holds, left holds until then.
    The obligation is *strong* — an unresolved Until at end of trace is
    false."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    """``left R right`` (dual of Until): right holds up to and
    including the position where left first holds, or forever."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Tail(Formula):
    """``operand``, with an overridden empty-trace verdict.

    Progression of :class:`Next`/:class:`WeakNext` must preserve the
    distinction between "a successor existed" and "the trace ended":
    both progress to their operand on a nonempty suffix, but on the
    *empty* suffix strong next is false and weak next is true,
    regardless of the operand.  :func:`tail` wraps the operand exactly
    when its natural empty-trace value differs.
    """

    operand: Formula
    accept_empty: bool


# -- smart constructors (simplify into canonical forms so progression
#    reaches the TRUE/FALSE sinks and memo keys stay small) ----------------


def prop(name: str) -> Formula:
    """An atomic proposition."""
    return Prop(name)


def lnot(f: Formula) -> Formula:
    """Negation (involutive; constants fold)."""
    if f is TRUE:
        return FALSE
    if f is FALSE:
        return TRUE
    if isinstance(f, Not):
        return f.operand
    return Not(f)


def _flatten(cls: type, parts: Iterable[Formula]) -> List[Formula]:
    out: List[Formula] = []
    for part in parts:
        if isinstance(part, cls):
            out.extend(part.parts)  # type: ignore[attr-defined]
        else:
            out.append(part)
    return out


def land(*parts: Formula) -> Formula:
    """Conjunction: flattens, folds constants, deduplicates."""
    flat: List[Formula] = []
    seen = set()
    for part in _flatten(And, parts):
        if part is FALSE:
            return FALSE
        if part is TRUE or part in seen:
            continue
        seen.add(part)
        flat.append(part)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def lor(*parts: Formula) -> Formula:
    """Disjunction: flattens, folds constants, deduplicates."""
    flat: List[Formula] = []
    seen = set()
    for part in _flatten(Or, parts):
        if part is TRUE:
            return TRUE
        if part is FALSE or part in seen:
            continue
        seen.add(part)
        flat.append(part)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def nxt(f: Formula) -> Formula:
    """Strong next (``X f``)."""
    if f is FALSE:
        return FALSE
    return Next(f)


def wnext(f: Formula) -> Formula:
    """Weak next (``WX f``)."""
    if f is TRUE:
        return TRUE
    return WeakNext(f)


def until(left: Formula, right: Formula) -> Formula:
    """``left U right`` (strong until)."""
    if right is TRUE or right is FALSE:
        return right
    if left is FALSE:
        return right
    return Until(left, right)


def release(left: Formula, right: Formula) -> Formula:
    """``left R right`` (release)."""
    if right is TRUE or right is FALSE:
        return right
    if left is TRUE:
        return right
    return Release(left, right)


def always(f: Formula) -> Formula:
    """``G f`` = ``FALSE R f``."""
    return release(FALSE, f)


def eventually(f: Formula) -> Formula:
    """``F f`` = ``TRUE U f``."""
    return until(TRUE, f)


def weak_until(left: Formula, right: Formula) -> Formula:
    """``left W right`` = ``right R (left | right)`` — like Until but
    with no obligation that ``right`` ever holds."""
    return release(right, lor(left, right))


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """Material implication."""
    return lor(lnot(antecedent), consequent)


def tail(f: Formula, accept_empty: bool) -> Formula:
    """``f`` with its empty-trace verdict pinned to ``accept_empty``
    (wraps only when the natural verdict differs)."""
    if eval_empty(f) == accept_empty:
        return f
    return Tail(f, accept_empty)


# -- semantics --------------------------------------------------------------


def atoms(f: Formula) -> FrozenSet[str]:
    """Every atomic proposition occurring in ``f`` (the monitor
    restricts trace letters to this alphabet for memoization)."""
    if isinstance(f, Prop):
        return frozenset((f.name,))
    if isinstance(f, (Not, Next, WeakNext, Tail)):
        return atoms(f.operand)
    if isinstance(f, (And, Or)):
        out: FrozenSet[str] = frozenset()
        for part in f.parts:
            out |= atoms(part)
        return out
    if isinstance(f, (Until, Release)):
        return atoms(f.left) | atoms(f.right)
    return frozenset()


def eval_empty(f: Formula) -> bool:
    """Does the *empty* trace satisfy ``f``?

    The standard finite-trace rules: atoms and strong operators
    (``Prop``, ``X``, ``U``) fail on emptiness, weak operators (``WX``,
    ``R`` — hence ``G``) hold vacuously.  This is the RV-LTL
    "presumption": it is the verdict the monitor reports if the trace
    were to end now.
    """
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Prop):
        return False
    if isinstance(f, Not):
        return not eval_empty(f.operand)
    if isinstance(f, And):
        return all(eval_empty(p) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_empty(p) for p in f.parts)
    if isinstance(f, Next):
        return False
    if isinstance(f, WeakNext):
        return True
    if isinstance(f, Until):
        return False
    if isinstance(f, Release):
        return True
    if isinstance(f, Tail):
        return f.accept_empty
    raise TypeError(f"not an LTLf formula: {f!r}")


def progress(f: Formula, letter: Mapping[str, bool]) -> Formula:
    """One step of formula progression: the obligation on the remaining
    suffix after consuming one trace letter.

    Exact for every operator: for any letter σ and suffix w (possibly
    empty), ``σ·w ⊨ f`` iff ``w ⊨ progress(f, σ)`` — the
    :func:`tail` wrapper preserves the strong/weak next distinction at
    end of trace, and Until/Release unfold with their own emptiness
    behaviour built in.
    """
    if isinstance(f, Const):
        return f
    if isinstance(f, Prop):
        return TRUE if letter.get(f.name, False) else FALSE
    if isinstance(f, Not):
        return lnot(progress(f.operand, letter))
    if isinstance(f, And):
        return land(*(progress(p, letter) for p in f.parts))
    if isinstance(f, Or):
        return lor(*(progress(p, letter) for p in f.parts))
    if isinstance(f, Next):
        return tail(f.operand, accept_empty=False)
    if isinstance(f, WeakNext):
        return tail(f.operand, accept_empty=True)
    if isinstance(f, Until):
        # l U r  =  r | (l & X(l U r)), with the strong-next emptiness
        # built into Until's own eval_empty (False).
        return lor(
            progress(f.right, letter),
            land(progress(f.left, letter), f),
        )
    if isinstance(f, Release):
        # l R r  =  r & (l | WX(l R r)); Release's eval_empty is True.
        return land(
            progress(f.right, letter),
            lor(progress(f.left, letter), f),
        )
    if isinstance(f, Tail):
        return progress(f.operand, letter)
    raise TypeError(f"not an LTLf formula: {f!r}")


class Verdict(str, Enum):
    """RV-LTL four-valued monitor verdict."""

    #: Every extension of the consumed prefix satisfies the formula.
    SATISFIED = "satisfied"
    #: Every extension violates it.
    VIOLATED = "violated"
    #: Undecided; satisfied if the trace ended here.
    PRESUMABLY_TRUE = "presumably-true"
    #: Undecided; violated if the trace ended here.
    PRESUMABLY_FALSE = "presumably-false"

    @property
    def decided(self) -> bool:
        """Is this verdict irrevocable?"""
        return self in (Verdict.SATISFIED, Verdict.VIOLATED)


def _verdict_of(state: Formula) -> Verdict:
    """The RV-LTL verdict of a progression state."""
    if isinstance(state, Const):
        return Verdict.SATISFIED if state.value else Verdict.VIOLATED
    return (Verdict.PRESUMABLY_TRUE if eval_empty(state)
            else Verdict.PRESUMABLY_FALSE)


class MonitorDfa:
    """The deterministic monitor automaton of one formula, with int
    states, filled lazily by progression.

    Progression computes the LTLf→DFA construction (De Giacomo and
    Vardi, IJCAI 2013) on the fly; this class is its table.  State ``i``
    is the formula :attr:`states` ``[i]``, with its verdict, its
    end-of-trace verdict and its decided flag precomputed in
    :attr:`verdicts`, :attr:`final` and :attr:`decided`.  A letter
    becomes a bitmask over the sorted atom alphabet (atoms outside it
    are ignored), and ``state * 2**len(alphabet) + mask`` indexes the
    transition.  A miss fills the entry by calling :func:`progress` on
    the state's formula, so the table never disagrees with progression.

    One table serves every automaton and slice of its formula in the
    process (:func:`monitor_dfa`), across tenants and threads.
    Lookups that hit are lock-free; the fill path interns the successor
    (``len(states)``, append, index) under one ``monitor``-tier lock so
    two threads can never give two formulas one id.
    """

    __slots__ = ("formula", "alphabet", "initial", "states", "verdicts",
                 "final", "decided", "_bits", "_width", "_ids", "_table",
                 "_lock")

    def __init__(self, formula: Formula) -> None:
        self.formula = formula
        self.alphabet = atoms(formula)
        self._bits = tuple(
            (atom, 1 << i) for i, atom in enumerate(sorted(self.alphabet))
        )
        self._width = 1 << len(self._bits)
        self.states: List[Formula] = []
        self.verdicts: List[Verdict] = []
        self.final: List[Verdict] = []
        self.decided: List[bool] = []
        self._ids: Dict[Formula, int] = {}
        self._table: Dict[int, int] = {}
        self._lock = make_lock("monitor")
        with self._lock:
            self.initial = self._intern(formula)

    def mask(self, letter: Mapping[str, bool]) -> int:
        """``letter`` as a bitmask over the sorted alphabet."""
        mask = 0
        for atom, bit in self._bits:
            if letter.get(atom, False):
                mask |= bit
        return mask

    def step(self, state: int, letter: Mapping[str, bool]) -> int:
        """The successor of state id ``state`` on ``letter``."""
        key = state * self._width + self.mask(letter)
        nxt_state = self._table.get(key)
        if nxt_state is None:
            nxt_state = self._fill(key, state, letter)
        return nxt_state

    def _fill(self, key: int, state: int,
              letter: Mapping[str, bool]) -> int:
        with self._lock:
            nxt_state = self._table.get(key)
            if nxt_state is None:
                nxt_state = self._intern(
                    progress(self.states[state], letter)
                )
                self._table[key] = nxt_state
        return nxt_state

    def _intern(self, state: Formula) -> int:
        sid = self._ids.get(state)
        if sid is None:
            sid = len(self.states)
            verdict = _verdict_of(state)
            self.states.append(state)
            self.verdicts.append(verdict)
            self.final.append(
                Verdict.SATISFIED
                if verdict in (Verdict.SATISFIED, Verdict.PRESUMABLY_TRUE)
                else Verdict.VIOLATED
            )
            self.decided.append(verdict.decided)
            self._ids[state] = sid
        return sid


_DFAS: Dict[Formula, MonitorDfa] = {}
_DFAS_LOCK = make_lock("monitor")


def monitor_dfa(formula: Formula) -> MonitorDfa:
    """The process-wide :class:`MonitorDfa` of ``formula`` (structurally
    equal formulas share one).  Tables live as long as the process: the
    property pack has nine formulas, and each table holds only the
    states its traces reached."""
    dfa = _DFAS.get(formula)
    if dfa is None:
        fresh = MonitorDfa(formula)
        with _DFAS_LOCK:
            dfa = _DFAS.setdefault(formula, fresh)
    return dfa


class MonitorAutomaton:
    """One run of a formula's monitor: its shared :class:`MonitorDfa`
    and the current state id.

    Every automaton of a formula steps the same per-process table, so a
    property pays for each (state, letter) progression once per process
    rather than once per tenant or slice.  Letters may carry atoms
    outside the formula's alphabet; they are ignored.
    """

    __slots__ = ("dfa", "sid")

    def __init__(self, formula: Formula) -> None:
        self.dfa = monitor_dfa(formula)
        self.sid = self.dfa.initial

    @property
    def formula(self) -> Formula:
        return self.dfa.formula

    @property
    def alphabet(self) -> FrozenSet[str]:
        return self.dfa.alphabet

    @property
    def state(self) -> Formula:
        """The current progression state (the obligation on the
        remaining suffix)."""
        return self.dfa.states[self.sid]

    @property
    def verdict(self) -> Verdict:
        """The RV-LTL verdict after the consumed prefix."""
        return self.dfa.verdicts[self.sid]

    def step(self, letter: Mapping[str, bool]) -> Verdict:
        """Consume one trace letter; returns the updated verdict."""
        self.sid = self.dfa.step(self.sid, letter)
        return self.dfa.verdicts[self.sid]

    def finalize(self) -> Verdict:
        """Close the trace: undecided states resolve by their
        empty-suffix value (the finite-trace verdict)."""
        return self.dfa.final[self.sid]


# --------------------------------------------------------------------------
# Properties over the typed event stream
# --------------------------------------------------------------------------


#: Theorem 1 clauses whose UndoDecision marks a *definite* undo
#: (directly malicious / infected via data flow).
DEFINITE_UNDO_CONDITIONS = ("T1.1", "T1.3")

#: Theorem 2 clauses whose RedoDecision marks a *definite* redo.
DEFINITE_REDO_CONDITIONS = ("T2.1",)


@dataclass(frozen=True)
class Finding:
    """One failed property instance (pre-event form)."""

    prop: str
    verdict: str
    instance: str
    detail: str


class LtlProperty:
    """One LTLf formula evaluated over a projection of the stream.

    ``extract`` maps an event either to a trace letter (a dict of atom
    truth values) or to ``None`` — events outside the property's
    alphabet are skipped entirely, so each property reads its own
    subsequence of the run (projection semantics; identical online and
    offline).  A violated property reports once and goes quiet.
    ``reads`` names the event types ``extract`` can map to a letter;
    :class:`ConformanceMonitor` routes only those types here.
    """

    def __init__(
        self,
        name: str,
        formula: Formula,
        extract: Callable[[ObsEvent], Optional[Dict[str, bool]]],
        reads: Tuple[type, ...],
        describe: Optional[Callable[[ObsEvent], str]] = None,
    ) -> None:
        self.name = name
        self.reads = reads
        self.automaton = MonitorAutomaton(formula)
        self._extract = extract
        self._describe = describe
        self.violated = False

    def consume(self, event: ObsEvent) -> List[Finding]:
        if self.violated:
            return []
        letter = self._extract(event)
        if letter is None:
            return []
        if self.automaton.step(letter) is Verdict.VIOLATED:
            self.violated = True
            detail = (self._describe(event) if self._describe
                      else f"{event.kind} at t={event.time:g}")
            return [Finding(self.name, Verdict.VIOLATED.value, "", detail)]
        return []

    def finalize(self) -> List[Finding]:
        if self.violated:
            return []
        if self.automaton.finalize() is Verdict.VIOLATED:
            self.violated = True
            return [Finding(
                self.name, "finally-violated", "",
                "unresolved obligation at end of trace",
            )]
        return []


class SlicedLtlProperty:
    """A parametric property: one state per *slice* (task uid, order
    edge, ...) of the formula's shared :class:`MonitorDfa`.

    A slice is just its current state id in :attr:`slices`; spawning one
    stores :attr:`MonitorDfa.initial`, so slices of every tenant step
    one per-process table and nothing is built per slice.  ``reads``
    names the event types ``route`` acts on (see :class:`LtlProperty`).

    ``route`` maps an event to ``(spawn, steps)``: slice keys to create
    (ignored when already live or decided) and ``(key, letter)`` pairs
    to step.  A slice that reaches a *decided* verdict stays decided
    for the rest of the trace — a satisfied obligation cannot be
    re-opened by a later event that would respawn its key (a task
    undone-then-redone in one heal must not start a fresh
    redo-before-undo slice when a later heal redoes it again), and a
    violated slice reports exactly once.  At finalize, every still-live
    slice resolves by its empty-suffix verdict.
    """

    def __init__(
        self,
        name: str,
        formula: Formula,
        route: Callable[
            [ObsEvent],
            Tuple[Sequence[str], Sequence[Tuple[str, Dict[str, bool]]]],
        ],
        reads: Tuple[type, ...],
        finally_detail: str = "unresolved obligation at end of trace",
    ) -> None:
        self.name = name
        self.formula = formula
        self.reads = reads
        self._route = route
        self._dfa = monitor_dfa(formula)
        #: Live slice key -> state id of :attr:`_dfa`.
        self.slices: Dict[str, int] = {}
        self._decided: set = set()
        self._finally_detail = finally_detail
        self.violations = 0

    def consume(self, event: ObsEvent) -> List[Finding]:
        spawn, steps = self._route(event)
        slices = self.slices
        dfa = self._dfa
        for key in spawn:
            if key not in slices and key not in self._decided:
                slices[key] = dfa.initial
        out: List[Finding] = []
        for key, letter in steps:
            state = slices.get(key)
            if state is None:
                continue
            state = dfa.step(state, letter)
            if not dfa.decided[state]:
                slices[key] = state
                continue
            del slices[key]
            self._decided.add(key)
            if dfa.verdicts[state] is Verdict.VIOLATED:
                self.violations += 1
                out.append(Finding(
                    self.name, Verdict.VIOLATED.value, key,
                    f"{event.kind} at t={event.time:g}",
                ))
        return out

    def finalize(self) -> List[Finding]:
        out: List[Finding] = []
        final = self._dfa.final
        for key in sorted(self.slices):
            if final[self.slices[key]] is Verdict.VIOLATED:
                self.violations += 1
                out.append(Finding(
                    self.name, "finally-violated", key,
                    self._finally_detail,
                ))
        self._decided.update(self.slices)
        self.slices.clear()
        return out


class ClaimConsistencyProperty:
    """Plan-level blast radius: claimed definite sets vs decisions.

    The analyzer publishes an :class:`UndoDecision`/:class:`RedoDecision`
    per Theorem 1/2 clause it fires, and the system stamps the *plan's*
    claimed definite sets onto the claimed :class:`UnitEmitted` that
    queues it.  Within one scan window (the events between claimed unit
    emissions) the two must agree exactly — a dropped undo or an
    injected redo between analysis and queuing is visible right here,
    before any heal runs.  Stateful set bookkeeping feeds two atoms
    into ``G ¬missing-claim`` / ``G ¬unjustified-claim``; abstract
    simulators publish ``claimed=False`` units, which never open a
    window, so the property is vacuous for them by construction.
    """

    UNDO = "undo-claim-consistency"
    REDO = "redo-claim-consistency"

    reads = (UndoDecision, RedoDecision, UnitEmitted)

    def __init__(self) -> None:
        self.name = "claim-consistency"
        self._undo = MonitorAutomaton(always(lnot(prop("missing"))))
        self._redo = MonitorAutomaton(always(lnot(prop("unjustified"))))
        self._decided_undo: set = set()
        self._decided_redo: set = set()
        self.violations = 0

    def consume(self, event: ObsEvent) -> List[Finding]:
        if isinstance(event, UndoDecision):
            if event.condition in DEFINITE_UNDO_CONDITIONS:
                self._decided_undo.add(event.uid)
            return []
        if isinstance(event, RedoDecision):
            if event.condition in DEFINITE_REDO_CONDITIONS:
                self._decided_redo.add(event.uid)
            return []
        if not isinstance(event, UnitEmitted) or not event.claimed:
            return []
        claimed_undo = set(event.claimed_undo)
        claimed_redo = set(event.claimed_redo)
        missing = sorted(
            (self._decided_undo - claimed_undo)
            | (self._decided_redo - claimed_redo)
        )
        unjustified = sorted(
            (claimed_undo - self._decided_undo)
            | (claimed_redo - self._decided_redo)
        )
        self._decided_undo.clear()
        self._decided_redo.clear()
        out: List[Finding] = []
        if (self._undo.state is not FALSE
                and self._undo.step({"missing": bool(missing)})
                is Verdict.VIOLATED):
            self.violations += 1
            out.append(Finding(
                self.UNDO, Verdict.VIOLATED.value,
                " ".join(missing),
                f"plan at t={event.time:g} omits decided definite "
                f"uid(s): {' '.join(missing)}",
            ))
        if (self._redo.state is not FALSE
                and self._redo.step({"unjustified": bool(unjustified)})
                is Verdict.VIOLATED):
            self.violations += 1
            out.append(Finding(
                self.REDO, Verdict.VIOLATED.value,
                " ".join(unjustified),
                f"plan at t={event.time:g} claims undecided uid(s): "
                f"{' '.join(unjustified)}",
            ))
        return out

    def finalize(self) -> List[Finding]:
        # G-safety: nothing left to resolve at end of trace.  Decisions
        # whose plan never queued (a verifier rejection aborted the
        # scan) are deliberately not judged — there is no claim to
        # compare against.
        return []


def _one_hot(event: ObsEvent, **flags: bool) -> Dict[str, bool]:
    return dict(flags)


def _heal_alternation() -> LtlProperty:
    hs, hf = prop("hs"), prop("hf")
    formula = land(
        # No finish before the first start...
        weak_until(lnot(hf), hs),
        # ...every start is eventually finished, with no nested start;
        always(implies(hs, nxt(until(lnot(hs), hf)))),
        # ...and after a finish, no second finish before the next start.
        always(implies(hf, wnext(weak_until(lnot(hf), hs)))),
    )

    def extract(event: ObsEvent) -> Optional[Dict[str, bool]]:
        if isinstance(event, HealStarted):
            return {"hs": True, "hf": False}
        if isinstance(event, HealFinished):
            return {"hs": False, "hf": True}
        return None

    return LtlProperty(
        "heal-alternation", formula, extract,
        (HealStarted, HealFinished),
        describe=lambda e: (
            f"{e.kind} at t={e.time:g} breaks the "
            f"HealStarted/HealFinished alternation"
        ),
    )


def _task_within_heal() -> LtlProperty:
    hs, act = prop("hs"), prop("act")
    formula = land(
        weak_until(lnot(act), hs),
        always(implies(prop("hf"), wnext(weak_until(lnot(act), hs)))),
    )

    def extract(event: ObsEvent) -> Optional[Dict[str, bool]]:
        if isinstance(event, HealStarted):
            return {"hs": True, "hf": False, "act": False}
        if isinstance(event, HealFinished):
            return {"hs": False, "hf": True, "act": False}
        if isinstance(event, (TaskUndone, TaskRedone)):
            return {"hs": False, "hf": False, "act": True}
        return None

    return LtlProperty(
        "task-within-heal", formula, extract,
        (HealStarted, HealFinished, TaskUndone, TaskRedone),
        describe=lambda e: (
            f"{e.kind}({getattr(e, 'uid', '?')}) at t={e.time:g} "
            f"outside any HealStarted/HealFinished bracket"
        ),
    )


def _normal_refusal() -> LtlProperty:
    formula = always(lnot(prop("bad")))

    def extract(event: ObsEvent) -> Optional[Dict[str, bool]]:
        if isinstance(event, NormalTaskRefused):
            return {"bad": event.state == "NORMAL"}
        return None

    return LtlProperty(
        "normal-refusal", formula, extract, (NormalTaskRefused,),
        describe=lambda e: (
            f"normal task refused at t={e.time:g} while the system "
            f"reports NORMAL — Theorem 4's gate fired without cause"
        ),
    )


def _undo_completeness() -> SlicedLtlProperty:
    formula = eventually(prop("undone"))

    def route(event: ObsEvent):
        if (isinstance(event, UndoDecision)
                and event.condition in DEFINITE_UNDO_CONDITIONS):
            return (event.uid,), ()
        if isinstance(event, TaskUndone):
            return (), ((event.uid, {"undone": True}),)
        return (), ()

    return SlicedLtlProperty(
        "undo-completeness", formula, route, (UndoDecision, TaskUndone),
        finally_detail=(
            "uid decided definitely-undone (Theorem 1.1/1.3) was never "
            "undone before the trace ended"
        ),
    )


def _redo_follow_through() -> SlicedLtlProperty:
    formula = eventually(prop("done"))

    def route(event: ObsEvent):
        if (isinstance(event, RedoDecision)
                and event.condition in DEFINITE_REDO_CONDITIONS):
            return (event.uid,), ()
        if isinstance(event, TaskRedone):
            return (), ((event.uid, {"done": True}),)
        if isinstance(event, TaskUndone) and event.reason == "abandoned":
            return (), ((event.uid, {"done": True}),)
        return (), ()

    return SlicedLtlProperty(
        "redo-follow-through", formula, route,
        (RedoDecision, TaskRedone, TaskUndone),
        finally_detail=(
            "uid decided definitely-redone (Theorem 2.1) was neither "
            "redone nor abandoned before the trace ended"
        ),
    )


def _undo_before_redo() -> SlicedLtlProperty:
    formula = weak_until(lnot(prop("redo")), prop("undone"))

    def route(event: ObsEvent):
        if isinstance(event, TaskUndone):
            return ((event.uid,),
                    ((event.uid, {"redo": False, "undone": True}),))
        if isinstance(event, TaskRedone) and event.mode == "redo":
            return ((event.uid,),
                    ((event.uid, {"redo": True, "undone": False}),))
        return (), ()

    return SlicedLtlProperty(
        "undo-before-redo", formula, route, (TaskUndone, TaskRedone),
        finally_detail="re-execution without a prior undo",
    )


class _OrderConsistency(SlicedLtlProperty):
    """Theorem 3/4 edges vs the realized dispatch order.

    One slice per published :class:`OrderConstraint` edge, keyed
    ``"before < after"``.  Action strings are *not* plan-qualified: a
    batch heal dispatches several queued plans in FIFO order, and an
    earlier plan may legitimately dispatch an action with the same
    string as a later plan's ``after`` (the same instance re-touched by
    two plans), so the naive ``¬after W before`` would false-positive
    on honest batches.  The alias-robust encoding instead demands that
    *some* ``before`` dispatch is (weakly) followed by *some* ``after``
    dispatch — or that ``after`` never dispatches at all:
    ``G ¬after ∨ F(before ∧ F after)``.  A reversed edge (the
    ``reverse-edge`` fault injection) leaves every ``after`` strictly
    ahead of every ``before`` and resolves to ``finally-violated`` when
    the trace closes.  An index from action string to edge keys keeps
    routing linear in the dispatches actually constrained.
    """

    def __init__(self) -> None:
        before, after = prop("before"), prop("after")
        super().__init__(
            "order-consistency",
            lor(
                always(lnot(after)),
                eventually(land(before, eventually(after))),
            ),
            self._route_event,
            (OrderConstraint, ActionDispatched),
            finally_detail=(
                "a constrained action was dispatched, and no dispatch "
                "of it ever followed its required predecessor"
            ),
        )
        self._edges: Dict[str, Tuple[str, str]] = {}
        self._by_action: Dict[str, List[str]] = {}

    def _route_event(self, event: ObsEvent):
        if isinstance(event, OrderConstraint):
            key = f"{event.before} < {event.after}"
            if key not in self._edges:
                self._edges[key] = (event.before, event.after)
                self._by_action.setdefault(event.before, []).append(key)
                if event.after != event.before:
                    self._by_action.setdefault(event.after, []).append(key)
            return (key,), ()
        if isinstance(event, ActionDispatched):
            steps = []
            for key in self._by_action.get(event.action, ()):
                before, after = self._edges[key]
                steps.append((key, {
                    "before": event.action == before,
                    "after": event.action == after,
                }))
            return (), steps
        return (), ()


def strict_property_pack(
    strategy: RecoveryStrategy = RecoveryStrategy.STRICT,
) -> List[Any]:
    """The Definition 2 property pack (one fresh instance per monitor).

    ==========================  ============================================
    property                    LTLf encoding (over its event projection)
    ==========================  ============================================
    heal-alternation            ``(¬hf W hs) ∧ G(hs → X(¬hs U hf)) ∧
                                G(hf → WX(¬hf W hs))``
    task-within-heal            ``(¬act W hs) ∧ G(hf → WX(¬act W hs))``
    normal-refusal              ``G ¬(refused ∧ state=NORMAL)``
    undo-completeness           per decided uid: ``F undone``
    redo-follow-through         per T2.1 uid: ``F (redone ∨ abandoned)``
    undo-before-redo            per uid: ``¬redo W undone``
    order-consistency           per T3/T4/XU edge: ``G ¬after ∨
                                F(before ∧ F after)``
    claim-consistency           per scan window: ``G ¬missing ∧
                                G ¬unjustified``
    ==========================  ============================================

    The pack is parameterized by the operational
    :class:`~repro.core.strategies.RecoveryStrategy` (Section III-D).
    Under ``RISK_NORMAL_ONLY`` the multi-version store lets normal
    tasks run during damage analysis, and tasks executed on stale
    snapshots are legitimately re-repaired *outside* the heal bracket
    that planned them — so ``task-within-heal`` (whose atoms cannot
    tell a bracketed repair from a later multi-version re-repair) is
    relaxed out of the pack.  Every other Definition 2 obligation —
    bracket alternation, per-uid lifecycle, dispatch order, claim
    consistency — still holds verbatim, because recovery itself stays
    correct under that strategy.  ``STRICT`` and ``RISK_ALL`` run the
    full pack.
    """
    pack: List[Any] = [
        _heal_alternation(),
        _task_within_heal(),
        _normal_refusal(),
        _undo_completeness(),
        _redo_follow_through(),
        _undo_before_redo(),
        _OrderConsistency(),
        ClaimConsistencyProperty(),
    ]
    if strategy is RecoveryStrategy.RISK_NORMAL_ONLY:
        pack = [p for p in pack if p.name != "task-within-heal"]
    return pack


# --------------------------------------------------------------------------
# The conformance monitor
# --------------------------------------------------------------------------


class ConformanceMonitor:
    """Runs the Definition 2 property pack over a typed event stream.

    Attach it to a bus (:meth:`attach`) for online monitoring, or drive
    it manually with :meth:`consume` — both return/publish one
    :class:`~repro.obs.events.ConformanceViolation` per failed property
    instance, stamped with the triggering event's time.  Call
    :meth:`finalize` when the run ends to resolve liveness obligations
    (``F undone`` and friends) into ``finally-violated`` verdicts; a
    monitor left unfinalized reports hard violations only.

    The monitor is deterministic and clock-free: the violation stream
    is a pure function of the event sequence, which is what makes
    online and offline (:func:`replay_conformance`) verdicts
    bit-identical.  Each event goes only to the properties whose
    ``reads`` include its type, in pack order, so the violation order is
    the same as feeding every property every event.
    """

    #: Event types the property pack reads; subscription is typed so an
    #: attached monitor never sees unrelated traffic (or its own
    #: violations).
    CONSUMES = (
        HealStarted, HealFinished, TaskUndone, TaskRedone,
        NormalTaskRefused, UndoDecision, RedoDecision, OrderConstraint,
        ActionDispatched, UnitEmitted,
    )

    def __init__(
        self, strategy: RecoveryStrategy = RecoveryStrategy.STRICT,
    ) -> None:
        #: The operational strategy whose property pack this monitor
        #: runs (see :func:`strict_property_pack`).
        self.strategy = strategy
        self.properties = strict_property_pack(strategy)
        self.violations: List[ConformanceViolation] = []
        self.now = 0.0
        self.events_seen = 0
        self.finalized = False
        self._bus: Optional[EventBus] = None
        #: Event type -> the properties that read it, in pack order.
        self._routes: Dict[type, List[Any]] = {}

    @property
    def violation_count(self) -> int:
        """Total violations so far (the conformance SLO's value)."""
        return len(self.violations)

    @property
    def clean(self) -> bool:
        """No property instance has failed."""
        return not self.violations

    def attach(self, bus: EventBus) -> "ConformanceMonitor":
        """Subscribe to ``bus`` and publish violations back onto it;
        returns self for chaining."""
        self._bus = bus
        bus.subscribe(self.handle, types=self.CONSUMES)
        return self

    def handle(self, event: ObsEvent) -> None:
        """Bus entry point: consume and publish any violations."""
        for violation in self.consume(event):
            if self._bus is not None:
                self._bus.publish(violation)

    def consume(self, event: ObsEvent) -> List[ConformanceViolation]:
        """Feed one event through every property; returns (and records)
        the violations it triggered."""
        if event.time > self.now:
            self.now = event.time
        self.events_seen += 1
        cls = type(event)
        routed = self._routes.get(cls)
        if routed is None:
            routed = self._routes[cls] = [
                p for p in self.properties if issubclass(cls, p.reads)
            ]
        out: List[ConformanceViolation] = []
        for prop_ in routed:
            for finding in prop_.consume(event):
                out.append(self._violation(event.time, finding))
        return out

    def finalize(
        self, time: Optional[float] = None
    ) -> List[ConformanceViolation]:
        """Close the trace: unresolved obligations become
        ``finally-violated`` violations (idempotent)."""
        if self.finalized:
            return []
        self.finalized = True
        stamp = self.now if time is None else time
        out: List[ConformanceViolation] = []
        for prop_ in self.properties:
            for finding in prop_.finalize():
                violation = self._violation(stamp, finding)
                out.append(violation)
                if self._bus is not None:
                    self._bus.publish(violation)
        return out

    def _violation(
        self, time: float, finding: Finding
    ) -> ConformanceViolation:
        violation = ConformanceViolation(
            time,
            property=finding.prop,
            verdict=finding.verdict,
            instance=finding.instance,
            detail=finding.detail,
        )
        self.violations.append(violation)
        return violation

    def summary(self) -> Dict[str, Any]:
        """JSON-able snapshot (embedded in the health ``/slo``
        payload)."""
        by_property: Dict[str, int] = {}
        for violation in self.violations:
            by_property[violation.property] = (
                by_property.get(violation.property, 0) + 1
            )
        pending = 0
        for prop_ in self.properties:
            slices = getattr(prop_, "slices", None)
            if slices is not None:
                pending += len(slices)
        return {
            "strategy": self.strategy.value,
            "violations": self.violation_count,
            "by_property": dict(sorted(by_property.items())),
            "pending_obligations": pending,
            "events_seen": self.events_seen,
            "finalized": self.finalized,
        }


def replay_conformance(
    events: Sequence[ObsEvent], finalize: bool = True,
    strategy: RecoveryStrategy = RecoveryStrategy.STRICT,
) -> ConformanceMonitor:
    """Re-derive conformance verdicts offline from recorded events.

    Feeds every event through a fresh :class:`ConformanceMonitor`
    (recorded :class:`ConformanceViolation` events are skipped — they
    are the monitor's own output; other derived kinds are outside
    :attr:`ConformanceMonitor.CONSUMES` and ignore themselves) and
    optionally finalizes.  Because the monitor is a pure function of
    the event sequence, the replayed violation stream equals the online
    one exactly — compare :attr:`ConformanceMonitor.violations` against
    the recorded events to pin replay identity.  Replay with the same
    ``strategy`` the run was monitored under, or the property packs
    (and hence the verdicts) differ by construction.
    """
    monitor = ConformanceMonitor(strategy=strategy)
    for event in events:
        if isinstance(event, ConformanceViolation):
            continue
        if isinstance(event, monitor.CONSUMES):
            monitor.consume(event)
    if finalize:
        monitor.finalize()
    return monitor
