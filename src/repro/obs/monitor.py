"""Online LTLf conformance monitoring of strict correctness.

The paper's Definition 2 (strict correctness: completeness, recovery
safety, normal-service safety, spec consistency) is checked after the
fact by the epoch audit (:mod:`repro.core.axioms`) and, in the fuzzer,
by the independent heal verifier (:mod:`repro.lint`).  Both leave a
gap: a run that *violates* strict correctness mid-recovery — a heal
that undoes a task outside any heal bracket, a redo committed before
its undo, a corrupted-region task the heal decided and silently left
standing — is invisible until the run ends.  This module closes that
gap with runtime verification: Definition 2 is encoded as
**finite-trace linear temporal logic** (LTLf, after "An LTL Semantics
of Business Workflows with Recovery", PAPERS.md) and evaluated
*online* over the typed :mod:`repro.obs.events` stream, and *offline*
over flight logs with bit-identical verdicts.

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
   formula per process; the pack's formulas are built once per
   process, :func:`pack_formulas`).
   Verdicts are the four RV-LTL values (:class:`Verdict`): a state of
   ``TRUE``/``FALSE`` is irrevocably satisfied/violated; otherwise the
   empty-suffix evaluation (:func:`eval_empty`) splits the undecided
   states into presumably-true / presumably-false.

2. **The Definition 2 property pack** (:func:`strict_property_pack`) —
   heal-bracket alternation, per-task undo/redo lifecycle obligations
   on the heal's own Theorem 1/2 decisions, Theorem 3 order
   consistency of the healer's realized undos and redos, and the
   normal-service gate, each a :class:`LtlProperty` or a parametric
   :class:`SlicedLtlProperty` (one automaton per task uid or per order
   edge — classic trace slicing).

3. **The wiring** — :class:`ConformanceMonitor` subscribes the pack to
   an :class:`~repro.obs.events.EventBus`, emits one typed
   :class:`~repro.obs.events.ConformanceViolation` per failed property
   instance, and :func:`replay_conformance` re-derives the exact same
   violation stream from a recorded flight log (replay identity is
   pinned by tests).  :class:`~repro.obs.health.HealthMonitor` embeds a
   ConformanceMonitor and surfaces its verdict as the third
   ``conformance`` SLO.

Routing is compiled once per monitor: each property gives its handlers
by event type (``routes()``), each stepping its shared table on a
letter masked when the pack was built, and the monitor merges them
into one table, event type → handlers in pack order.  An event is
looked up by ``type(event)`` once and runs only its type's handlers;
an honest event builds no letter and allocates nothing.

The monitor is a pure function of the event sequence: it never reads a
clock, never draws randomness, and stamps every violation with the
triggering event's time (end-of-trace obligations with the last seen
time).  Feeding the same events in the same order — online through a
bus or offline from a flight log — always produces the same verdicts.

Soundness notes (why an honest run is monitor-clean):

- the Theorem 1/2 decisions are the heal's own: a scan decides nothing,
  and the batch heal publishes the decisions of the closure it executes
  inside its ``HealStarted`` bracket, before its first undo.  Every uid
  it decides definitely undone (T1.1/T1.3) is a closure member, undone
  in Phase A, so ``F undone`` holds; every uid it decides definitely
  redone (T2.1) is a closure member that Phase B either redoes at its
  log position or abandons (a forged run's record, or a record a
  stale-read redo's re-decided branch no longer reaches), so
  ``F (redone ∨ abandoned)`` holds;
- heals are bracketed by ``HealStarted``/``HealFinished``:
  ``EpochManager.heal`` publishes the pair whenever its bus is active,
  so every heal the system commits is bracketed;
- the Theorem 3 edges are the heal's own: it publishes the order of
  the batch it runs right after its decisions, so every edge names
  actions of that heal, which realizes them in Phase A (undos newest
  first) and Phase B (redos in log order).

So the executed closure's blast radius is monitored: a heal that
decides a member and never undoes it, or decides a redo it never runs
(the ``--inject drop-undo``/``extra-redo`` faults), is caught by the
lifecycle properties, online, and end to end by the audit.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
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
    Union,
)

from repro.obs.events import (
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
    realized_action,
)

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
    "strict_property_pack",
    "pack_formulas",
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
    is a bitmask over the sorted atom alphabet (:meth:`mask`; atoms
    outside it are ignored), and ``state * 2**len(alphabet) + mask``
    indexes the transition.  The property pack masks its letters once,
    when it is built, so a step is one table lookup.  A miss fills the
    entry by calling :func:`progress` on the state's formula and the
    mask's letter (:meth:`letter`), so the table never disagrees with
    progression.

    One table serves every automaton and slice of its formula in the
    process (:func:`monitor_dfa`), across tenants.
    """

    __slots__ = ("formula", "alphabet", "initial", "states", "verdicts",
                 "final", "decided", "_bits", "_width", "_ids", "_table")

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
        self.initial = self._intern(formula)

    def mask(self, letter: Mapping[str, bool]) -> int:
        """``letter`` as a bitmask over the sorted alphabet."""
        mask = 0
        for atom, bit in self._bits:
            if letter.get(atom, False):
                mask |= bit
        return mask

    def letter(self, mask: int) -> Dict[str, bool]:
        """The letter of ``mask``: each alphabet atom's truth value."""
        return {atom: bool(mask & bit) for atom, bit in self._bits}

    def step(self, state: int, mask: int) -> int:
        """The successor of state id ``state`` on the letter ``mask``."""
        key = state * self._width + mask
        nxt_state = self._table.get(key)
        if nxt_state is None:
            nxt_state = self._intern(
                progress(self.states[state], self.letter(mask)))
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


def monitor_dfa(formula: Formula) -> MonitorDfa:
    """The process-wide :class:`MonitorDfa` of ``formula`` (structurally
    equal formulas share one).  Tables live as long as the process: the
    property pack has seven formulas, and each table holds only the
    states its traces reached."""
    dfa = _DFAS.get(formula)
    if dfa is None:
        dfa = _DFAS[formula] = MonitorDfa(formula)
    return dfa


class MonitorAutomaton:
    """One run of a formula's monitor: its shared :class:`MonitorDfa`
    (given, or looked up by the formula) and the current state id.

    Every automaton of a formula steps the same per-process table, so a
    property pays for each (state, letter) progression once per process
    rather than once per tenant or slice.  Letters may carry atoms
    outside the formula's alphabet; they are ignored.
    """

    __slots__ = ("dfa", "sid")

    def __init__(self, formula: Union[Formula, MonitorDfa]) -> None:
        self.dfa = (formula if isinstance(formula, MonitorDfa)
                    else monitor_dfa(formula))
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
        return self.step_mask(self.dfa.mask(letter))

    def step_mask(self, mask: int) -> Verdict:
        """Consume one letter given as its :meth:`MonitorDfa.mask`."""
        self.sid = self.dfa.step(self.sid, mask)
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


@cache
def pack_formulas() -> Dict[str, Formula]:
    """The LTLf formula of each pack property, by name, built once per
    process: a fleet builds one pack per tenant, and building and
    hashing the formulas would cost more than the pack's tables."""
    hs, hf, act = prop("hs"), prop("hf"), prop("act")
    before, after = prop("before"), prop("after")
    return {
        "heal-alternation": land(
            # No finish before the first start...
            weak_until(lnot(hf), hs),
            # ...every start is eventually finished, with no nested
            # start;
            always(implies(hs, nxt(until(lnot(hs), hf)))),
            # ...and after a finish, no second finish before the next
            # start.
            always(implies(hf, wnext(weak_until(lnot(hf), hs)))),
        ),
        "task-within-heal": land(
            weak_until(lnot(act), hs),
            always(implies(hf, wnext(weak_until(lnot(act), hs)))),
        ),
        "normal-refusal": always(lnot(prop("bad"))),
        "undo-completeness": eventually(prop("undone")),
        "redo-follow-through": eventually(prop("done")),
        "undo-before-redo": weak_until(lnot(prop("redo")), prop("undone")),
        "order-consistency": lor(
            always(lnot(before)),
            always(lnot(after)),
            eventually(land(before, eventually(after))),
        ),
    }


@cache
def _pack_dfa(name: str) -> MonitorDfa:
    """The shared table of one pack property's formula, found once per
    process (a formula's hash walks all of it)."""
    return monitor_dfa(pack_formulas()[name])


#: One handler of the compiled pack: ``None`` (the honest-run case,
#: which allocates nothing) or the findings the event triggered.
Handler = Callable[[ObsEvent], Optional[List[Finding]]]


class _Property:
    """What the pack's properties share: a name, and one handler per
    event type they read.

    :meth:`routes` is the property's compiled form.  Each handler knows
    its event type, so it reads the fields it needs and steps its
    automaton on a letter masked when the property was built; nothing
    is tested or allocated per event on an honest run.  The dict is
    built on each call and held by the caller, so a property never
    references its own bound methods (no reference cycle per tenant).
    """

    name: str

    def routes(self) -> Dict[type, Handler]:
        """Event type → this property's handler for it."""
        raise NotImplementedError

    @property
    def reads(self) -> Tuple[type, ...]:
        """The event types this property reads (:meth:`routes`'s
        keys); :class:`ConformanceMonitor` routes only those here."""
        return tuple(self.routes())

    def consume(self, event: ObsEvent) -> List[Finding]:
        """Feed one event of any type: the property's findings on it,
        through the same handler the monitor routes it to."""
        handler = self.routes().get(type(event))
        found = handler(event) if handler is not None else None
        return list(found) if found else []

    def finalize(self) -> List[Finding]:
        """Close the trace: the findings of unresolved obligations."""
        raise NotImplementedError


class LtlProperty(_Property):
    """One LTLf formula (given by its shared table ``dfa``) evaluated
    over a projection of the stream.

    ``letters`` maps each event type the property reads to its trace
    letter: a dict of atom truth values, masked once here, or a
    function of the event that returns one (for letters that depend on
    a field).  Events of other types are skipped entirely, so each
    property reads its own subsequence of the run (projection
    semantics; identical online and offline).  A violated property
    reports once and goes quiet.
    """

    def __init__(
        self,
        name: str,
        dfa: MonitorDfa,
        letters: Mapping[
            type,
            Union[Mapping[str, bool],
                  Callable[[ObsEvent], Mapping[str, bool]]],
        ],
        describe: Optional[Callable[[ObsEvent], str]] = None,
    ) -> None:
        self.name = name
        self.automaton = MonitorAutomaton(dfa)
        self._masks = {
            cls: letter if callable(letter) else dfa.mask(letter)
            for cls, letter in letters.items()
        }
        self._describe = describe
        self.violated = False

    def routes(self) -> Dict[type, Handler]:
        return {
            cls: partial(self._step_on if callable(mask) else self._step,
                         mask)
            for cls, mask in self._masks.items()
        }

    def _step_on(self, letter_of: Callable[[ObsEvent], Mapping[str, bool]],
                 event: ObsEvent) -> Optional[List[Finding]]:
        return self._step(self.automaton.dfa.mask(letter_of(event)), event)

    def _step(self, mask: int, event: ObsEvent) -> Optional[List[Finding]]:
        if self.violated:
            return None
        automaton = self.automaton
        dfa = automaton.dfa
        # MonitorDfa.step, inlined: the hit is one lookup.
        sid = dfa._table.get(automaton.sid * dfa._width + mask)
        if sid is None:
            sid = dfa.step(automaton.sid, mask)
        automaton.sid = sid
        if dfa.verdicts[sid] is not Verdict.VIOLATED:
            return None
        self.violated = True
        detail = (self._describe(event) if self._describe
                  else f"{event.kind} at t={event.time:g}")
        return [Finding(self.name, Verdict.VIOLATED.value, "", detail)]

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


class SlicedLtlProperty(_Property):
    """A parametric property: one state per *slice* (task uid, order
    edge, ...) of the formula's shared :class:`MonitorDfa` ``dfa``.

    A slice is just its current state id in :attr:`slices`; spawning one
    stores :attr:`MonitorDfa.initial`, so slices of every tenant step
    one per-process table and nothing is built per slice.  Subclasses
    give the handlers (:meth:`routes`), which spawn slices
    (:meth:`_spawn`, ignored when the key is already live or decided)
    and step them on masked letters (:meth:`_step`).

    A slice that reaches a *decided* verdict stays decided for the rest
    of the trace — a satisfied obligation cannot be re-opened by a
    later event that would respawn its key (a task undone-then-redone
    in one heal must not start a fresh redo-before-undo slice when a
    later heal redoes it again), and a violated slice reports exactly
    once.  At finalize, every still-live slice resolves by its
    empty-suffix verdict.
    """

    def __init__(
        self,
        name: str,
        dfa: MonitorDfa,
        finally_detail: str = "unresolved obligation at end of trace",
    ) -> None:
        self.name = name
        self._dfa = dfa
        self.formula = dfa.formula
        #: Live slice key -> state id of :attr:`_dfa`.
        self.slices: Dict[str, int] = {}
        self._decided: set = set()
        self._finally_detail = finally_detail
        self.violations = 0

    def _spawn(self, key: str) -> None:
        if key not in self.slices and key not in self._decided:
            self.slices[key] = self._dfa.initial

    def _step(self, key: str, mask: int,
              event: ObsEvent) -> Optional[List[Finding]]:
        slices = self.slices
        state = slices.get(key)
        if state is None:
            return None
        dfa = self._dfa
        # MonitorDfa.step, inlined: the hit is one lookup.
        nxt_state = dfa._table.get(state * dfa._width + mask)
        state = (nxt_state if nxt_state is not None
                 else dfa.step(state, mask))
        if not dfa.decided[state]:
            slices[key] = state
            return None
        del slices[key]
        self._decided.add(key)
        if dfa.verdicts[state] is not Verdict.VIOLATED:
            return None
        self.violations += 1
        return [Finding(self.name, Verdict.VIOLATED.value, key,
                        f"{event.kind} at t={event.time:g}")]

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


def _heal_alternation() -> LtlProperty:
    return LtlProperty(
        "heal-alternation", _pack_dfa("heal-alternation"),
        {HealStarted: {"hs": True}, HealFinished: {"hf": True}},
        describe=lambda e: (
            f"{e.kind} at t={e.time:g} breaks the "
            f"HealStarted/HealFinished alternation"
        ),
    )


def _task_within_heal() -> LtlProperty:
    return LtlProperty(
        "task-within-heal", _pack_dfa("task-within-heal"),
        {HealStarted: {"hs": True}, HealFinished: {"hf": True},
         TaskUndone: {"act": True}, TaskRedone: {"act": True}},
        describe=lambda e: (
            f"{e.kind}({getattr(e, 'uid', '?')}) at t={e.time:g} "
            f"outside any HealStarted/HealFinished bracket"
        ),
    )


def _normal_refusal() -> LtlProperty:
    return LtlProperty(
        "normal-refusal", _pack_dfa("normal-refusal"),
        {NormalTaskRefused: lambda e: {"bad": e.state == "NORMAL"}},
        describe=lambda e: (
            f"normal task refused at t={e.time:g} while the system "
            f"reports NORMAL — Theorem 4's gate fired without cause"
        ),
    )


class _UndoCompleteness(SlicedLtlProperty):
    """Per uid decided definitely undone (T1.1/T1.3): ``F undone``."""

    def __init__(self) -> None:
        super().__init__(
            "undo-completeness", _pack_dfa("undo-completeness"),
            finally_detail=(
                "uid decided definitely-undone (Theorem 1.1/1.3) was "
                "never undone before the trace ended"
            ),
        )
        self._undone = self._dfa.mask({"undone": True})

    def routes(self) -> Dict[type, Handler]:
        return {UndoDecision: self._on_decision, TaskUndone: self._on_undone}

    def _on_decision(self, event: UndoDecision) -> None:
        if event.condition in DEFINITE_UNDO_CONDITIONS:
            self._spawn(event.uid)

    def _on_undone(self, event: TaskUndone) -> Optional[List[Finding]]:
        return self._step(event.uid, self._undone, event)


class _RedoFollowThrough(SlicedLtlProperty):
    """Per uid decided definitely redone (T2.1): ``F (redone ∨
    abandoned)``."""

    def __init__(self) -> None:
        super().__init__(
            "redo-follow-through", _pack_dfa("redo-follow-through"),
            finally_detail=(
                "uid decided definitely-redone (Theorem 2.1) was neither "
                "redone nor abandoned before the trace ended"
            ),
        )
        self._done = self._dfa.mask({"done": True})

    def routes(self) -> Dict[type, Handler]:
        return {RedoDecision: self._on_decision,
                TaskRedone: self._on_redone, TaskUndone: self._on_undone}

    def _on_decision(self, event: RedoDecision) -> None:
        if event.condition in DEFINITE_REDO_CONDITIONS:
            self._spawn(event.uid)

    def _on_redone(self, event: TaskRedone) -> Optional[List[Finding]]:
        return self._step(event.uid, self._done, event)

    def _on_undone(self, event: TaskUndone) -> Optional[List[Finding]]:
        if event.reason != "abandoned":
            return None
        return self._step(event.uid, self._done, event)


class _UndoBeforeRedo(SlicedLtlProperty):
    """Per uid: ``¬redo W undone`` — no re-execution before an undo."""

    def __init__(self) -> None:
        super().__init__(
            "undo-before-redo", _pack_dfa("undo-before-redo"),
            finally_detail="re-execution without a prior undo",
        )
        self._undone = self._dfa.mask({"undone": True})
        self._redo = self._dfa.mask({"redo": True})

    def routes(self) -> Dict[type, Handler]:
        return {TaskUndone: self._on_undone, TaskRedone: self._on_redone}

    def _on_undone(self, event: TaskUndone) -> Optional[List[Finding]]:
        self._spawn(event.uid)
        return self._step(event.uid, self._undone, event)

    def _on_redone(self, event: TaskRedone) -> Optional[List[Finding]]:
        if event.mode != "redo":
            return None
        self._spawn(event.uid)
        return self._step(event.uid, self._redo, event)


class _OrderConsistency(SlicedLtlProperty):
    """Theorem 3 edges vs the order the healer realized.

    One slice per published :class:`OrderConstraint` edge, keyed
    ``"before < after"``.  Each heal publishes the edges of its own
    batch's order inside its ``HealStarted`` bracket, before its first
    undo, and a slice steps only on actions after its edge arrived.
    The realized schedule is the healer's own undo operations and
    log-position redos (:func:`~repro.obs.events.realized_action`);
    disposition notes and new-path executions are not actions of any
    order.  Action strings are *not* heal-qualified: a long run heals
    many batches, and an earlier heal may legitimately realize an
    action with the same string as a later edge's ``after``, so the
    naive ``¬after W before`` would false-positive.  The alias-robust
    encoding instead demands that *some* ``before`` is (weakly)
    followed by *some* ``after`` — or that one of the two never
    happens at all: ``G ¬before ∨ G ¬after ∨ F(before ∧ F after)``.
    An edge whose ``before`` is never realized orders nothing, and an
    honest heal can leave one so: a definite redo of its batch (no bad
    controller in the closure) is abandoned when a stale-read redo
    (Theorem 1 condition 4) of a task outside the closure re-decides
    the branch that controls it, so the redo's T3.1 edges name a
    ``before`` the heal never runs.  A missing undo or redo is the
    completeness properties' finding, not this one's.  A heal that
    commits an undo after its redo (the
    ``reverse-edge`` fault injection) leaves the ``after`` strictly
    ahead of every ``before`` and resolves to ``finally-violated`` when
    the trace closes.  An index from action string to its edges' keys
    and letters keeps routing linear in the actions actually
    constrained.
    """

    def __init__(self) -> None:
        super().__init__(
            "order-consistency", _pack_dfa("order-consistency"),
            finally_detail=(
                "both actions of the edge were realized, and no "
                "realization of the later one ever followed the earlier"
            ),
        )
        mask = self._dfa.mask
        self._before = mask({"before": True})
        self._after = mask({"after": True})
        self._both = mask({"before": True, "after": True})
        self._edges: set = set()
        #: Action string -> (edge key, the action's letter on it).
        self._by_action: Dict[str, List[Tuple[str, int]]] = {}

    def routes(self) -> Dict[type, Handler]:
        return {OrderConstraint: self._on_edge,
                TaskUndone: self._on_action, TaskRedone: self._on_action}

    def _on_edge(self, event: OrderConstraint) -> None:
        key = f"{event.before} < {event.after}"
        if key not in self._edges:
            self._edges.add(key)
            index = self._by_action
            if event.after == event.before:
                index.setdefault(event.before, []).append((key, self._both))
            else:
                index.setdefault(event.before, []).append(
                    (key, self._before))
                index.setdefault(event.after, []).append((key, self._after))
        if key not in self.slices and key not in self._decided:
            self.slices[key] = self._dfa.initial  # _spawn, inlined

    def _on_action(self, event: ObsEvent) -> Optional[List[Finding]]:
        edges = self._by_action.get(realized_action(event))  # type: ignore[arg-type]
        if not edges:
            return None
        out: Optional[List[Finding]] = None
        for key, mask in edges:
            found = self._step(key, mask, event)
            if found:
                out = found if out is None else out + found
        return out


def strict_property_pack() -> List[Any]:
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
    order-consistency           per T3 edge: ``G ¬before ∨ G ¬after
                                ∨ F(before ∧ F after)``
    ==========================  ============================================

    Strict correctness is the one Section III-D strategy the system
    runs, so every monitor checks all seven properties.
    """
    return [
        _heal_alternation(),
        _task_within_heal(),
        _normal_refusal(),
        _UndoCompleteness(),
        _RedoFollowThrough(),
        _UndoBeforeRedo(),
        _OrderConsistency(),
    ]


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
    bit-identical.  The pack is compiled once per monitor into one
    table, event type → the handlers of the properties that read it
    (:meth:`_Property.routes`), in pack order, so the violation order
    is the same as feeding every property every event.  :meth:`consume`
    looks an event's type up once and calls those handlers, and an
    honest event allocates nothing.
    """

    #: Event types the property pack reads; subscription is typed so an
    #: attached monitor never sees unrelated traffic (or its own
    #: violations).
    CONSUMES = (
        HealStarted, HealFinished, TaskUndone, TaskRedone,
        NormalTaskRefused, UndoDecision, RedoDecision, OrderConstraint,
    )

    def __init__(self) -> None:
        self.properties = strict_property_pack()
        self.violations: List[ConformanceViolation] = []
        self.now = 0.0
        self.events_seen = 0
        self.finalized = False
        #: The bus it publishes on, held weakly: the bus holds
        #: :meth:`handle`, so a strong reference would be a cycle.
        self._bus: Optional["weakref.ReferenceType[EventBus]"] = None
        routes: Dict[type, List[Handler]] = {}
        for prop_ in self.properties:
            for cls, handler in prop_.routes().items():
                routes.setdefault(cls, []).append(handler)
        #: Event type -> the handlers that read it, in pack order.
        self._routes: Dict[type, Tuple[Handler, ...]] = {
            cls: tuple(handlers) for cls, handlers in routes.items()
        }

    @property
    def violation_count(self) -> int:
        """Total violations so far (the conformance SLO's value)."""
        return len(self.violations)

    def attach(self, bus: EventBus) -> "ConformanceMonitor":
        """Subscribe to ``bus`` and publish violations back onto it;
        returns self for chaining.  The caller keeps the bus alive."""
        self._bus = weakref.ref(bus)
        bus.subscribe(self.handle, types=self.CONSUMES)
        return self

    def handle(self, event: ObsEvent) -> None:
        """Bus entry point: consume and publish any violations."""
        bus = self._bus() if self._bus is not None else None
        for violation in self.consume(event):
            if bus is not None:
                bus.publish(violation)

    def consume(self, event: ObsEvent) -> Sequence[ConformanceViolation]:
        """Feed one event through every property that reads its type;
        returns (and records) the violations it triggered."""
        time = event.time
        if time > self.now:
            self.now = time
        self.events_seen += 1
        out: Sequence[ConformanceViolation] = ()
        for handler in self._routes.get(type(event), ()):
            found = handler(event)
            if found:
                out = [*out, *(self._violation(time, f) for f in found)]
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
        bus = self._bus() if self._bus is not None else None
        out: List[ConformanceViolation] = []
        for prop_ in self.properties:
            for finding in prop_.finalize():
                violation = self._violation(stamp, finding)
                out.append(violation)
                if bus is not None:
                    bus.publish(violation)
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
            "violations": self.violation_count,
            "by_property": dict(sorted(by_property.items())),
            "pending_obligations": pending,
            "events_seen": self.events_seen,
            "finalized": self.finalized,
        }


def replay_conformance(
    events: Sequence[ObsEvent], finalize: bool = True,
) -> ConformanceMonitor:
    """Re-derive conformance verdicts offline from recorded events.

    Feeds every event through a fresh :class:`ConformanceMonitor`
    (recorded :class:`ConformanceViolation` events are skipped — they
    are the monitor's own output; other derived kinds are outside
    :attr:`ConformanceMonitor.CONSUMES` and ignore themselves) and
    optionally finalizes.  Because the monitor is a pure function of
    the event sequence, the replayed violation stream equals the online
    one exactly — compare :attr:`ConformanceMonitor.violations` against
    the recorded events to pin replay identity.
    """
    monitor = ConformanceMonitor()
    for event in events:
        if isinstance(event, ConformanceViolation):
            continue
        if isinstance(event, monitor.CONSUMES):
            monitor.consume(event)
    if finalize:
        monitor.finalize()
    return monitor
