"""Tier 3: decide which compiled-in checks a promoted site can drop.

Tier 2 compiles a warm call plan into a straight-line wrapper that still
*performs* every per-call safety operation: the check-cache membership
probe, the argument-profile guard and the checked-frame push/pop.
Tier 3 statically discharges the operations it proves redundant at
promotion time, so the wrapper *omits* them.

Per compiled entry the :class:`Elider` produces an :class:`Elision`
verdict with three independent switches:

``cache_guard``
    The wrapper's ``key in cache`` membership probe re-validates the
    memoized static check on every call.  Every *engine-mediated*
    removal of that derivation (redefinition, retype, hierarchy change)
    also drops the call plan — ``Engine.invalidate`` and the change
    hooks flush plans by cache key — so the wrapper's plan-liveness
    guard already covers it and the probe is provably redundant.  (A
    direct ``CheckCache.clear()`` bypassing the engine is a memo flush,
    not a world mutation: replaying the still-valid derivation is
    sound, it just re-checks lazily instead of eagerly.)

``arg_check``
    When some signature arm accepts the site's arity with *vacuous*
    parameter types (``%any``/type variables), the dynamic argument
    check passes for every value — only the arity needs guarding.  At a
    compiled kwargs-layout site even the arity test is dead on the
    keyword path: the layout *constructs* the full positional view, so
    its length is a compile-time constant.

``frame``
    The checked-frame push/pop exists so intercepted *callees* can see
    whether their caller's body was statically checked.  A body that
    can never re-enter intercepted code has no reader — the frame is
    dead and the ``try/finally`` around the call is dropped.  The proof
    is the JIT checker's own walk (:mod:`repro.core.checker` records
    where a body might re-enter), run by :func:`prove_frame` with every
    parameter no guard pins typed ``%any``: declared parameter types
    are not enforced on every call, so only a guard makes them facts.

A frame verdict may hold only *under a pinned profile* (the body is
safe when ``n`` is an Integer, not for arbitrary ``n``).  Then the
verdict carries ``guard_profiles``: up to :data:`TOP_K_PROFILES` learned
class chains, each independently re-proving the frame, compiled as an
**unconditional** OR-of-chains guard — no copy-on-write fallback set, a
miss on every chain bails to the generic path — so the pinned facts
hold on every call that runs the elided body.  A chain slot may be
``None`` (no pin for that position): the layout pseudo-profile pins
only the slots a stable kwargs layout binds to declared defaults, and
then ``chain_conforms`` is False — the chain pins classes for the proof
but does not certify argument *conformance*, so the wrapper keeps its
profile membership test.  A verdict that already holds seed-free needs
no pin and keeps serving every learned profile.

Soundness: every fact a verdict read — the checker run's signature
slots with negative probes, field slots, linearizations, and the site's
own ``("ir", owner, name)`` body edge — is merged into the site's
plan-dependency edges **before** the wrapper is installed
(:meth:`CallPlanCache.add_resources`), so mutating any of them deopts
the elided site exactly like a tier-2 plan.  The
``REPRO_DISABLE_ELIDE=1`` escape hatch (and ``EngineConfig.elide``)
turns the stage off, leaving tier 2 untouched.

Every decision — elided or refused — is also explainable:
:meth:`Elider.audit_site` re-derives the verdict for a warm site and
returns a :class:`SiteAudit` naming, per check-op kind, whether it was
proved (seed-free or pinned), inapplicable, or blocked, and on what
(``whitelist_miss``, ``opaque_code``, ``type_error``, ``no_ir``,
``contract``).  ``python -m repro.ril.audit`` aggregates these over
every promoted site.
"""

from __future__ import annotations

import os
from typing import (
    TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..rdl.registry import INSTANCE
from ..ril.registry import MethodIR, RegistrationError
from ..rtypes import (
    ANY, BOOL, NIL, AnyType, IntersectionType, MethodType, NominalType,
    SelfType, Type, UnionType, VarType, VarargParam, array_of,
)
from ..rtypes.typeof import rdl_class_name
from .checker import Blocker
from .deps import Resource, ir_resource, lin_resource
from .errors import StaticTypeError, TypeSignatureError
from .plans import ARG_CHECK_NEVER, CallPlan, PlanKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine

#: learned argument profiles the elider tries to prove under (and the
#: wrapper pins) per site.  Hottest first; chains beyond the first only
#: survive when they re-prove everything the first one proved.
TOP_K_PROFILES = 3

#: the per-call check operations a verdict rules on, in report order.
CHECK_KINDS = ("cache_guard", "arg_check", "frame")

#: audit statuses.
PROVED = "proved"              # elidable with no profile pin
PROVED_PINNED = "proved_pinned"  # elidable under the pinned chain(s)
NOT_APPLICABLE = "not_applicable"  # the check never runs at this site
BLOCKED = "blocked"            # provability failed; reasons attached

#: blocker codes beside the checker's frame codes (``whitelist_miss``,
#: ``opaque_code``): a registered contract pins the site to the generic
#: wrapper; the checker rejected the body under tier 3's parameter
#: types; no lowered body exists.
BLOCK_CONTRACT = "contract"
BLOCK_TYPE_ERROR = "type_error"
BLOCK_NO_IR = "no_ir"


def elide_disabled_by_env() -> bool:
    """True when ``REPRO_DISABLE_ELIDE`` disables tier-3 elision."""
    return os.environ.get("REPRO_DISABLE_ELIDE", "") not in (
        "", "0", "false", "no")


def is_vacuous(t: Type) -> bool:
    """True when ``value_conforms(v, t, ...)`` holds for *every* value.

    ``SelfType`` is vacuous because the dynamic check resolves it to
    True unconditionally (``value_conforms``'s Self rule).
    """
    if isinstance(t, (AnyType, VarType, SelfType)):
        return True
    if isinstance(t, UnionType):
        return any(is_vacuous(a) for a in t.arms)
    if isinstance(t, IntersectionType):
        return all(is_vacuous(a) for a in t.arms)
    return False


class FrameProof(NamedTuple):
    """One checker run's frame verdict: ``frame_elidable`` when the walk
    met no blocker, the ``resources`` it read, and its ``blockers``."""

    frame_elidable: bool
    resources: Tuple[Resource, ...]
    blockers: Tuple[Blocker, ...]


def _pin_type(name: str) -> Type:
    if name == "NilClass":
        return NIL
    if name == "Boolean":
        return BOOL
    return NominalType(name)


def prove_frame(engine: "Engine", mir: MethodIR, recv_owner: str,
                pins: Optional[Sequence[Optional[str]]] = None,
                arms: Optional[List[MethodType]] = None) -> FrameProof:
    """Run the checker over ``mir`` for receiver class ``recv_owner``.

    ``pins`` gives an RDL class name (or ``None``) per fixed parameter:
    a pinned parameter is typed by its exact class, every other one
    ``%any``.  ``arms`` are the signature arms to walk (an untyped
    ``(*%any) -> %any`` arm when omitted).  A rejection blocks the
    frame with ``type_error``; nothing is raised.
    """
    params: Dict[str, Type] = {}
    fixed = [p for p in mir.params if not p.vararg]
    for i, p in enumerate(fixed):
        pin = pins[i] if pins is not None and i < len(pins) else None
        params[p.name] = ANY if pin is None else _pin_type(pin)
    for p in mir.params:
        if p.vararg:
            params[p.name] = array_of(ANY)  # a host tuple, items unknown
    if not arms:
        arms = [MethodType((VarargParam(ANY),), None, ANY)]
    try:
        with engine.hier.trace() as reads:
            outcome = engine.checker.check_method(
                mir, arms, NominalType(recv_owner), params)
    except (StaticTypeError, TypeSignatureError) as exc:
        return FrameProof(False, (), ((BLOCK_TYPE_ERROR, str(exc)),))
    resources = outcome.trace + [lin_resource(cls) for cls in sorted(reads)]
    return FrameProof(not outcome.blockers,
                      tuple(dict.fromkeys(resources)),
                      tuple(outcome.blockers))


class Elision:
    """What one compiled entry may omit, and the facts that justify it."""

    __slots__ = ("cache_guard", "frame", "arg_check", "guard_profiles",
                 "chain_conforms", "arity", "count", "resources")

    def __init__(self, *, cache_guard: bool, frame: bool, arg_check: bool,
                 guard_profiles: Optional[Tuple[tuple, ...]],
                 chain_conforms: bool, arity: Optional[int],
                 resources: Tuple[Resource, ...]) -> None:
        self.cache_guard = cache_guard
        self.frame = frame
        self.arg_check = arg_check
        #: class chains to pin unconditionally (OR of chains; a ``None``
        #: slot inside a chain means "no pin for this position"), or
        #: ``None`` when every verdict holds seed-free.
        self.guard_profiles = guard_profiles
        #: whether a matched chain also certifies argument conformance
        #: (learned profiles do; the layout pseudo-profile pins classes
        #: for the frame proof only, so the profile test stays).
        self.chain_conforms = chain_conforms
        #: arity to guard when ``arg_check`` is elided without a pinned
        #: profile chain (the chain already fixes the length).
        self.arity = arity
        #: per-call check operations the wrapper omits — what the
        #: ``checks_elided`` counter advances by on every elided call.
        self.count = int(cache_guard) + int(frame) + int(arg_check)
        self.resources = resources

    @property
    def guard_profile(self) -> Optional[tuple]:
        """The hottest pinned chain (compat accessor for single-chain
        consumers; ``None`` when nothing is pinned)."""
        return self.guard_profiles[0] if self.guard_profiles else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Elision(cache_guard={self.cache_guard}, "
                f"frame={self.frame}, arg_check={self.arg_check}, "
                f"pinned={len(self.guard_profiles or ())})")


class SiteAudit:
    """Per-site provability report: one status (and blocking reasons)
    per check-op kind, as derived by :meth:`Elider.audit_site`."""

    __slots__ = ("key", "checks", "pinned", "blockers")

    def __init__(self, key: PlanKey) -> None:
        self.key = key
        #: kind -> (status, reasons); reasons is a tuple of blocker
        #: codes, empty unless status is BLOCKED.
        self.checks: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        #: number of pinned guard chains (0 = seed-free or refused).
        self.pinned = 0
        #: every (code, detail) blocker the frame proofs met, for the
        #: verbose audit listing.
        self.blockers: Tuple[Blocker, ...] = ()

    def proved(self, kind: str, *, pinned: bool = False) -> None:
        self.checks[kind] = (PROVED_PINNED if pinned else PROVED, ())

    def skipped(self, kind: str) -> None:
        self.checks[kind] = (NOT_APPLICABLE, ())

    def blocked(self, kind: str, reasons: Tuple[str, ...]) -> None:
        self.checks[kind] = (BLOCKED, reasons or ("unproved",))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = ", ".join(f"{k}={v[0]}" for k, v in self.checks.items())
        return f"SiteAudit({self.key!r}: {bits})"


def _fixed_arity(arms) -> Optional[int]:
    """The single arity every arm requires, or ``None``."""
    arity: Optional[int] = None
    for arm in arms:
        lo, hi = arm.min_arity(), arm.max_arity()
        if hi is None or lo != hi or (arity is not None and lo != arity):
            return None
        arity = lo
    return arity


def _contract_blocks(engine: "Engine", name: str) -> bool:
    """Whether a registered contract forces ``name`` to stay generic.

    Contract hooks resolve per (receiver class, method name) with an
    MRO walk, so any contract anywhere on the *name* may fire for some
    receiver of a promoted site — those sites stay on the generic
    wrapper.  Other names promote freely: a metaprogramming contract on
    ``attr_accessor`` must not veto tier 2 for the whole application.
    """
    store = engine._contracts
    if not store:
        return False
    return any(n == name for (_cls, n) in store)


def _layout_pseudo_profile(
        layout: Tuple[int, tuple]) -> Optional[Tuple[Optional[type], ...]]:
    """The partial class chain a stable kwargs layout pins, or ``None``
    when it binds no defaulted slot.

    ``BoundDefault`` slots are filled with a def-time constant by the
    compiled reorder, so their classes are known without any learned
    profile; every other slot stays unpinned (``None``).  The chain is
    sound on the positional path too — there the emitted type tests
    actually guard — so it needs no kw-path condition.
    """
    npos, names = layout
    chain: List[Optional[type]] = [None] * npos
    pinned = False
    for n in names:
        if n.__class__ is str:
            chain.append(None)
        else:  # BoundDefault
            chain.append(type(n.value))
            pinned = True
    if not pinned:
        return None
    return tuple(chain)


class Elider:
    """Per-engine tier-3 stage, invoked by the specializer at promotion.

    Runs under the engine's writer lock (the promotion already holds
    it), so the world it analyzes is the world the wrapper is compiled
    against; the plan-edge merge then extends that atomicity to the
    installed wrapper's lifetime.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: warm-start seeds: key -> (plan, verdict) installed by the
        #: snapshot restore just before it asks the specializer to
        #: promote eagerly.  Consumed (popped) on first analyze; the
        #: plan identity check rejects a seed left for a site whose
        #: plan was dropped and rebuilt in between.
        self._seeds: Dict[PlanKey, Tuple[CallPlan, Elision]] = {}

    def seed(self, key: PlanKey, plan: CallPlan, elision: Elision) -> None:
        """Install a restored verdict for ``key``; the next ``analyze``
        for the same live plan returns it instead of re-deriving.  The
        caller (the snapshot restore) has already re-validated every
        ``("ir", ...)`` resource's fingerprint against the live CFG
        registry — a stale verdict never reaches here."""
        self._seeds[key] = (plan, elision)

    def analyze(self, key: PlanKey, plan: CallPlan, fn) -> Optional[Elision]:
        if self._seeds:
            seeded = self._seeds.pop(key, None)
            if seeded is not None and seeded[0] is plan:
                return seeded[1]
        return self._decide(key, plan, fn)[0]

    def audit_site(self, key: PlanKey, plan: CallPlan, fn) -> SiteAudit:
        """Re-derive the verdict for a live site purely for reporting
        (never consumes snapshot seeds, never installs anything)."""
        return self._decide(key, plan, fn)[1]

    def _decide(self, key: PlanKey, plan: CallPlan,
                fn) -> Tuple[Optional[Elision], SiteAudit]:
        engine = self.engine
        audit = SiteAudit(key)
        def_owner, recv_owner, name, kind = key
        if kind != INSTANCE:
            # Class-method receivers are class objects; the frame proof
            # models instance-typed self only.
            for ck in CHECK_KINDS:
                audit.skipped(ck)
            return None, audit
        sig = plan.sig
        arms = list(sig.intersection()) if sig is not None else []
        arg_relevant = bool(arms) and plan.arg_mode != ARG_CHECK_NEVER
        if _contract_blocks(engine, name):
            # A contract on this method name forces the generic wrapper
            # (the specializer refuses promotion), so no check op here
            # is ever discharged — report every applicable one blocked.
            reason = (BLOCK_CONTRACT,)
            audit.blockers = ((BLOCK_CONTRACT, name),)
            if plan.checked:
                audit.blocked("cache_guard", reason)
            else:
                audit.skipped("cache_guard")
            if arg_relevant:
                audit.blocked("arg_check", reason)
            else:
                audit.skipped("arg_check")
            audit.blocked("frame", reason)
            return None, audit
        mir = (engine.cfgs.lookup(def_owner, name)
               or engine.cfgs.lookup(recv_owner, name))
        if mir is None:
            try:
                mir = engine.cfgs.register_function(def_owner, name, fn)
            except RegistrationError:
                mir = None

        tops = plan.top_profiles(TOP_K_PROFILES) \
            if plan.profile_eligible else ()
        arity = len(tops[0]) if tops else _fixed_arity(arms)

        # -- argument verdict (signature-only: vacuous types) ----------
        arg_ok = (arg_relevant and arity is not None and any(
            arm.block is None and arm.accepts_arity(arity)
            and all(is_vacuous(arm.param_type_at(j)) for j in range(arity))
            for arm in arms))

        # -- frame verdict (the checker's walk over the body) ----------
        frame_ok = False
        guard_profiles: Optional[Tuple[tuple, ...]] = None
        chain_conforms = True
        resources: List[Resource] = []
        blockers: List[Blocker] = []
        if mir is None:
            blockers.append((BLOCK_NO_IR, f"{def_owner}#{name}"))
        else:
            # The verdict was derived while *this* body was installed.
            resources.append(ir_resource(mir.owner, name))
            if mir.owner != def_owner:
                resources.append(ir_resource(def_owner, name))
            proof = prove_frame(engine, mir, recv_owner, None, arms)
            frame_ok = proof.frame_elidable
            resources.extend(proof.resources)
            blockers.extend(proof.blockers)
            if not frame_ok and tops:
                # Prove under each hot profile; the hottest decides, and
                # further chains are admitted only when they re-prove
                # the frame too (the wrapper elides whenever *any*
                # admitted chain matches).
                pinned = [(p, prove_frame(
                    engine, mir, recv_owner,
                    tuple(rdl_class_name(c) for c in p), arms))
                    for p in tops]
                if pinned[0][1].frame_elidable:
                    admitted = [(p, pr) for p, pr in pinned
                                if pr.frame_elidable]
                    guard_profiles = tuple(p for p, _ in admitted)
                    for _, pr in admitted:
                        resources.extend(pr.resources)
                    audit.pinned = len(admitted)
                    frame_ok = True
                else:
                    for _, pr in pinned:
                        blockers.extend(pr.blockers)
            if not frame_ok:
                # Layout pseudo-profile: a stable kwargs layout that
                # binds defaulted slots pins their classes *by
                # construction* — no learned profile needed.  The chain
                # carries the pins (None for unpinned slots) but does
                # not certify conformance of the unpinned ones, so the
                # wrapper keeps its profile test (``chain_conforms``).
                layout = plan.stable_kw_layout() \
                    if plan.profile_eligible else None
                chain = _layout_pseudo_profile(layout) \
                    if layout is not None else None
                if chain is not None:
                    pr = prove_frame(
                        engine, mir, recv_owner,
                        tuple(rdl_class_name(c) if c is not None else None
                              for c in chain), arms)
                    if pr.frame_elidable:
                        guard_profiles = (chain,)
                        chain_conforms = False
                        audit.pinned = 1
                        resources.extend(pr.resources)
                        frame_ok = True
                    else:
                        blockers.extend(pr.blockers)

        # -- audit assembly --------------------------------------------
        audit.blockers = tuple(dict.fromkeys(blockers))
        if plan.checked:
            audit.proved("cache_guard")
        else:
            audit.skipped("cache_guard")
        if not arg_relevant:
            audit.skipped("arg_check")
        elif arg_ok:
            audit.proved("arg_check")
        else:
            audit.blocked("arg_check", ("non_vacuous_params",))
        if frame_ok:
            audit.proved("frame", pinned=guard_profiles is not None)
        else:
            audit.blocked("frame", tuple(dict.fromkeys(
                code for code, _ in blockers)))

        cache_guard = plan.checked
        if not (cache_guard or frame_ok or arg_ok):
            return None, audit
        return Elision(
            cache_guard=cache_guard,
            frame=frame_ok,
            arg_check=arg_ok,
            guard_profiles=guard_profiles,
            chain_conforms=chain_conforms,
            arity=arity if arg_ok else None,
            resources=tuple(dict.fromkeys(resources)),
        ), audit
