(** Applies a {!Fault.plan} to a live guest.

    Arming an injector installs the {!Fc_machine.Os.fault_hooks} and
    schedules each plan entry at its round.  Faults that need no process
    context (view-page flips, frame-cache eviction, config corruption,
    breakpoint-miss arming) apply in the round hook; faults that must be
    attributed to a running process (spurious UD2 exits, crafted rbp
    chains) are queued and fire from the pre-action hook, in the context
    of the process about to run — the process the governor will charge.

    Everything is deterministic: the plan's abstract fractions are mapped
    onto concrete kernel-text addresses, no randomness is consumed at
    injection time, and each applied fault bumps the [faults.injected]
    counter (and its [{kind}] family member) and emits a
    [fault_injected] trace event when the hub is armed. *)

type t

val arm :
  os:Fc_machine.Os.t ->
  hyp:Fc_hypervisor.Hypervisor.t ->
  fc:Fc_core.Facechange.t ->
  Fault.plan ->
  t
(** Install hooks, register (and reset) the [faults.*] metrics, and
    schedule the plan.  At most one injector should be armed per guest —
    arming replaces any previously installed fault hooks. *)

val snap_to_insn : Fc_kernel.Image.t -> int -> int
(** [snap_to_insn image gva] is where a view-page flip drawn at kernel
    text address [gva] writes its UD2 pair: the start of an instruction
    of at least two bytes in the function containing [gva] — the first
    at or after [gva], else the last before it.  Addresses outside every
    function (inter-function padding) are returned unchanged. *)

val disarm : t -> unit
(** Remove the hooks and drop any queued faults.  Scheduled-but-unfired
    round callbacks become no-ops. *)

val injected : t -> int
(** Fault events actually applied so far. *)

val bp_misses : t -> int
(** Individual [__switch_to] breakpoints swallowed. *)

val config_rejects : t -> int
(** Malformed view configs correctly rejected by
    {!Fc_profiler.View_config.of_string}. *)

val validation_misses : t -> int
(** Malformed configs that {e parsed} — should stay 0; anything else is
    a validation hole. *)

(** {1 Snapshot: cursor / rearm} *)

type cursor = {
  cu_seed : int;  (** the plan's generator seed (replay provenance) *)
  cu_events : Fault.event list;  (** the full plan, absolute rounds *)
  cu_position : int;  (** last round executed before the snapshot *)
  cu_queue : Fault.kind list;  (** queued in-context faults, FIFO *)
  cu_miss_budget : int;  (** breakpoint misses still to swallow *)
}

val cursor : t -> position:int -> cursor
(** The injector's replay state at a round boundary: everything needed to
    re-arm the {e remainder} of the plan on a restored guest. *)

val rearm :
  os:Fc_machine.Os.t ->
  hyp:Fc_hypervisor.Hypervisor.t ->
  fc:Fc_core.Facechange.t ->
  cursor ->
  t
(** Like {!arm}, but resumes from a cursor: only events strictly after
    [cu_position] are scheduled (earlier ones fired before the snapshot,
    and their effects live in the restored machine), the in-context fault
    queue and miss budget carry over, and no [faults.*] metrics are
    reset. *)
