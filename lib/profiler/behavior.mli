(** Behavior profiling — the paper's §V-A future work, implemented.

    FACE-CHANGE cannot see an attack that stays {e inside} its host's
    kernel view (the paper's example: a C&C server implanted into a web
    server, using only networking code the web server already needs).  The
    paper proposes profiling "the application's behavior, specifically its
    interactions with the kernel" and flagging runtime deviations.

    A behavior profile records which syscall handlers ([sys_*] functions)
    an application invokes and which {e transitions} between consecutive
    handlers it exhibits (bigrams).  The runtime side
    ({!Fc_core.Behavior_monitor}) watches handler entries via hypervisor
    breakpoints and raises alerts on transitions outside the profile. *)

type t = {
  app : string;
  handlers : (string * int) list;  (** sys_* handler -> invocation count *)
  bigrams : ((string * string) * int) list;
      (** (previous, current) handler transitions, with counts *)
}

val handler_names : Fc_kernel.Image.t -> (int * string) list
(** All [sys_*] handler (entry address, name) pairs of the base kernel —
    the observation points. *)

type session

val start : Fc_machine.Os.t -> target_pid:int -> session
(** Observe handler entries in the target's context (takes over the guest
    trace hook, like {!Profiler.start}). *)

val stop : session -> unit
val finish : session -> app:string -> t

val profile_app :
  ?config:Fc_machine.Os.config ->
  Fc_kernel.Image.t ->
  name:string ->
  Fc_machine.Action.t list ->
  t
(** One-shot behavioral profiling session (mirrors
    {!Profiler.profile_app}, superblock engine included). *)

val knows_handler : t -> string -> bool
val knows_bigram : t -> prev:string -> cur:string -> bool

val novel_bigrams : t -> observed:t -> (string * string) list
(** Transitions in [observed] that the profile has never seen. *)

val to_string : t -> string
val of_string : string -> (t, string) result
val save : t -> string -> unit
val load : string -> (t, string) result
