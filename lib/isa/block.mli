(** Decoded basic-block bodies, shared by every guest of one image.

    A superblock's {e body} is what decoding produces: the micro-ops of
    one basic block, packed one word per op, plus the source bytes they
    were decoded from.  A body is immutable and depends only on those
    bytes, the block's start address and which of its addresses were
    trap addresses at decode time — never on the guest that decoded it.
    Guests booted from one image run mostly the same kernel code, so the
    image keeps a {!store} of bodies and a guest reuses a retained body
    whenever its own frame holds the same bytes under the same trap
    verdicts, instead of decoding again.  The per-guest validity state
    (tags, frame, version, trap generation, chain link) lives in
    [Fc_machine.Cpu.sblock], which points at a body. *)

type op =
  | S_step  (** Nop/Alu/Or_mem/Int_sw: advance eip only *)
  | S_push_ebp
  | S_mov_ebp_esp
  | S_leave
  | S_jcc  (** operand = taken target; falls through in-block *)
  | S_jmp  (** operand = target; ends the block *)
  | S_call  (** operand = target; ends the block *)
  | S_call_ind
  | S_ret  (** ret/iret (identical semantics here) *)
  | S_yield  (** operand = yield id *)
  | S_ud2

val ops : op array
(** [ops.(c)] is the op whose code is [c] (bits 0–3 of a packed word). *)

val cap : int
(** Most ops in one block (64). *)

(** {2 Bodies}

    Packed word layout, one word per op (the executor reads it through
    its own copies of the accessors, [Fc_machine.Cpu.Word]):
    - bits 0–3: op code, an index into {!ops};
    - bits 4–6: byte length (1–5);
    - bits 7–13: step run — the length of the run of consecutive
      [S_step] ops starting here ([0] when this op is not [S_step]);
    - bits 14–25: the op's address minus the block's [start];
    - bits 26–62 (signed, read with [asr 26]): for [S_jcc], [S_jmp] and
      [S_call] the target minus the op's address; for [S_yield] the yield
      id; [0] otherwise. *)

type body = private {
  start : int;  (** address of the first instruction *)
  code : int array;  (** one packed word per op, never empty *)
  exit : int;
      (** static successor pc (fall-through split, direct jump/call), or
          [-1] when the successor is dynamic — drives block chaining *)
  span : string;
      (** the source bytes [[start, start + length span)]: every byte the
          decoder read, plus slack after a non-control stop *)
  stop_trap : bool;
      (** for a block that stopped before [exit] without a control op
          (trap, op cap, page tail, undecodable bytes): whether [exit]
          was a trap address at decode time; [false] otherwise *)
}

val dummy : body
(** A body no lookup ever returns ([start = -1], no ops). *)

val length : body -> int
val op : body -> int -> op
val pc : body -> int -> int
val len : body -> int -> int
val steps : body -> int -> int

val arg : body -> int -> int
(** The absolute target of [S_jcc]/[S_jmp]/[S_call], the id of
    [S_yield], [0] otherwise. *)

(** {2 Decoding} *)

type scratch
(** The decoder's reusable buffers: per instruction it allocates
    nothing. *)

val scratch : unit -> scratch

val decode :
  scratch -> Bytes.t -> base:int -> pc:int -> is_trap:(int -> bool) -> body option
(** [decode s bytes ~base ~pc ~is_trap] decodes the block starting at
    guest address [pc] from [bytes], the frame whose first byte sits at
    guest address [base], and packs it into a fresh body ([None] when no
    op decodes).  The block stops before the frame's last five bytes (an
    instruction there could straddle frames), before any address
    [is_trap] accepts — [pc] itself included —, before undecodable
    bytes, after {!cap} ops, and after any op that ends straight-line
    flow ([S_jcc] does not: its fall-through stays in-block). *)

(** {2 The shared store} *)

type store
(** Bodies keyed by start address, every retained variant of it.  Lookups
    read an immutable map; publication swaps in a new map by
    [Atomic] compare-and-set, so guests on several domains share one
    store without locks. *)

val store : unit -> store
(** An empty store.  It retains at most 16,384 bodies; past that bound,
    decoded bodies are used but not published. *)

val get :
  store -> scratch -> Bytes.t -> base:int -> pc:int -> is_trap:(int -> bool) -> body option
(** The body {!decode} would produce.  A retained body at [pc] is
    returned when it provably is that body: [bytes] holds its [span] at
    [pc], no op address is a trap, and — after a non-control stop —
    [is_trap exit = stop_trap].  Otherwise the block is decoded into
    [scratch] and published. *)

type stats = {
  bodies : int;  (** bodies retained *)
  decodes : int;  (** bodies decoded because no retained body matched *)
  shared_hits : int;  (** lookups served by a retained body *)
  retained_bytes : int;  (** heap bytes of the retained bodies *)
}

val stats : store -> stats
