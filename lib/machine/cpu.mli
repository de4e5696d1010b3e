(** The virtual CPU: a fetch/decode/execute loop over guest-translated
    memory.

    The CPU executes kernel paths only (user-mode execution is modelled by
    the OS as a cycle cost).  It maintains the three registers the paper's
    recovery mechanism reads — [eip], [ebp], [esp] — and materializes real
    stack frames in guest memory: [call] pushes a return address,
    [push ebp; mov ebp, esp] links the frame chain, so the hypervisor's
    rbp-chain backtrace works exactly as in Algorithm 1.

    Every exit condition becomes an {!exit_reason} handed back to the OS,
    which routes hypervisor-relevant ones (breakpoints, invalid opcodes)
    to the registered VM-exit handler. *)

type regs = { mutable eip : int; mutable ebp : int; mutable esp : int }

val copy_regs : regs -> regs

val sentinel_return : int
(** The pseudo return address marking "return to user mode" (0). *)

type fault =
  | Unmapped_code of int     (** fetch from an unmapped page (EPT violation) *)
  | Unmapped_data of int     (** stack access to an unmapped page *)
  | Dispatch_underflow of int
      (** an indirect-call site fired with an empty dispatch queue *)
  | Runaway
      (** instruction budget exhausted — e.g. execution fell into UD2
          fill at an odd offset and walked it as valid [Or_mem]s *)

type exit_reason =
  | Breakpoint of int
      (** [eip] reached a hypervisor trap address (checked {e before}
          executing the instruction); resume with [skip_bp = Some addr] *)
  | Invalid_opcode
      (** UD2 or an undecodable byte at [eip]; [eip] unchanged *)
  | Blocked of int  (** a [Yield id] executed; [eip] already advanced *)
  | Returned        (** the outermost frame returned to the sentinel *)
  | Fault of fault

val pp_exit : Format.formatter -> exit_reason -> unit

type decode_result =
  | D_ok of Fc_isa.Insn.t * int
  | D_invalid   (** undecodable bytes at the address *)
  | D_unmapped  (** the address does not translate (EPT violation) *)

val decoder_of_fetch : (int -> int option) -> int -> decode_result
(** Straightforward decoder over a byte reader (no caching). *)

type event =
  | Ev_call of int  (** a call executed; the target address *)
  | Ev_return       (** a ret/iret executed (excluding the final return to
                        user mode) *)

(** {2 Superblocks}

    A superblock is one basic block decoded {e once} into flat parallel
    arrays of micro-op records — no per-instruction closures, no
    re-decoding — and executed straight-line: the trap probe runs only at
    block entry, never between ops.  The builder (the OS) guarantees the
    safety invariants that make that sound: every instruction of a block
    lies within one host frame, no instruction at index [>= 1] is a trap
    address, and the [(epoch, frame version, trap generation)] snapshot is
    re-validated before every execution (see DESIGN.md §10). *)

type sop =
  | S_step          (** Nop/Alu/Or_mem/Int_sw: advance eip only *)
  | S_push_ebp
  | S_mov_ebp_esp
  | S_leave
  | S_jcc           (** arg = taken target; falls through in-block *)
  | S_jmp           (** arg = target; ends the block *)
  | S_call          (** arg = target; ends the block *)
  | S_call_ind
  | S_ret           (** ret/iret (identical semantics here) *)
  | S_yield         (** arg = yield id *)
  | S_ud2

type sblock = {
  sb_start : int;       (** address of the first instruction *)
  sb_ops : sop array;
  sb_pcs : int array;   (** per-op instruction address *)
  sb_lens : int array;  (** per-op byte length *)
  sb_args : int array;  (** per-op argument (targets, yield id) *)
  sb_steps : int array;
      (** [sb_steps.(i)] = length of the consecutive [S_step] run starting
          at op [i] ([0] when op [i] is not a step) — the executor retires
          a whole run at once when no per-instruction tracer is armed *)
  sb_exit : int;
      (** static successor pc (fall-through split, direct jump/call), or
          [-1] when the successor is dynamic — drives block chaining *)
  mutable sb_tag : int;
      (** [Ept.tag] the block was last validated under; a re-entered
          view's blocks revalidate by compare, and the owner restamps the
          field when a generation bump left this page's translation
          unchanged, so view switches do not force re-decodes *)
  mutable sb_tag2 : int;
  mutable sb_tag3 : int;
      (** older validation tags, MRU-ordered — a 3-deep memo (hardware
          PCID-cache style) letting a shared-frame block rotate through
          the full kernel view plus two app views with zero restamps; a
          tag minted under any bumped generation or rolled era can never
          match again, so a stale memo entry is inert, never unsound *)
  mutable sb_ggen : int;
      (** the x86 global-page bit, generation-stamped: [>= 0] iff the
          block's page has never been remapped by any kernel view, so
          its translation is view-invariant and validity skips the tag
          check; [-1] on divergent pages and whenever tags are off *)
  sb_frame : int;       (** host frame the block decoded from *)
  sb_version : int;     (** [Phys_mem.version] of [sb_frame] at build time *)
  mutable sb_trap_gen : int;
      (** trap-set generation last validated under; the owner restamps it
          when a trap-set change left the block's interior trap-free *)
  mutable sb_next : sblock option;  (** chained block at [sb_exit] *)
}

(** {2 Superblock decoding}

    The builder's decode loop, run straight over a frame's bytes into
    reusable scratch arrays: per instruction it allocates nothing.  The
    owner copies the first [bs_count] entries into a {!sblock}. *)

val block_cap : int
(** Most ops in one block (64). *)

type block_scratch = {
  bs_ops : sop array;
  bs_pcs : int array;
  bs_lens : int array;
  bs_args : int array;
  bs_steps : int array;
  mutable bs_count : int;  (** ops decoded; [0] = no block at this pc *)
  mutable bs_exit : int;  (** the block's [sb_exit] *)
  bs_insn : Fc_isa.Insn.scratch;
}

val block_scratch : unit -> block_scratch

val decode_block :
  block_scratch -> Bytes.t -> base:int -> pc:int -> is_trap:(int -> bool) -> unit
(** [decode_block s bytes ~base ~pc ~is_trap] decodes the block starting
    at guest address [pc] from [bytes], the frame whose first byte sits at
    guest address [base].  The block stops before the frame's last five
    bytes (an instruction there could straddle frames), before any
    address [is_trap] accepts — [pc] itself included —, before
    undecodable bytes, after {!block_cap} ops, and after any op that ends
    straight-line flow ([S_jcc] does not: its fall-through stays
    in-block). *)

val run :
  decode:(int -> decode_result) ->
  read_u32:(int -> int option) ->
  write_u32:(int -> int -> unit) ->
  is_trap:(int -> bool) ->
  trace:(int -> int -> unit) option ->
  ?events:(event -> unit) ->
  ?branch:(int -> bool) ->
  cycles:int ref ->
  ?instrs:int ref ->
  dispatch:int Queue.t ->
  ?skip_bp:int ->
  ?sblocks:(int -> sblock option) ->
  ?max_instr:int ->
  regs ->
  exit_reason
(** Execute starting at [regs.eip] until an exit condition.  [regs] is
    mutated in place so the caller can save/restore process contexts.
    [decode] supplies instructions (typically through the OS's per-frame
    decode cache).  [branch] is the conditional-jump oracle, queried with
    the Jcc's address; the default takes every conditional jump (cold
    blocks skipped).  [trace] sees every executed instruction as
    [(address, byte length)].  [skip_bp] suppresses the trap check for the
    first instruction when resuming from a [Breakpoint] at that address.
    [instrs], when given, is incremented once per executed instruction
    (retired-instruction counting, independent of the cycle cost model).
    [sblocks], when given, is consulted with the pc at every block
    boundary: a returned block (which must start at that pc and be valid —
    the CPU does not re-check the snapshot) executes straight-line;
    [None] falls back to single-instruction decode/execute for that
    instruction.  Either way every observable (cycles, retired count,
    traces, events, register file at every step, exit reasons) is
    identical to running without [sblocks].  [max_instr] defaults to
    2,000,000. *)

val push : write_u32:(int -> int -> unit) -> regs -> int -> unit
(** Push a 32-bit value (used by the OS to seed the sentinel return
    address, and by attack models to build fake frames). *)
