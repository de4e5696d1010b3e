(** The synthetic guest instruction set.

    A deliberately small, x86-flavoured, byte-encoded ISA.  The encodings
    that carry the paper's mechanism are kept bit-identical to x86:

    - [UD2] is [0x0f 0x0b] and raises an invalid-opcode trap when executed;
    - the byte pair [0x0b 0x0f] (a UD2 fill read from an odd offset) decodes
      as a {e valid} [Or_mem] instruction — the misinterpretation that
      forces the paper's {e instant recovery};
    - the function prologue is [push ebp; mov ebp, esp]
      = [0x55 0x89 0xe5], the boundary signature scanned during recovery;
    - [call rel32] is [0xe8] + 4-byte little-endian displacement and pushes
      a return address, giving real rbp-chain backtraces.

    Everything else ([Alu] filler, [Yield] block points, [Call_indirect]
    vfs-style dispatch) exists so that synthetic kernel functions have
    realistic bodies, sizes and control flow. *)

type t =
  | Push_ebp      (** [0x55] — first byte of the prologue signature *)
  | Mov_ebp_esp   (** [0x89 0xe5] — completes the prologue *)
  | Nop           (** [0x90] *)
  | Ud2           (** [0x0f 0x0b] — invalid opcode, traps to hypervisor *)
  | Call_rel of int
      (** [0xe8 d32] — displacement relative to the {e next} instruction *)
  | Call_indirect
      (** [0xff 0xd0] — target supplied by the current dispatch queue,
          modelling [call *table(,%eax,4)] (vfs function pointers) *)
  | Ret           (** [0xc3] *)
  | Leave         (** [0xc9] — [esp := ebp; pop ebp] *)
  | Alu of int    (** [0x01 imm8] — filler arithmetic, no control flow *)
  | Or_mem of int
      (** [0x0b imm8] — valid but meaningless; only ever reached by
          misdecoding UD2 fill at an odd offset *)
  | Jmp_rel of int (** [0xeb d8] — signed 8-bit relative jump *)
  | Jcc_rel of int
      (** [0x75 d8] — conditional jump; whether it is taken comes from the
          machine's branch oracle.  Kernel functions use it to guard cold
          error paths, giving bodies the intra-function variance the
          paper's whole-function relaxation exists for *)
  | Yield of int  (** [0xf4 imm8] — synthetic block point (process sleeps) *)
  | Iret          (** [0xcf] — return from interrupt *)
  | Int_sw of int (** [0xcd imm8] — software interrupt / syscall gate *)

val length : t -> int
(** Encoded length in bytes. *)

val encode : t -> int list
(** Byte list, most significant semantics first; each in [0, 255]. *)

val encode_into : Bytes.t -> int -> t -> int
(** [encode_into buf off i] writes the encoding at [off] and returns the
    offset just past it. *)

type decode_error =
  | Unknown_opcode of int  (** first byte is not a valid opcode *)
  | Truncated              (** ran out of readable bytes mid-instruction *)

val decode : read:(int -> int option) -> int -> (t * int, decode_error) result
(** [decode ~read addr] decodes one instruction at [addr]; [read a] returns
    the byte at [a] or [None] if unmapped.  On success returns the
    instruction and its length. *)

(** {2 Allocation-free decoding}

    The opcode table behind {!decode}, for callers that decode many
    instructions in a row (the superblock builder): the instruction comes
    back as a constant constructor and its length and operand land in a
    caller-owned {!scratch}, so no option, tuple or instruction value is
    allocated per decode. *)

type kind =
  | K_push_ebp
  | K_mov_ebp_esp
  | K_nop
  | K_ud2
  | K_call_rel
  | K_call_indirect
  | K_ret
  | K_leave
  | K_alu
  | K_or_mem
  | K_jmp_rel
  | K_jcc_rel
  | K_yield
  | K_iret
  | K_int_sw
  | K_unknown  (** {!Unknown_opcode}: [arg] is the offending byte *)
  | K_truncated  (** {!Truncated} *)

type scratch = { mutable len : int; mutable arg : int }
(** [len] is the encoded length; [arg] is the instruction's operand —
    the sign-extended displacement of a relative call or jump, the
    immediate byte of [Alu]/[Or_mem]/[Yield]/[Int_sw], [0] otherwise. *)

val scratch : unit -> scratch

val decode_kind : get:(int -> int) -> int -> scratch -> kind
(** [decode_kind ~get addr s] decodes the instruction at [addr]; [get a]
    returns the byte at [a], or a negative value if it is unreadable.
    Bytes are read in address order and only as far as the instruction
    needs, exactly as {!decode} reads them. *)

val is_call : t -> bool
val is_terminator : t -> bool
(** [Ret], [Iret] or an unconditional [Jmp_rel]: ends a basic block. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val ud2_first_byte : int
(** [0x0f] *)

val ud2_second_byte : int
(** [0x0b] *)

val prologue_signature : int list
(** [[0x55; 0x89; 0xe5]] — the function-header byte signature. *)
