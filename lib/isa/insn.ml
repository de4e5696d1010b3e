type t =
  | Push_ebp
  | Mov_ebp_esp
  | Nop
  | Ud2
  | Call_rel of int
  | Call_indirect
  | Ret
  | Leave
  | Alu of int
  | Or_mem of int
  | Jmp_rel of int
  | Jcc_rel of int
  | Yield of int
  | Iret
  | Int_sw of int

let length = function
  | Push_ebp | Nop | Ret | Leave | Iret -> 1
  | Mov_ebp_esp | Ud2 | Call_indirect | Alu _ | Or_mem _ | Jmp_rel _ | Jcc_rel _
  | Yield _ | Int_sw _ ->
      2
  | Call_rel _ -> 5

let byte v = v land 0xff

(* Two's-complement of [v] over [bits] bits. *)
let to_unsigned bits v = v land ((1 lsl bits) - 1)

let of_signed bits v =
  let half = 1 lsl (bits - 1) in
  if v >= half then v - (1 lsl bits) else v

let encode = function
  | Push_ebp -> [ 0x55 ]
  | Mov_ebp_esp -> [ 0x89; 0xe5 ]
  | Nop -> [ 0x90 ]
  | Ud2 -> [ 0x0f; 0x0b ]
  | Call_rel d ->
      let u = to_unsigned 32 d in
      [ 0xe8; byte u; byte (u lsr 8); byte (u lsr 16); byte (u lsr 24) ]
  | Call_indirect -> [ 0xff; 0xd0 ]
  | Ret -> [ 0xc3 ]
  | Leave -> [ 0xc9 ]
  | Alu imm -> [ 0x01; byte imm ]
  | Or_mem imm -> [ 0x0b; byte imm ]
  | Jmp_rel d -> [ 0xeb; byte (to_unsigned 8 d) ]
  | Jcc_rel d -> [ 0x75; byte (to_unsigned 8 d) ]
  | Yield id -> [ 0xf4; byte id ]
  | Iret -> [ 0xcf ]
  | Int_sw n -> [ 0xcd; byte n ]

let encode_into buf off i =
  List.fold_left
    (fun off b ->
      Bytes.set_uint8 buf off b;
      off + 1)
    off (encode i)

type decode_error = Unknown_opcode of int | Truncated

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
  | K_unknown
  | K_truncated

type scratch = { mutable len : int; mutable arg : int }

let scratch () = { len = 0; arg = 0 }

(* Operand readers: each reads its bytes in address order and stops at
   the first unreadable one, so a side-effecting [get] (a TLB-counted
   fetch) sees exactly the reads the instruction needs. *)
let second ~get addr s ~expect k =
  let b1 = get (addr + 1) in
  if b1 < 0 then K_truncated
  else if b1 = expect then begin
    s.len <- 2;
    k
  end
  else begin
    s.arg <- b1;
    K_unknown
  end

let imm8 ~get addr s ~signed k =
  let b1 = get (addr + 1) in
  if b1 < 0 then K_truncated
  else begin
    s.len <- 2;
    s.arg <- (if signed then of_signed 8 b1 else b1);
    k
  end

let rel32 ~get addr s =
  let b1 = get (addr + 1) in
  if b1 < 0 then K_truncated
  else
    let b2 = get (addr + 2) in
    if b2 < 0 then K_truncated
    else
      let b3 = get (addr + 3) in
      if b3 < 0 then K_truncated
      else
        let b4 = get (addr + 4) in
        if b4 < 0 then K_truncated
        else begin
          s.len <- 5;
          s.arg <- of_signed 32 (b1 lor (b2 lsl 8) lor (b3 lsl 16) lor (b4 lsl 24));
          K_call_rel
        end

(* The opcode table: the only place bytes become instructions. *)
let decode_kind ~get addr s =
  s.len <- 1;
  s.arg <- 0;
  match get addr with
  | 0x55 -> K_push_ebp
  | 0x90 -> K_nop
  | 0xc3 -> K_ret
  | 0xc9 -> K_leave
  | 0xcf -> K_iret
  | 0x89 -> second ~get addr s ~expect:0xe5 K_mov_ebp_esp
  | 0x0f -> second ~get addr s ~expect:0x0b K_ud2
  | 0xff -> second ~get addr s ~expect:0xd0 K_call_indirect
  | 0xe8 -> rel32 ~get addr s
  | 0x01 -> imm8 ~get addr s ~signed:false K_alu
  | 0x0b -> imm8 ~get addr s ~signed:false K_or_mem
  | 0xeb -> imm8 ~get addr s ~signed:true K_jmp_rel
  | 0x75 -> imm8 ~get addr s ~signed:true K_jcc_rel
  | 0xf4 -> imm8 ~get addr s ~signed:false K_yield
  | 0xcd -> imm8 ~get addr s ~signed:false K_int_sw
  | b when b < 0 -> K_truncated
  | b ->
      s.arg <- b;
      K_unknown

let of_kind k arg =
  match k with
  | K_push_ebp -> Push_ebp
  | K_mov_ebp_esp -> Mov_ebp_esp
  | K_nop -> Nop
  | K_ud2 -> Ud2
  | K_call_rel -> Call_rel arg
  | K_call_indirect -> Call_indirect
  | K_ret -> Ret
  | K_leave -> Leave
  | K_alu -> Alu arg
  | K_or_mem -> Or_mem arg
  | K_jmp_rel -> Jmp_rel arg
  | K_jcc_rel -> Jcc_rel arg
  | K_yield -> Yield arg
  | K_iret -> Iret
  | K_int_sw -> Int_sw arg
  | K_unknown | K_truncated -> invalid_arg "Insn.of_kind: not an instruction"

let decode ~read addr =
  let s = scratch () in
  let get a = match read a with Some b -> b | None -> -1 in
  match decode_kind ~get addr s with
  | K_truncated -> Error Truncated
  | K_unknown -> Error (Unknown_opcode s.arg)
  | k -> Ok (of_kind k s.arg, s.len)

let is_call = function Call_rel _ | Call_indirect -> true | _ -> false
let is_terminator = function Ret | Iret | Jmp_rel _ -> true | _ -> false

let pp ppf = function
  | Push_ebp -> Format.pp_print_string ppf "push ebp"
  | Mov_ebp_esp -> Format.pp_print_string ppf "mov ebp, esp"
  | Nop -> Format.pp_print_string ppf "nop"
  | Ud2 -> Format.pp_print_string ppf "ud2"
  | Call_rel d -> Format.fprintf ppf "call %+d" d
  | Call_indirect -> Format.pp_print_string ppf "call *dispatch"
  | Ret -> Format.pp_print_string ppf "ret"
  | Leave -> Format.pp_print_string ppf "leave"
  | Alu imm -> Format.fprintf ppf "alu 0x%x" imm
  | Or_mem imm -> Format.fprintf ppf "or eax, 0x%x" imm
  | Jmp_rel d -> Format.fprintf ppf "jmp %+d" d
  | Jcc_rel d -> Format.fprintf ppf "jne %+d" d
  | Yield id -> Format.fprintf ppf "yield %d" id
  | Iret -> Format.pp_print_string ppf "iret"
  | Int_sw n -> Format.fprintf ppf "int 0x%x" n

let to_string i = Format.asprintf "%a" pp i
let ud2_first_byte = 0x0f
let ud2_second_byte = 0x0b
let prologue_signature = [ 0x55; 0x89; 0xe5 ]
