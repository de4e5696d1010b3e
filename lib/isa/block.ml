type op =
  | S_step
  | S_push_ebp
  | S_mov_ebp_esp
  | S_leave
  | S_jcc
  | S_jmp
  | S_call
  | S_call_ind
  | S_ret
  | S_yield
  | S_ud2

let ops =
  [|
    S_step;
    S_push_ebp;
    S_mov_ebp_esp;
    S_leave;
    S_jcc;
    S_jmp;
    S_call;
    S_call_ind;
    S_ret;
    S_yield;
    S_ud2;
  |]

let code_of_op = function
  | S_step -> 0
  | S_push_ebp -> 1
  | S_mov_ebp_esp -> 2
  | S_leave -> 3
  | S_jcc -> 4
  | S_jmp -> 5
  | S_call -> 6
  | S_call_ind -> 7
  | S_ret -> 8
  | S_yield -> 9
  | S_ud2 -> 10

let cap = 64

(* ---------------- packed words (layout in block.mli) ---------------- *)

let steps_shift = 7
let off_shift = 14
let operand_shift = 26

let word_op w = Array.unsafe_get ops (w land 15)
let word_len w = (w lsr 4) land 7
let word_steps w = (w lsr steps_shift) land 127
let word_off w = (w lsr off_shift) land 0xfff
let word_operand w = w asr operand_shift

type body = {
  start : int;
  code : int array;
  exit : int;
  span : string;
  stop_trap : bool;
}

let dummy = { start = -1; code = [||]; exit = -1; span = ""; stop_trap = false }
let length b = Array.length b.code
let op b i = word_op b.code.(i)
let pc b i = b.start + word_off b.code.(i)
let len b i = word_len b.code.(i)
let steps b i = word_steps b.code.(i)

let arg b i =
  let w = b.code.(i) in
  match word_op w with
  | S_jcc | S_jmp | S_call -> pc b i + word_operand w
  | S_yield -> word_operand w
  | _ -> 0

(* Does the block's last word leave straight-line flow?  Then the
   decoder read nothing past it and probed no trap at its exit. *)
let ends_control w =
  match word_op w with
  | S_jmp | S_call | S_call_ind | S_ret | S_yield | S_ud2 -> true
  | S_step | S_push_ebp | S_mov_ebp_esp | S_leave | S_jcc -> false

(* ---------------- decoding ---------------- *)

type scratch = {
  words : int array;
  mutable count : int;
  mutable stop : int;
  insn : Insn.scratch;
}

let scratch () =
  { words = Array.make cap 0; count = 0; stop = -1; insn = Insn.scratch () }

let op_of_kind = function
  | Insn.K_push_ebp -> S_push_ebp
  | Insn.K_mov_ebp_esp -> S_mov_ebp_esp
  | Insn.K_leave -> S_leave
  | Insn.K_nop | Insn.K_alu | Insn.K_or_mem | Insn.K_int_sw -> S_step
  | Insn.K_jcc_rel -> S_jcc
  | Insn.K_jmp_rel -> S_jmp
  | Insn.K_call_rel -> S_call
  | Insn.K_call_indirect -> S_call_ind
  | Insn.K_ret | Insn.K_iret -> S_ret
  | Insn.K_yield -> S_yield
  | Insn.K_ud2 -> S_ud2
  | Insn.K_unknown | Insn.K_truncated -> invalid_arg "Block.op_of_kind"

(* The block ends before the page tail (where an instruction could
   straddle pages), before any trap address — the first op included, so
   the executor's entry-only trap probe is exact — at the op cap, before
   undecodable bytes (the classic path raises Invalid_opcode there), and
   after any op that leaves straight-line flow.  Jcc continues in-block:
   its fall-through is the next op, its taken target exits.  Per
   instruction nothing is allocated: words land in the scratch array. *)
let decode_into s bytes ~base ~pc ~is_trap =
  let size = Bytes.length bytes in
  let get a =
    let o = a - base in
    if o >= 0 && o < size then Bytes.get_uint8 bytes o else -1
  in
  let ins = s.insn and words = s.words in
  let n = ref 0 and a = ref pc and go = ref true in
  s.stop <- -1;
  while !go do
    let at = !a in
    if !n >= cap || at - base > size - 6 || is_trap at then begin
      s.stop <- at;
      go := false
    end
    else
      match Insn.decode_kind ~get at ins with
      | Insn.K_unknown | Insn.K_truncated ->
          s.stop <- at;
          go := false
      | k ->
          let op = op_of_kind k and len = ins.Insn.len in
          let operand =
            match op with
            | S_jcc | S_jmp | S_call -> len + ins.Insn.arg
            | S_yield -> ins.Insn.arg
            | _ -> 0
          in
          words.(!n) <-
            code_of_op op lor (len lsl 4)
            lor ((at - pc) lsl off_shift)
            lor (operand lsl operand_shift);
          incr n;
          (match op with
          | S_jmp | S_call ->
              s.stop <- at + len + ins.Insn.arg;
              go := false
          | S_call_ind | S_ret | S_yield | S_ud2 -> go := false
          | S_step | S_push_ebp | S_mov_ebp_esp | S_leave | S_jcc ->
              a := at + len)
  done;
  let n = !n in
  s.count <- n;
  let run = ref 0 in
  for i = n - 1 downto 0 do
    let w = words.(i) in
    run := (match word_op w with S_step -> !run + 1 | _ -> 0);
    words.(i) <- w lor (!run lsl steps_shift)
  done

let decode s bytes ~base ~pc ~is_trap =
  decode_into s bytes ~base ~pc ~is_trap;
  let n = s.count in
  if n = 0 then None
  else
    let code = Array.sub s.words 0 n in
    let last = code.(n - 1) in
    let control = ends_control last in
    (* after a non-control stop, the stop address itself was probed (a
       trap) or read (undecodable bytes, at most five of them) *)
    let stop =
      if control then pc + word_off last + word_len last
      else min (s.stop + 8) (base + Bytes.length bytes)
    in
    Some
      {
        start = pc;
        code;
        exit = s.stop;
        span = Bytes.sub_string bytes (pc - base) (stop - pc);
        stop_trap = (not control) && is_trap s.stop;
      }

(* [bytes] holds [span] at offset [off]?  Eight bytes per compare. *)
let span_equal bytes off span =
  let n = String.length span in
  off >= 0
  && off + n <= Bytes.length bytes
  &&
  let rec words i =
    if i + 8 > n then tail i
    else
      (Bytes.get_int64_ne bytes (off + i) : int64) = String.get_int64_ne span i
      && words (i + 8)
  and tail i =
    i >= n
    || Bytes.unsafe_get bytes (off + i) = String.unsafe_get span i && tail (i + 1)
  in
  words 0

let matches b bytes ~base ~is_trap =
  span_equal bytes (b.start - base) b.span
  && (let code = b.code in
      let rec no_trap i =
        i >= Array.length code
        || ((not (is_trap (b.start + word_off code.(i)))) && no_trap (i + 1))
      in
      no_trap 0)
  && (ends_control b.code.(Array.length b.code - 1) || is_trap b.exit = b.stop_trap)

(* ---------------- the shared store ---------------- *)

module Int_map = Map.Make (Int)

let store_cap = 16_384

type published = {
  by_pc : body list Int_map.t;
  count : int;
  bytes : int;
}

type store = {
  state : published Atomic.t;
  decodes : int Atomic.t;
  shared_hits : int Atomic.t;
}

let store () =
  {
    state = Atomic.make { by_pc = Int_map.empty; count = 0; bytes = 0 };
    decodes = Atomic.make 0;
    shared_hits = Atomic.make 0;
  }

(* Heap footprint: the body record, its code array and its span. *)
let body_bytes b =
  let words =
    6 + (1 + Array.length b.code) + (1 + (String.length b.span / (Sys.word_size / 8)) + 1)
  in
  words * (Sys.word_size / 8)

let rec publish st b =
  let cur = Atomic.get st.state in
  let same = match Int_map.find_opt b.start cur.by_pc with Some l -> l | None -> [] in
  if cur.count < store_cap && not (List.exists (fun b' -> b' = b) same)
  then
    let next =
      {
        by_pc = Int_map.add b.start (b :: same) cur.by_pc;
        count = cur.count + 1;
        bytes = cur.bytes + body_bytes b;
      }
    in
    if not (Atomic.compare_and_set st.state cur next) then publish st b

let get st s bytes ~base ~pc ~is_trap =
  let rec first = function
    | [] -> None
    | b :: rest -> if matches b bytes ~base ~is_trap then Some b else first rest
  in
  match
    match Int_map.find_opt pc (Atomic.get st.state).by_pc with
    | Some candidates -> first candidates
    | None -> None
  with
  | Some _ as hit ->
      Atomic.incr st.shared_hits;
      hit
  | None -> (
      match decode s bytes ~base ~pc ~is_trap with
      | None -> None
      | Some b as r ->
          Atomic.incr st.decodes;
          publish st b;
          r)

type stats = { bodies : int; decodes : int; shared_hits : int; retained_bytes : int }

let stats st =
  let cur = Atomic.get st.state in
  {
    bodies = cur.count;
    decodes = Atomic.get st.decodes;
    shared_hits = Atomic.get st.shared_hits;
    retained_bytes = cur.bytes;
  }
