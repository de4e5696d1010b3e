module Asm = Fc_isa.Asm

type t = {
  unit_image : Asm.unit_image;
  by_name : (string, Asm.placed) Hashtbl.t;
  (* function starts sorted by address, for binary search *)
  starts : Asm.placed array;
  modules : ((string * int) * Asm.unit_image) list Atomic.t;
      (* catalog modules assembled so far, by (name, load base): every
         guest booted from this image loads the same modules at the same
         bases, so each is assembled once.  The list is immutable and
         published by compare-and-set, which is safe for guests booting
         on several domains at once. *)
  blocks : Fc_isa.Block.store;
      (* decoded superblock bodies, shared by every guest booted from
         this image (lock-free, like [modules]) *)
}

let build () =
  let specs = List.map Kfunc.to_spec Catalog.base_functions in
  match Asm.assemble ~base:Layout.text_base specs with
  | Error _ as e -> e
  | Ok unit_image ->
      let by_name = Hashtbl.create 1024 in
      List.iter
        (fun (p : Asm.placed) -> Hashtbl.replace by_name p.pname p)
        unit_image.functions;
      let starts = Array.of_list unit_image.functions in
      Ok
        {
          unit_image;
          by_name;
          starts;
          modules = Atomic.make [];
          blocks = Fc_isa.Block.store ();
        }

let build_exn () =
  match build () with
  | Ok t -> t
  | Error msg -> failwith ("Image.build: " ^ msg)

let unit_image t = t.unit_image
let text_base t = t.unit_image.base
let text_end t = t.unit_image.base + Bytes.length t.unit_image.code
let addr_of t name = Option.map (fun (p : Asm.placed) -> p.addr) (Hashtbl.find_opt t.by_name name)

let addr_of_exn t name =
  match addr_of t name with
  | Some a -> a
  | None -> invalid_arg ("Image.addr_of_exn: unknown function " ^ name)

let placed_at t addr =
  (* Binary search for the last start <= addr. *)
  let n = Array.length t.starts in
  let rec go lo hi =
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if t.starts.(mid).Asm.addr <= addr then go (mid + 1) hi else go lo mid
  in
  let i = go 0 n in
  if i < 0 then None
  else
    let p = t.starts.(i) in
    if addr < p.Asm.addr + p.Asm.size then Some p else None

let functions t = t.unit_image.functions
let blocks t = t.blocks

let read_byte t gva =
  let off = gva - t.unit_image.base in
  if off >= 0 && off < Bytes.length t.unit_image.code then
    Some (Bytes.get_uint8 t.unit_image.code off)
  else None

let assemble_module_fns t ~base fns =
  let specs = List.map Kfunc.to_spec fns in
  Asm.assemble ~base ~resolve:(addr_of t) specs

let rec publish t key u =
  let cur = Atomic.get t.modules in
  match List.assoc_opt key cur with
  | Some winner -> winner
  | None ->
      if Atomic.compare_and_set t.modules cur ((key, u) :: cur) then u
      else publish t key u

let assemble_module t ~name ~base =
  match List.assoc_opt name Catalog.module_functions with
  | None -> Error ("unknown module: " ^ name)
  | Some fns -> (
      let key = (name, base) in
      match List.assoc_opt key (Atomic.get t.modules) with
      | Some u -> Ok u
      | None -> (
          match assemble_module_fns t ~base fns with
          | Ok u -> Ok (publish t key u)
          | Error _ as e -> e))

let false_prologues t =
  let read = read_byte t in
  let is_start =
    let h = Hashtbl.create 1024 in
    List.iter (fun (p : Asm.placed) -> Hashtbl.replace h p.Asm.addr ()) t.unit_image.functions;
    fun a -> Hashtbl.mem h a
  in
  let acc = ref [] in
  let a = ref (text_base t) in
  while !a < text_end t do
    if Fc_isa.Scan.is_prologue_at ~read !a && not (is_start !a) then acc := !a :: !acc;
    a := !a + 16
  done;
  List.rev !acc
