module Os = Fc_machine.Os
module Image = Fc_kernel.Image
module Asm = Fc_isa.Asm

type t = {
  app : string;
  handlers : (string * int) list;
  bigrams : ((string * string) * int) list;
}

let is_handler_name n = String.length n > 4 && String.sub n 0 4 = "sys_"

let handler_names image =
  List.filter_map
    (fun (p : Asm.placed) ->
      if is_handler_name p.Asm.pname then Some (p.Asm.addr, p.Asm.pname) else None)
    (Image.functions image)

type session = {
  os : Os.t;
  target_pid : int;
  entry_names : (int, string) Hashtbl.t;
  handler_counts : (string, int) Hashtbl.t;
  bigram_counts : (string * string, int) Hashtbl.t;
  mutable prev : string option;
  mutable active : bool;
}

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let start os ~target_pid =
  let entry_names = Hashtbl.create 128 in
  List.iter
    (fun (addr, name) -> Hashtbl.replace entry_names addr name)
    (handler_names (Os.image os));
  let s =
    {
      os;
      target_pid;
      entry_names;
      handler_counts = Hashtbl.create 64;
      bigram_counts = Hashtbl.create 256;
      prev = None;
      active = true;
    }
  in
  Os.set_trace os
    (Some
       (fun addr _len ->
         if
           (not (Os.in_interrupt os))
           && (Os.current os).Fc_machine.Process.pid = s.target_pid
         then
           match Hashtbl.find_opt s.entry_names addr with
           | Some name ->
               bump s.handler_counts name;
               (match s.prev with
               | Some prev -> bump s.bigram_counts (prev, name)
               | None -> ());
               s.prev <- Some name
           | None -> ()));
  s

let stop s =
  if s.active then begin
    Os.set_trace s.os None;
    s.active <- false
  end

let sorted_assoc tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let finish s ~app =
  { app; handlers = sorted_assoc s.handler_counts; bigrams = sorted_assoc s.bigram_counts }

let profile_app ?(config = Os.profiling_config) image ~name script =
  let os = Os.create ~config ~sblocks:true image in
  let p = Os.spawn os ~name script in
  let s = start os ~target_pid:p.Fc_machine.Process.pid in
  Os.run os;
  stop s;
  finish s ~app:name

let knows_handler t name = List.mem_assoc name t.handlers
let knows_bigram t ~prev ~cur = List.mem_assoc (prev, cur) t.bigrams

let novel_bigrams t ~observed =
  List.filter_map
    (fun (bg, _) -> if List.mem_assoc bg t.bigrams then None else Some bg)
    observed.bigrams

(* ---------------- persistence ---------------- *)

let to_string t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "# facechange behavior profile\n";
  Buffer.add_string buf ("app " ^ t.app ^ "\n");
  List.iter
    (fun (h, n) -> Buffer.add_string buf (Printf.sprintf "handler %s %d\n" h n))
    t.handlers;
  List.iter
    (fun ((a, b), n) -> Buffer.add_string buf (Printf.sprintf "bigram %s %s %d\n" a b n))
    t.bigrams;
  Buffer.contents buf

let of_string text =
  let app = ref None and handlers = ref [] and bigrams = ref [] in
  let err = ref None in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if !err = None && line <> "" && line.[0] <> '#' then
        match String.split_on_char ' ' line with
        | [ "app"; name ] -> app := Some name
        | [ "handler"; h; n ] -> (
            match int_of_string_opt n with
            | Some n -> handlers := (h, n) :: !handlers
            | None -> err := Some (Printf.sprintf "line %d: bad count" (i + 1)))
        | [ "bigram"; a; b; n ] -> (
            match int_of_string_opt n with
            | Some n -> bigrams := ((a, b), n) :: !bigrams
            | None -> err := Some (Printf.sprintf "line %d: bad count" (i + 1)))
        | _ -> err := Some (Printf.sprintf "line %d: unparseable" (i + 1)))
    (String.split_on_char '\n' text);
  match (!err, !app) with
  | Some e, _ -> Error e
  | None, None -> Error "missing 'app' line"
  | None, Some app ->
      Ok { app; handlers = List.rev !handlers; bigrams = List.rev !bigrams }

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e
