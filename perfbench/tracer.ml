(* Host-side spans recorded by the benchmark around its calls into each
   layer's public functions.  Spans live in memory until the run ends;
   recording is a no-op unless [enabled] is set, so the untraced run pays
   one bool test per call site. *)

type span = {
  id : int;
  op : int;  (** every span of one op shares this id *)
  name : string;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let now = Unix.gettimeofday
let recorded = ref []
let open_ids = ref []
let next_id = ref 0
let current_op = ref (-1)

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let op = !current_op in
    open_ids := id :: !open_ids;
    let t0 = now () in
    let close () =
      let t1 = now () in
      open_ids := List.tl !open_ids;
      recorded := { id; op; name; parent; t0; t1 } :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let spans () = List.rev !recorded
let duration s = s.t1 -. s.t0

(* Self time: a span's duration minus the time its direct children
   cover (children run sequentially on the one benchmark domain, so
   their durations never overlap). *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

(* Per-op totals of one span name: durations of every span so named in
   an op are summed, one value per op that has one. *)
let per_op ?(self = false) spans name =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, st) ->
      if String.equal s.name name then
        let v = if self then st else duration s in
        Hashtbl.replace tbl s.op (v +. Option.value ~default:0. (Hashtbl.find_opt tbl s.op)))
    (self_times spans);
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let to_json spans =
  let module J = Fc_obs.Jsonx in
  let self = self_times spans in
  J.List
    (List.map
       (fun (s, st) ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("op", J.Int s.op);
             ("name", J.String s.name);
             ("parent", J.Int s.parent);
             ("start", J.Float s.t0);
             ("end", J.Float s.t1);
             ("self", J.Float st);
           ])
       self)
