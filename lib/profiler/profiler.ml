module Os = Fc_machine.Os
module Layout = Fc_kernel.Layout
module Range_list = Fc_ranges.Range_list
module Segment = Fc_ranges.Segment

(* A recorder accumulates contiguous execution runs, deduplicates them,
   and merges into a Range_list lazily.  Runs repeat enormously (the same
   syscall path executes over and over), so the dedup table is the main
   cost saver. *)
type recorder = {
  mutable run_lo : int;
  mutable run_hi : int; (* current contiguous run; run_lo = -1 when none *)
  seen : (int * int, unit) Hashtbl.t;
  mutable runs : (int * int) list;
}

let recorder_create () =
  { run_lo = -1; run_hi = -1; seen = Hashtbl.create 4096; runs = [] }

let recorder_flush r =
  if r.run_lo >= 0 then begin
    let key = (r.run_lo, r.run_hi) in
    if not (Hashtbl.mem r.seen key) then begin
      Hashtbl.add r.seen key ();
      r.runs <- key :: r.runs
    end;
    r.run_lo <- -1
  end

let recorder_step r addr len =
  if addr = r.run_hi && r.run_lo >= 0 then r.run_hi <- addr + len
  else begin
    recorder_flush r;
    r.run_lo <- addr;
    r.run_hi <- addr + len
  end

type session = {
  os : Os.t;
  target_pid : int;
  app_rec : recorder;
  irq_rec : recorder;
  (* module bases snapshot, sorted: (base, size, name) *)
  mods : (int * int * string) list;
  mutable active : bool;
}

let segmentize mods addr =
  if Layout.is_module_address addr then
    match
      List.find_opt (fun (base, size, _) -> base <= addr && addr < base + size) mods
    with
    | Some (base, _, name) -> Some (Segment.Kernel_module name, addr - base)
    | None -> None (* module area but no module: ignore (unloaded) *)
  else if Layout.is_kernel_address addr then Some (Segment.Base_kernel, addr)
  else None

let ranges_of_runs mods runs =
  List.fold_left
    (fun acc (lo, hi) ->
      match segmentize mods lo with
      | None -> acc
      | Some (seg, rel_lo) -> Range_list.add_range acc seg ~lo:rel_lo ~hi:(rel_lo + (hi - lo)))
    Range_list.empty runs

let start os ~target_pid =
  let mods =
    List.map (fun (name, base, size) -> (base, size, name)) (Os.vmi_module_list os)
  in
  let s =
    {
      os;
      target_pid;
      app_rec = recorder_create ();
      irq_rec = recorder_create ();
      mods;
      active = true;
    }
  in
  Os.set_trace os
    (Some
       (fun addr len ->
         if Layout.is_kernel_address addr then
           if Os.in_interrupt os then recorder_step s.irq_rec addr len
           else if (Os.current os).Fc_machine.Process.pid = s.target_pid then
             recorder_step s.app_rec addr len));
  s

let stop s =
  if s.active then begin
    Os.set_trace s.os None;
    recorder_flush s.app_rec;
    recorder_flush s.irq_rec;
    s.active <- false
  end

let finish_rec s r =
  recorder_flush r;
  ranges_of_runs s.mods r.runs

let app_ranges s = finish_rec s s.app_rec
let interrupt_ranges s = finish_rec s s.irq_rec
let view_ranges s = Range_list.union (app_ranges s) (interrupt_ranges s)
let to_config s ~app = View_config.make ~app (view_ranges s)

let profile_app ?(config = Os.profiling_config) image ~name script =
  let os = Os.create ~config ~sblocks:true image in
  let p = Os.spawn os ~name script in
  let s = start os ~target_pid:p.Fc_machine.Process.pid in
  Os.run os;
  stop s;
  to_config s ~app:name
