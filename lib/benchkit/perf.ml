module Os = Fc_machine.Os
module Action = Fc_machine.Action
module Process = Fc_machine.Process
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Metrics = Fc_obs.Metrics
module J = Fc_obs.Jsonx

type counters = {
  c_instructions : int;
  c_cycles : int;
  c_i_hits : int;
  c_i_misses : int;
  c_d_hits : int;
  c_d_misses : int;
  c_i_flushes : int;
  c_d_flushes : int;
  c_sb_built : int;
  c_sb_hits : int;
  c_sb_invals : int;
  c_sb_chains : int;
  c_sb_restamps : int;
  (* fetch-TLB flushes split by cause (the tlb.flushes{cause} family):
     the view-switch bucket is what the tagged arms drive to ~0 *)
  c_fl_view_switch : int;
  c_fl_cow : int;
  c_fl_growth : int;
  c_fl_explicit : int;
}

let zero_counters =
  { c_instructions = 0; c_cycles = 0; c_i_hits = 0; c_i_misses = 0;
    c_d_hits = 0; c_d_misses = 0; c_i_flushes = 0; c_d_flushes = 0;
    c_sb_built = 0; c_sb_hits = 0; c_sb_invals = 0; c_sb_chains = 0;
    c_sb_restamps = 0; c_fl_view_switch = 0; c_fl_cow = 0; c_fl_growth = 0;
    c_fl_explicit = 0 }

(* Whole-guest counters at end of life.  Guest instructions only retire
   inside [Os.run]/exec paths — exactly the spans the arms time — so
   instructions/seconds is a faithful instructions-per-second figure. *)
let collect os acc =
  let m = Fc_obs.Obs.metrics (Os.obs os) in
  let v name = Option.value (Metrics.find m name) ~default:0 in
  {
    c_instructions = acc.c_instructions + Os.instructions os;
    c_cycles = acc.c_cycles + Os.cycles os;
    c_i_hits = acc.c_i_hits + v "tlb.i_hits";
    c_i_misses = acc.c_i_misses + v "tlb.i_misses";
    c_d_hits = acc.c_d_hits + v "tlb.d_hits";
    c_d_misses = acc.c_d_misses + v "tlb.d_misses";
    c_i_flushes = acc.c_i_flushes + v "tlb.i_flushes";
    c_d_flushes = acc.c_d_flushes + v "tlb.d_flushes";
    c_sb_built = acc.c_sb_built + v "sb.blocks_built";
    c_sb_hits = acc.c_sb_hits + v "sb.hits";
    c_sb_invals = acc.c_sb_invals + v "sb.invalidations";
    c_sb_chains = acc.c_sb_chains + v "sb.chain_follows";
    c_sb_restamps = acc.c_sb_restamps + v "sb.restamps";
    c_fl_view_switch = acc.c_fl_view_switch + v "tlb.flushes{view_switch}";
    c_fl_cow = acc.c_fl_cow + v "tlb.flushes{cow}";
    c_fl_growth = acc.c_fl_growth + v "tlb.flushes{growth}";
    c_fl_explicit = acc.c_fl_explicit + v "tlb.flushes{explicit}";
  }

type arm = {
  a_label : string;
  a_tagged : bool;
  a_sblocks : bool;
  a_tlb : bool;
  a_views : bool;
  a_reps : int;
  a_seconds : float;  (* min wall clock across the reps (noise floor) *)
  a_ips : float;      (* instructions per wall-clock second, best rep *)
  a_counters : counters;  (* one deterministic pass (rep-independent) *)
}

let ips ~instructions ~reps ~seconds =
  if seconds <= 0. then 0.
  else float_of_int (instructions * reps) /. seconds

let make_arm ~label ~tagged ~sblocks ~tlb ~views ~reps ~seconds ~counters =
  {
    a_label = label;
    a_tagged = tagged;
    a_sblocks = sblocks;
    a_tlb = tlb;
    a_views = views;
    a_reps = reps;
    a_seconds = seconds;
    (* seconds is the best (min) single rep, so no reps factor here *)
    a_ips = ips ~instructions:counters.c_instructions ~reps:1 ~seconds;
    a_counters = counters;
  }

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* UnixBench workload                                                  *)
(* ------------------------------------------------------------------ *)

(* The views loaded (and their resident applications) for the views-on
   arms: enough to exercise switching and COW without dominating wall
   time with view builds. *)
let perf_view_apps = [ "top"; "apache" ]

(* One subtest in a fresh guest, mirroring [Unixbench.run_one] but with
   the engine toggles and wall-clock timing of the run spans.  Returns
   the elapsed seconds; the guest is handed back for counter
   collection. *)
let run_subtest image ~tagged ~sblocks ~tlb ~views ~residents
    (st : Unixbench.subtest) =
  let os = Os.create ~config:Unixbench.bench_config ~sblocks ~tlb ~tagged image in
  if views <> [] then begin
    let hyp = Hyp.attach os in
    let fc = Facechange.enable hyp in
    List.iter (fun cfg -> ignore (Facechange.load_view fc cfg)) views
  end;
  let resident_procs =
    List.map (fun name -> Os.spawn os ~name Unixbench.resident_script) residents
  in
  let elapsed = ref 0. in
  if resident_procs <> [] then begin
    let t0 = now () in
    Os.run
      ~until:(fun _ ->
        List.for_all (fun p -> not (Process.is_ready p)) resident_procs)
      os;
    elapsed := !elapsed +. (now () -. t0)
  end;
  let bench =
    List.map (fun (name, script) -> Os.spawn os ~name script) st.Unixbench.procs
  in
  let t0 = now () in
  Os.run ~until:(fun _ -> List.for_all Process.is_exited bench) os;
  elapsed := !elapsed +. (now () -. t0);
  (os, !elapsed)

let unixbench_arm profiles ~tagged ~sblocks ~tlb ~views_on ~reps =
  let image = Profiles.image profiles in
  let views =
    if views_on then List.map (Profiles.config_of profiles) perf_view_apps
    else []
  in
  let residents = List.map (fun c -> c.Fc_profiler.View_config.app) views in
  let seconds = ref infinity in
  let counters = ref zero_counters in
  for rep = 1 to max 1 reps do
    let rep_seconds = ref 0. in
    List.iter
      (fun st ->
        let os, dt =
          run_subtest image ~tagged ~sblocks ~tlb ~views ~residents st
        in
        rep_seconds := !rep_seconds +. dt;
        (* counters from the first rep only: every rep is the same
           deterministic run, so the pinned numbers are rep-independent *)
        if rep = 1 then counters := collect os !counters)
      Unixbench.subtests;
    (* min across reps: the least-interrupted pass, not a noisy sum *)
    seconds := Float.min !seconds !rep_seconds
  done;
  let label =
    Printf.sprintf "%s%s%s+%s"
      (if tagged then "tag+" else "")
      (if sblocks then "sb+" else "")
      (if tlb then "tlb" else "no-tlb")
      (if views_on then "views" else "noviews")
  in
  make_arm ~label ~tagged ~sblocks ~tlb ~views:views_on ~reps:(max 1 reps)
    ~seconds:!seconds ~counters:!counters

(* ------------------------------------------------------------------ *)
(* httperf workload                                                    *)
(* ------------------------------------------------------------------ *)

(* The Fig. 7 apache request batch (same scripts as [Httperf]), with
   FACE-CHANGE enabled and the apache view loaded in every arm — only
   the engine toggles differ. *)
let httperf_arm profiles ~tagged ~sblocks ~tlb ~reps =
  let app = Fc_apps.App.find_exn "apache" in
  let config = { (Fc_apps.App.os_config app) with Os.wake_delay = 2 } in
  let seconds = ref infinity in
  let counters = ref zero_counters in
  for rep = 1 to max 1 reps do
    let os = Os.create ~config ~sblocks ~tlb ~tagged (Profiles.image profiles) in
    let hyp = Hyp.attach os in
    let fc = Facechange.enable hyp in
    let (_ : int) =
      Facechange.load_view fc (Profiles.config_of profiles "apache")
    in
    let script =
      [ Action.Syscall "socket:tcp"; Action.Syscall "setsockopt:tcp";
        Action.Syscall "bind:tcp"; Action.Syscall "listen:tcp";
        Action.Syscall "epoll_create"; Action.Syscall "epoll_ctl" ]
      @ Action.repeat 100 Httperf.request_actions
      @ [ Action.Exit ]
    in
    let (_ : Process.t) = Os.spawn os ~name:"apache" script in
    let t0 = now () in
    Os.run os;
    seconds := Float.min !seconds (now () -. t0);
    if rep = 1 then counters := collect os !counters
  done;
  make_arm
    ~label:
      (Printf.sprintf "%s%s%s"
         (if tagged then "tag+" else "")
         (if sblocks then "sb+" else "")
         (if tlb then "tlb" else "no-tlb"))
    ~tagged ~sblocks ~tlb ~views:true ~reps:(max 1 reps) ~seconds:!seconds
    ~counters:!counters

(* ------------------------------------------------------------------ *)
(* Warm vs cold TLB                                                    *)
(* ------------------------------------------------------------------ *)

let syscall_loop =
  Action.repeat 500 [ Action.Syscall "getpid"; Action.Syscall "getuid" ]
  @ [ Action.Exit ]

(* Two identical syscall-heavy processes in the {e same} guest: the
   first pays every compulsory TLB miss (cold), the second runs with the
   kernel's working set already cached (warm — only its own kernel stack
   pages miss). *)
let warm_cold image =
  let os = Os.create ~config:Unixbench.bench_config ~tlb:true image in
  let measure () =
    let p = Os.spawn os ~name:"ubench" syscall_loop in
    let i0 = Os.instructions os in
    let t0 = now () in
    Os.run ~until:(fun _ -> Process.is_exited p) os;
    let dt = now () -. t0 in
    let di = Os.instructions os - i0 in
    (dt, di)
  in
  let cold_s, cold_i = measure () in
  let warm_s, warm_i = measure () in
  ( (cold_s, cold_i, ips ~instructions:cold_i ~reps:1 ~seconds:cold_s),
    (warm_s, warm_i, ips ~instructions:warm_i ~reps:1 ~seconds:warm_s) )

(* ------------------------------------------------------------------ *)
(* Driver + JSON                                                       *)
(* ------------------------------------------------------------------ *)

type t = {
  reps : int;
  unixbench : arm list;
  unixbench_speedup : float;  (* tlb vs no-tlb, views on *)
  unixbench_speedup_noviews : float;
  unixbench_speedup_sblocks : float;  (* sb+tlb vs tlb, views on *)
  unixbench_speedup_sblocks_noviews : float;
  httperf : arm list;
  httperf_speedup : float;
  httperf_speedup_sblocks : float;
  cold : float * int * float;  (* seconds, instructions, ips *)
  warm : float * int * float;
  block_store : Fc_isa.Block.stats;  (* recorded only, never gated *)
}

let speedup ~fast_arm ~base_arm =
  if base_arm.a_ips <= 0. then 0. else fast_arm.a_ips /. base_arm.a_ips

let find_arm arms ~tagged ~sblocks ~tlb ~views =
  List.find
    (fun a ->
      a.a_tagged = tagged && a.a_sblocks = sblocks && a.a_tlb = tlb
      && a.a_views = views)
    arms

let run ?(reps = 3) profiles =
  (* The untagged arms are the legacy scheme (global translation epoch,
     full flush on every view switch) whose deterministic counters the CI
     gate pins; the tag+ arms run the same workloads with view-tagged
     caching and must retire identically while flushing ~nothing on
     switches. *)
  let ub =
    [
      unixbench_arm profiles ~tagged:false ~sblocks:false ~tlb:true
        ~views_on:true ~reps;
      unixbench_arm profiles ~tagged:false ~sblocks:false ~tlb:false
        ~views_on:true ~reps;
      unixbench_arm profiles ~tagged:false ~sblocks:false ~tlb:true
        ~views_on:false ~reps;
      unixbench_arm profiles ~tagged:false ~sblocks:false ~tlb:false
        ~views_on:false ~reps;
      unixbench_arm profiles ~tagged:false ~sblocks:true ~tlb:true
        ~views_on:true ~reps;
      unixbench_arm profiles ~tagged:false ~sblocks:true ~tlb:true
        ~views_on:false ~reps;
      unixbench_arm profiles ~tagged:true ~sblocks:false ~tlb:true
        ~views_on:true ~reps;
      unixbench_arm profiles ~tagged:true ~sblocks:true ~tlb:true
        ~views_on:true ~reps;
    ]
  in
  let hp =
    [
      httperf_arm profiles ~tagged:false ~sblocks:false ~tlb:true ~reps;
      httperf_arm profiles ~tagged:false ~sblocks:false ~tlb:false ~reps;
      httperf_arm profiles ~tagged:false ~sblocks:true ~tlb:true ~reps;
      httperf_arm profiles ~tagged:true ~sblocks:true ~tlb:true ~reps;
    ]
  in
  let ub_arm = find_arm ub ~tagged:false in
  let cold, warm = warm_cold (Profiles.image profiles) in
  {
    reps = max 1 reps;
    unixbench = ub;
    unixbench_speedup =
      speedup
        ~fast_arm:(ub_arm ~sblocks:false ~tlb:true ~views:true)
        ~base_arm:(ub_arm ~sblocks:false ~tlb:false ~views:true);
    unixbench_speedup_noviews =
      speedup
        ~fast_arm:(ub_arm ~sblocks:false ~tlb:true ~views:false)
        ~base_arm:(ub_arm ~sblocks:false ~tlb:false ~views:false);
    unixbench_speedup_sblocks =
      speedup
        ~fast_arm:(ub_arm ~sblocks:true ~tlb:true ~views:true)
        ~base_arm:(ub_arm ~sblocks:false ~tlb:true ~views:true);
    unixbench_speedup_sblocks_noviews =
      speedup
        ~fast_arm:(ub_arm ~sblocks:true ~tlb:true ~views:false)
        ~base_arm:(ub_arm ~sblocks:false ~tlb:true ~views:false);
    httperf = hp;
    httperf_speedup =
      speedup ~fast_arm:(List.nth hp 0) ~base_arm:(List.nth hp 1);
    httperf_speedup_sblocks =
      speedup ~fast_arm:(List.nth hp 2) ~base_arm:(List.nth hp 0);
    cold;
    warm;
    block_store =
      Fc_isa.Block.stats (Fc_kernel.Image.blocks (Profiles.image profiles));
  }

let counters_to_json c =
  J.Obj
    [
      ("instructions", J.Int c.c_instructions);
      ("cycles", J.Int c.c_cycles);
      ("i_hits", J.Int c.c_i_hits);
      ("i_misses", J.Int c.c_i_misses);
      ("d_hits", J.Int c.c_d_hits);
      ("d_misses", J.Int c.c_d_misses);
      ("i_flushes", J.Int c.c_i_flushes);
      ("d_flushes", J.Int c.c_d_flushes);
      ("sb_built", J.Int c.c_sb_built);
      ("sb_hits", J.Int c.c_sb_hits);
      ("sb_invals", J.Int c.c_sb_invals);
      ("sb_chains", J.Int c.c_sb_chains);
      ("sb_restamps", J.Int c.c_sb_restamps);
      ("fl_view_switch", J.Int c.c_fl_view_switch);
      ("fl_cow", J.Int c.c_fl_cow);
      ("fl_growth", J.Int c.c_fl_growth);
      ("fl_explicit", J.Int c.c_fl_explicit);
    ]

let arm_to_json a =
  J.Obj
    [
      ("label", J.String a.a_label);
      ("tagged", J.Bool a.a_tagged);
      ("sblocks", J.Bool a.a_sblocks);
      ("tlb", J.Bool a.a_tlb);
      ("views", J.Bool a.a_views);
      ("reps", J.Int a.a_reps);
      ("seconds", J.Float a.a_seconds);
      ("ips", J.Float a.a_ips);
      ("counters", counters_to_json a.a_counters);
    ]

let point_to_json (s, i, v) =
  J.Obj
    [ ("seconds", J.Float s); ("instructions", J.Int i); ("ips", J.Float v) ]

let block_store_to_json (s : Fc_isa.Block.stats) =
  J.Obj
    [
      ("bodies", J.Int s.Fc_isa.Block.bodies);
      ("decodes", J.Int s.Fc_isa.Block.decodes);
      ("shared_hits", J.Int s.Fc_isa.Block.shared_hits);
      ("retained_bytes", J.Int s.Fc_isa.Block.retained_bytes);
    ]

let render_block_store (s : Fc_isa.Block.stats) =
  Printf.sprintf
    "block store (image-wide, cumulative): %d bodies, %d decodes, %d shared \
     hits, %d retained bytes\n"
    s.Fc_isa.Block.bodies s.Fc_isa.Block.decodes s.Fc_isa.Block.shared_hits
    s.Fc_isa.Block.retained_bytes

let to_json t =
  J.Obj
    [
      ("reps", J.Int t.reps);
      ( "unixbench",
        J.Obj
          [
            ("arms", J.List (List.map arm_to_json t.unixbench));
            ("speedup_tlb_vs_no_tlb", J.Float t.unixbench_speedup);
            ("speedup_tlb_vs_no_tlb_noviews", J.Float t.unixbench_speedup_noviews);
            ("speedup_sblocks_vs_tlb", J.Float t.unixbench_speedup_sblocks);
            ( "speedup_sblocks_vs_tlb_noviews",
              J.Float t.unixbench_speedup_sblocks_noviews );
          ] );
      ( "httperf",
        J.Obj
          [
            ("arms", J.List (List.map arm_to_json t.httperf));
            ("speedup_tlb_vs_no_tlb", J.Float t.httperf_speedup);
            ("speedup_sblocks_vs_tlb", J.Float t.httperf_speedup_sblocks);
          ] );
      ( "warm_cold",
        J.Obj [ ("cold", point_to_json t.cold); ("warm", point_to_json t.warm) ]
      );
      ("block_store", block_store_to_json t.block_store);
    ]

let render t =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "Execution fast paths: wall-clock guest instructions/sec (reps=%d)\n\n"
    t.reps;
  let arm_line a =
    pr "  %-16s %10.3fs  %12d instr  %12.0f ips  (iTLB %d/%d, dTLB %d/%d)\n"
      a.a_label a.a_seconds a.a_counters.c_instructions a.a_ips
      a.a_counters.c_i_hits a.a_counters.c_i_misses a.a_counters.c_d_hits
      a.a_counters.c_d_misses;
    if a.a_sblocks then
      pr "  %-16s   sblocks: %d built, %d hits, %d invalidations, %d chains, \
          %d restamps\n"
        "" a.a_counters.c_sb_built a.a_counters.c_sb_hits
        a.a_counters.c_sb_invals a.a_counters.c_sb_chains
        a.a_counters.c_sb_restamps;
    if a.a_tlb then
      pr "  %-16s   flushes: %d view_switch, %d cow, %d growth, %d explicit\n"
        "" a.a_counters.c_fl_view_switch a.a_counters.c_fl_cow
        a.a_counters.c_fl_growth a.a_counters.c_fl_explicit
  in
  pr "UnixBench suite:\n";
  List.iter arm_line t.unixbench;
  pr "  tlb speedup (views on):      %.2fx\n" t.unixbench_speedup;
  pr "  tlb speedup (views off):     %.2fx\n" t.unixbench_speedup_noviews;
  pr "  sblocks speedup (views on):  %.2fx over the tlb arm\n"
    t.unixbench_speedup_sblocks;
  pr "  sblocks speedup (views off): %.2fx over the tlb arm\n\n"
    t.unixbench_speedup_sblocks_noviews;
  pr "httperf batch (apache view):\n";
  List.iter arm_line t.httperf;
  pr "  tlb speedup:     %.2fx\n" t.httperf_speedup;
  pr "  sblocks speedup: %.2fx over the tlb arm\n\n" t.httperf_speedup_sblocks;
  let s, i, v = t.cold in
  pr "syscall loop, cold TLB: %.4fs  %d instr  %.0f ips\n" s i v;
  let s, i, v = t.warm in
  pr "syscall loop, warm TLB: %.4fs  %d instr  %.0f ips\n" s i v;
  pr "%s" (render_block_store t.block_store);
  Buffer.contents buf
