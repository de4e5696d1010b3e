(* The repo's benchmark: three workloads driven through the public API in
   a closed loop (one client, one domain).  See perfbench/README.md for
   why each workload exists and what every metric means. *)

module Os = Fc_machine.Os
module Process = Fc_machine.Process
module Action = Fc_machine.Action
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Stats = Fc_core.Stats
module App = Fc_apps.App
module Image = Fc_kernel.Image
module Profiles = Fc_benchkit.Profiles
module Httperf = Fc_benchkit.Httperf
module Chaos = Fc_benchkit.Chaos
module Frand = Fc_faults.Frand
module Frame_cache = Fc_mem.Frame_cache
module Fleet = Fc_host.Fleet
module Migrate = Fc_host.Migrate
module Snapshot = Fc_snapshot.Snapshot
module Metrics = Fc_obs.Metrics
module J = Fc_obs.Jsonx

let span = Tracer.with_span
let now = Tracer.now

(* ---------------- guests ---------------- *)

(* The one place a guest is constructed.  Every workload runs the fast
   engine; [Os.create] defaults [sblocks] to false. *)
let new_guest ~config image = Os.create ~config ~sblocks:true image

(* Runtime (KVM) clocksource: the profiles are taken under ACPI PM, so
   kvmclock reads trigger the paper's benign cross-view recovery. *)
let runtime_config app =
  App.os_config ~clocksource:Fc_kernel.Irq_paths.Kvmclock app

(* Governed like fleet guests. *)
let govern os =
  let hyp = Hyp.attach os in
  (hyp, Facechange.enable ~governor:Chaos.chaos_policy hyp)

let digest ~app ~outcome os hyp fc =
  Fleet.guest ~index:0 ~app ~outcome ~stats:(Stats.capture fc)
    ~instructions:(Os.instructions os) ~cycles:(Os.cycles os)
    ~frame_keys:(Frame_cache.resident_keys (Hyp.frame_cache hyp))
    ()

let outcome_of f =
  match f () with () -> "ok" | exception Os.Guest_panic m -> "panic: " ^ m

let shuffle ~seed a =
  let r = Frand.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Frand.int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ---------------- per-op counters ---------------- *)

(* What the traced run reads from the program's own counters at op
   boundaries.  A level is reported as its value at the op's end; every
   other probe as its change over the op. *)
type probe = { p_name : string; p_level : bool; p_read : Metrics.t option -> float }

let reg ?(level = false) name key =
  {
    p_name = name;
    p_level = level;
    p_read =
      (function
      | None -> 0.
      | Some m -> float_of_int (Option.value ~default:0 (Metrics.find m key)));
  }

let flushes cause =
  {
    p_name = "tlb.flushes." ^ cause;
    p_level = false;
    p_read =
      (function
      | None -> 0.
      | Some m ->
          float_of_int
            (Option.value ~default:0
               (List.assoc_opt cause (Metrics.labels m "tlb.flushes"))));
  }

let gc name f = { p_name = name; p_level = false; p_read = (fun _ -> f (Gc.quick_stat ())) }

let probes =
  [|
    reg "os.instructions" "os.instructions";
    reg "os.context_switches" "os.context_switches";
    reg "sb.blocks_built" "sb.blocks_built";
    reg "sb.hits" "sb.hits";
    reg "sb.invalidations" "sb.invalidations";
    reg "sb.restamps" "sb.restamps";
    reg "sb.chain_follows" "sb.chain_follows";
    reg "tlb.i_hits" "tlb.i_hits";
    reg "tlb.i_misses" "tlb.i_misses";
    reg "tlb.d_misses" "tlb.d_misses";
    flushes "view_switch";
    flushes "cow";
    flushes "growth";
    flushes "explicit";
    reg "fc.view_switches" "fc.view_switches";
    reg "fc.switches_skipped" "fc.switches_skipped";
    reg "fc.switches_deferred" "fc.switches_deferred";
    reg "fc.recoveries" "fc.recoveries";
    reg "fc.recovered_bytes" "fc.recovered_bytes";
    reg "hyp.invalid_opcode_exits" "hyp.invalid_opcode_exits";
    reg "hyp.breakpoint_exits" "hyp.breakpoint_exits";
    reg "hyp.cycles_charged" "hyp.cycles_charged";
    reg "view.cow_breaks" "fc.cow_breaks";
    reg "frame_cache.hits" "cache.hits";
    reg "frame_cache.misses" "cache.misses";
    reg ~level:true "view.pages" "fc.view_pages";
    reg ~level:true "view.shared_frames" "fc.shared_frames";
    reg ~level:true "phys.live_frames" "mem.live_frames";
    gc "gc.minor_words" (fun s -> s.Gc.minor_words);
    gc "gc.minor_collections" (fun s -> float_of_int s.Gc.minor_collections);
    gc "gc.major_collections" (fun s -> float_of_int s.Gc.major_collections);
  |]

let read m = Array.map (fun p -> p.p_read m) probes

let op_counts ~before ~after =
  Array.mapi (fun i p -> if p.p_level then after.(i) else after.(i) -. before.(i)) probes

let registry os = Some (Fc_obs.Obs.metrics (Os.obs os))

(* ---------------- ops ---------------- *)

type op = {
  o_lat : float;  (** host seconds *)
  o_instrs : int;
  o_cycles : int;
  o_traced : bool;
  o_work : string;  (** ops with equal [o_work] do identical guest work *)
  o_counts : float array;  (** per [probes]; empty in the untraced run *)
  o_migration : Migrate.report option;
}

(* Consecutive ops that do equivalent guest work as a whole, with their
   host time taken whole. *)
type window = { w_time : float; w_ops : op array }

(* Every workload's windows hold this many ops: a lifecycle cell of the
   8-app pool, a cycle through the 8 migrate checkpoints, or 8
   requests. *)
let window = 8

type outcome = {
  windows : window array;
  wall : float;  (** measured phase, host seconds *)
  failed : int;
  fingerprint : string;
  checks : string list;  (** failed output checks, for the log *)
}

let all_ops o = Array.concat (Array.to_list (Array.map (fun w -> w.w_ops) o.windows))

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  min_ops : int;
  prefix : int;
      (** sim_cycles_per_op and every per-op count cover exactly the
          first [prefix] ops, so they do not depend on how many ops the
          wall-clock window admitted *)
}

(* ---------------- lifecycle ---------------- *)

(* The fleet bench's 8-app pool. *)
let pool = [| "top"; "apache"; "gvim"; "tcpdump"; "bash"; "gzip"; "vsftpd"; "eog" |]
let round_budget = 12_000
let cell_guests = Array.length pool
let () = assert (cell_guests = window)

(* Cell ids keep fleet-merge spans apart from op ids. *)
let cell_op_base = 1_000_000

(* One guest through its whole lifecycle; [counting] reads the counters
   (the traced run). *)
let lifecycle_guest image profiles ~apps ~first ~counting ~sink index =
  Tracer.current_op := first + index;
  let before = if counting then read None else [||] in
  let t0 = now () in
  let name = apps.(index) in
  let app = App.find_exn name in
  let g, os =
    span "op" (fun () ->
        let os = span "create" (fun () -> new_guest ~config:(runtime_config app) image) in
        let hyp, fc = span "attach" (fun () -> govern os) in
        span "load_view" (fun () ->
            ignore (Facechange.load_view fc (Profiles.config_of profiles name) : int));
        span "spawn" (fun () ->
            ignore (Os.spawn os ~name (app.App.script 3) : Process.t);
            ignore
              (Os.spawn os ~name:"fleet-companion" ((App.find_exn "top").App.script 2)
                : Process.t));
        let outcome = span "run" (fun () -> outcome_of (fun () -> Os.run ~max_rounds:round_budget os)) in
        let g = span "export" (fun () -> { (digest ~app:name ~outcome os hyp fc) with Fleet.g_index = index }) in
        (g, os))
  in
  let lat = now () -. t0 in
  let counts = if counting then op_counts ~before ~after:(read (registry os)) else [||] in
  sink.(index) <-
    Some
      {
        o_lat = lat;
        o_instrs = g.Fleet.g_instructions;
        o_cycles = g.Fleet.g_cycles;
        o_traced = !Tracer.enabled;
        o_work = name;
        o_counts = counts;
        o_migration = None;
      };
  g

let lifecycle cfg (image, profiles) =
  let windows = ref [] and nops = ref 0 in
  let failed = ref 0 and checks = ref [] in
  let prefix_fps = Buffer.create 1024 in
  let digest_of_app = Hashtbl.create 8 in
  let cell = ref 0 in
  let t_start = now () in
  while !nops < cfg.min_ops || now () -. t_start < cfg.seconds do
    let c = !cell in
    Tracer.enabled := cfg.trace && c mod 2 = 0;
    let apps = shuffle ~seed:(Frand.mix cfg.seed c) (Array.copy pool) in
    let sink = Array.make cell_guests None in
    Tracer.current_op := cell_op_base + c;
    let t0 = now () in
    let report =
      span "fleet" (fun () ->
          Fleet.run ~domains:1 ~guests:cell_guests
            (lifecycle_guest image profiles ~apps ~first:!nops ~counting:cfg.trace ~sink))
    in
    let w_time = now () -. t0 in
    (* output checks: every guest ok, merged attribution exact, and each
       app's guest digest identical wherever it appears in the run *)
    let bad = Array.make cell_guests false in
    Array.iteri
      (fun i g ->
        if g.Fleet.g_outcome <> "ok" then begin
          bad.(i) <- true;
          checks := Printf.sprintf "guest %d (%s): %s" (!nops + i) g.Fleet.g_app g.Fleet.g_outcome :: !checks
        end;
        match Hashtbl.find_opt digest_of_app g.Fleet.g_app with
        | None -> Hashtbl.add digest_of_app g.Fleet.g_app g.Fleet.g_digest
        | Some d when String.equal d g.Fleet.g_digest -> ()
        | Some _ ->
            bad.(i) <- true;
            checks := Printf.sprintf "guest %d (%s): digest differs from the app's first guest" (!nops + i) g.Fleet.g_app :: !checks)
      report.Fleet.r_guests_detail;
    if not report.Fleet.r_per_app_ok then begin
      Array.fill bad 0 cell_guests true;
      checks := Printf.sprintf "cell %d: merged per-app attribution does not sum to the globals" c :: !checks
    end;
    failed := !failed + Array.fold_left (fun n b -> if b then n + 1 else n) 0 bad;
    if !nops < cfg.prefix then Buffer.add_string prefix_fps report.Fleet.r_fingerprint;
    windows := { w_time; w_ops = Array.map Option.get sink } :: !windows;
    nops := !nops + cell_guests;
    incr cell
  done;
  let wall = now () -. t_start in
  Tracer.enabled := false;
  {
    windows = Array.of_list (List.rev !windows);
    wall;
    failed = !failed;
    fingerprint = Digest.to_hex (Digest.string (Buffer.contents prefix_fps));
    checks = List.rev !checks;
  }

(* ---------------- serve ---------------- *)

(* The Fig. 7 server's listen-socket set-up, then one
   [Httperf.request_actions] per request. *)
let listen_actions =
  List.map
    (fun v -> Action.Syscall v)
    [ "socket:tcp"; "setsockopt:tcp"; "bind:tcp"; "listen:tcp"; "epoll_create"; "epoll_ctl" ]

let request_len = List.length Httperf.request_actions

(* A looping app's steady-state body: [script 1] minus [script 0]. *)
let split_loop (app : App.t) =
  let s0 = app.App.script 0 and s1 = app.App.script 1 in
  let rec common a b k =
    match (a, b) with x :: a', y :: b' when x = y -> common a' b' (k + 1) | _ -> k
  in
  let p = common s0 s1 0 in
  let body_len = List.length s1 - List.length s0 in
  let prefix = List.filteri (fun i _ -> i < p) s1 in
  let body = List.filteri (fun i _ -> i >= p && i < p + body_len) s1 in
  (prefix, body)

let top_prefix, top_body = split_loop (App.find_exn "top")

(* Both scripts stay topped up to at least [queue_depth] units, so the
   guest never drains them and its state does not grow with run length. *)
let queue_depth = 32

type server = {
  mutable os : Os.t;
  mutable hyp : Hyp.t;
  mutable fc : Facechange.t;
  apache : int;  (** pids *)
  top : int;
  mutable appended : int;  (** apache actions appended so far *)
}

let proc s pid =
  match Os.find_process s.os ~pid with
  | Some p -> p
  | None -> failwith (Printf.sprintf "pid %d vanished" pid)

let served s =
  (s.appended - List.length (proc s s.apache).Process.script - List.length listen_actions)
  / request_len

let append s ~requests ~bodies =
  let acts = List.concat (List.init requests (fun _ -> Httperf.request_actions)) in
  Process.append_script (proc s s.apache) acts;
  s.appended <- s.appended + List.length acts;
  Process.append_script (proc s s.top) (List.concat (List.init bodies (fun _ -> top_body)))

let top_up s =
  let queued pid len = List.length (proc s pid).Process.script / len in
  let requests = if queued s.apache request_len < queue_depth then queue_depth else 0 in
  let bodies = if queued s.top (List.length top_body) < queue_depth then queue_depth else 0 in
  append s ~requests ~bodies;
  (requests, bodies)

let boot_server image profiles =
  let apache = App.find_exn "apache" in
  let config = { (runtime_config apache) with Os.wake_delay = 2 } in
  let os = new_guest ~config image in
  let hyp, fc = govern os in
  List.iter
    (fun name -> ignore (Facechange.load_view fc (Profiles.config_of profiles name) : int))
    [ "apache"; "top" ];
  let a = Os.spawn os ~name:"apache" listen_actions in
  let t = Os.spawn os ~name:"top" top_prefix in
  let s =
    {
      os;
      hyp;
      fc;
      apache = a.Process.pid;
      top = t.Process.pid;
      appended = List.length listen_actions;
    }
  in
  ignore (top_up s : int * int);
  s

let serve_until s target = Os.run ~until:(fun _ -> served s >= target) s.os

let warmup_requests = 64

let warm_up s =
  while served s < warmup_requests do
    ignore (top_up s : int * int);
    serve_until s (served s + 1)
  done

(* One request.  Returns false if the guest did not serve it. *)
let serve_op s =
  let target = served s + 1 in
  ignore (top_up s : int * int);
  span "run" (fun () -> serve_until s target);
  served s >= target

let serve_checks s =
  if Stats.attribution_ok (Stats.capture s.fc) then []
  else [ "per-app attribution does not sum to the globals" ]

let server_digest s = (digest ~app:"apache" ~outcome:"ok" s.os s.hyp s.fc).Fleet.g_digest

(* Shared closed loop for the two long-lived-guest workloads.  [op]
   performs one op and reports whether it succeeded; [before] and
   [after] run around it, untimed and outside the measured phase.  The
   loop ends on a window boundary; a window's time is the sum of its ops'
   latencies. *)
let server_loop cfg s ~before ~op ~after ~work =
  let windows = ref [] and cur = ref [] and nops = ref 0 in
  let failed = ref 0 and checks = ref [] in
  let t_start = now () and paused = ref 0. in
  let untimed f =
    let p0 = now () in
    f ();
    paused := !paused +. (now () -. p0)
  in
  let dead = ref false in
  let close_window () =
    let w_ops = Array.of_list (List.rev !cur) in
    windows := { w_time = Array.fold_left (fun a o -> a +. o.o_lat) 0. w_ops; w_ops } :: !windows;
    cur := []
  in
  while
    (not !dead)
    && (!nops mod window <> 0 || !nops < cfg.min_ops || now () -. t_start -. !paused < cfg.seconds)
  do
    let index = !nops in
    let traced = cfg.trace && index / window mod 2 = 0 in
    Tracer.enabled := traced;
    Tracer.current_op := index;
    untimed (fun () -> before ~traced index);
    let os0 = s.os in
    let before = if cfg.trace then read (registry os0) else [||] in
    let i0 = Os.instructions os0 and c0 = Os.cycles os0 in
    let t0 = now () in
    let ok, mig =
      match span "op" (fun () -> op s) with
      | r -> r
      | exception Os.Guest_panic m ->
          dead := true;
          checks := Printf.sprintf "op %d: guest panic: %s" index m :: !checks;
          (false, None)
    in
    let lat = now () -. t0 in
    if not ok then begin
      incr failed;
      if not !dead then checks := Printf.sprintf "op %d: request not served" index :: !checks
    end;
    cur :=
      {
        o_lat = lat;
        o_instrs = Os.instructions s.os - i0;
        o_cycles = Os.cycles s.os - c0;
        o_traced = traced;
        o_work = work index;
        o_counts = (if cfg.trace then op_counts ~before ~after:(read (registry s.os)) else [||]);
        o_migration = mig;
      }
      :: !cur;
    if not !dead then untimed (fun () -> after index);
    incr nops;
    if !nops mod window = 0 then close_window ()
  done;
  if !cur <> [] then close_window ();
  let wall = now () -. t_start -. !paused in
  Tracer.enabled := false;
  (Array.of_list (List.rev !windows), wall, !failed, List.rev !checks)

let serve cfg s =
  let fingerprint = ref "" in
  let after index = if index = cfg.prefix - 1 then fingerprint := server_digest s in
  let windows, wall, failed, checks =
    server_loop cfg s ~before:(fun ~traced:_ _ -> ()) ~op:(fun s -> (serve_op s, None)) ~after
      ~work:(fun _ -> "request")
  in
  let post = serve_checks s in
  let o = { windows; wall; failed; fingerprint = !fingerprint; checks = checks @ post } in
  if post = [] then o else { o with failed = Array.length (all_ops o) }

(* ---------------- migrate ---------------- *)

let window_rounds = 4
let batch_requests = 2

(* Set-up captures [checkpoints] states of the warm serving guest,
   [checkpoint_gap] requests apart.  Before each op the guest is put back
   into one of them (untimed), so every op of a checkpoint does
   bit-identical work, like a lifecycle guest of one app; the seed orders
   the checkpoints within each cycle, and a cycle is one window. *)
let checkpoints = window
let checkpoint_gap = 3

type checkpoint = { wire : string; c_appended : int }

let take_checkpoints s =
  Array.init checkpoints (fun _ ->
      for _ = 1 to checkpoint_gap do
        ignore (top_up s : int * int);
        serve_until s (served s + 1)
      done;
      {
        wire = Snapshot.encode (Snapshot.capture ~fc:s.fc ~hyp:s.hyp s.os);
        c_appended = s.appended;
      })

let install s (os, hyp, fc) =
  match (hyp, fc) with
  | Some hyp, Some fc ->
      s.os <- os;
      s.hyp <- hyp;
      s.fc <- fc
  | _ -> failwith "a restored guest lost a layer"

let resume image s cp =
  match Snapshot.decode cp.wire with
  | Error e -> failwith ("checkpoint: " ^ Snapshot.error_to_string e)
  | Ok snap ->
      let r = Snapshot.restore ~image snap in
      install s (r.Snapshot.r_os, r.Snapshot.r_hyp, r.Snapshot.r_fc);
      s.appended <- cp.c_appended

(* What a migration op did to the guest, replayed on the unmigrated
   control: the same appends, the same run-until round boundaries. *)
type step = Append of int * int | Run_to of int

let migrate_op image ~log s =
  let requests, bodies = top_up s in
  log (Append (requests, bodies));
  let src = { Migrate.g_os = s.os; g_hyp = Some s.hyp; g_fc = Some s.fc; g_inj = None } in
  let dst, rep = span "migrate" (fun () -> Migrate.migrate ~image ~window_rounds src) in
  List.iter (fun r -> log (Run_to r.Migrate.mr_round)) (List.tl rep.Migrate.m_precopy);
  install s (dst.Migrate.g_os, dst.Migrate.g_hyp, dst.Migrate.g_fc);
  let target = served s + batch_requests in
  span "post_restore_run" (fun () -> serve_until s target);
  log (Run_to (Os.round s.os));
  (served s >= target, Some rep)

(* The standalone codec pass the traced run makes on the guest about to
   migrate, outside the op's span: each codec stage gets its own span. *)
let snapshot_pass image s =
  span "snapshot" (fun () ->
      let snap = span "snapshot.capture" (fun () -> Snapshot.capture ~fc:s.fc ~hyp:s.hyp s.os) in
      let wire = span "snapshot.encode" (fun () -> Snapshot.encode snap) in
      match span "snapshot.decode" (fun () -> Snapshot.decode wire) with
      | Error e -> failwith ("snapshot pass: " ^ Snapshot.error_to_string e)
      | Ok back -> ignore (span "snapshot.restore" (fun () -> Snapshot.restore ~image back) : Snapshot.restored))

let migrate cfg image s cps =
  let checkpoint_of index =
    (shuffle ~seed:(Frand.mix cfg.seed (index / checkpoints)) (Array.init checkpoints Fun.id)).(index mod checkpoints)
  in
  let steps = ref [] in
  (* per checkpoint, over the counted prefix: the digest every op must
     end with, and the first op's steps for the control *)
  let first = Hashtbl.create checkpoints in
  let fps = Buffer.create 1024 in
  let mismatched = ref [] in
  let before ~traced index =
    steps := [];
    resume image s cps.(checkpoint_of index);
    if traced then snapshot_pass image s
  in
  let after index =
    if index < cfg.prefix then begin
      let c = checkpoint_of index and d = server_digest s in
      Buffer.add_string fps d;
      if serve_checks s <> [] then mismatched := index :: !mismatched;
      match Hashtbl.find_opt first c with
      | None -> Hashtbl.add first c (d, List.rev !steps)
      | Some (d', _) -> if not (String.equal d d') then mismatched := index :: !mismatched
    end
  in
  let windows, wall, failed, checks =
    server_loop cfg s ~before ~op:(migrate_op image ~log:(fun st -> steps := st :: !steps)) ~after
      ~work:(fun index -> string_of_int (checkpoint_of index))
  in
  (* the unmigrated control of each checkpoint: restored the same way,
     fed the same request stream, run to the same round boundaries, never
     migrated — its digest must equal the migrated guest's *)
  let diverged =
    Hashtbl.fold
      (fun c (d, steps) acc ->
        resume image s cps.(c);
        List.iter
          (function
            | Append (requests, bodies) -> append s ~requests ~bodies
            | Run_to r -> Os.run ~until:(fun t -> Os.round t >= r) s.os)
          steps;
        if String.equal d (server_digest s) then acc else c :: acc)
      first []
  in
  let parity =
    List.map (Printf.sprintf "op %d: attribution broken, or digest differs from its checkpoint's first op") !mismatched
    @ List.map (Printf.sprintf "checkpoint %d: migrated guest digest differs from the unmigrated control") diverged
  in
  let attempted = Array.fold_left (fun n w -> n + Array.length w.w_ops) 0 windows in
  {
    windows;
    wall;
    failed = (if parity = [] then failed else failed + min cfg.prefix attempted);
    fingerprint = Digest.to_hex (Digest.string (Buffer.contents fps));
    checks = checks @ parity;
  }

(* ---------------- set-up ---------------- *)

type workload = Lifecycle | Serve | Migrate_w

let workload_of_string = function
  | "lifecycle" -> Lifecycle
  | "serve" -> Serve
  | "migrate" -> Migrate_w
  | w -> failwith ("unknown workload " ^ w)

(* Image build + profiling + workload prep; for the two server
   workloads the prep boots the guest and warms it up. *)
let setup_once w k =
  Tracer.current_op := -1 - k;
  let t0 = now () in
  let r =
    span "setup" (fun () ->
        let image = span "setup.image" Image.build_exn in
        let profiles = span "setup.profile" (fun () -> Profiles.compute image) in
        let server =
          match w with
          | Lifecycle -> None
          | Serve | Migrate_w ->
              let s = span "setup.boot" (fun () -> boot_server image profiles) in
              span "setup.warmup" (fun () -> warm_up s);
              let cps = if w = Migrate_w then span "setup.checkpoints" (fun () -> take_checkpoints s) else [||] in
              Some (s, cps)
        in
        (image, profiles, server))
  in
  (now () -. t0, r)

(* ---------------- statistics ---------------- *)

let sorted l = List.sort compare l
let median l = match sorted l with [] -> 0. | s -> List.nth s (List.length s / 2)

(* Nearest-rank quantile. *)
let quantile q l =
  match sorted l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      List.nth s (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type metric = { m_name : string; m_unit : string; m_value : float }

(* Host-time statistics divide the host's drift out, because the shared
   host's speed drifts by up to 2x over seconds (README, "Noise") while
   every window does the same work.  The run's best case for one window
   is the fastest time it saw for each op's work, summed over a window,
   plus the least time a window spent outside its ops (for lifecycle, the
   pool and merge of [Fleet.run]).  [ops_per_s] and [guest_mips] are a
   window's mean ops and instructions over that best case.  Every op's own
   latency is scaled by best case / its window's time, which removes the
   window's slowness but keeps the op's share of it; [op_p50_ms] and
   [op_p90_ms] are quantiles of these over all ops. *)
type host_stats = { ops_per_s : float; p50 : float; p90 : float; mips : float }

let sum f a = Array.fold_left (fun acc x -> acc +. f x) 0. a

let host_stats windows =
  match windows with
  | [] -> { ops_per_s = 0.; p50 = 0.; p90 = 0.; mips = 0. }
  | w0 :: _ ->
      let fastest = Hashtbl.create 8 in
      List.iter
        (fun w ->
          Array.iter
            (fun op ->
              match Hashtbl.find_opt fastest op.o_work with
              | Some l when l <= op.o_lat -> ()
              | _ -> Hashtbl.replace fastest op.o_work op.o_lat)
            w.w_ops)
        windows;
      let outside = List.fold_left (fun m w -> Float.min m (w.w_time -. sum (fun op -> op.o_lat) w.w_ops)) infinity windows in
      let best = sum (fun op -> Hashtbl.find fastest op.o_work) w0.w_ops +. Float.max 0. outside in
      let ops = List.concat_map (fun w -> List.map (fun op -> (op, best /. w.w_time)) (Array.to_list w.w_ops)) windows in
      let lats = List.map (fun (op, scale) -> op.o_lat *. scale) ops in
      let per_window x = x /. float_of_int (List.length windows) /. best in
      {
        ops_per_s = per_window (float_of_int (List.length ops));
        p50 = median lats;
        p90 = quantile 0.9 lats;
        mips = per_window (List.fold_left (fun a (op, _) -> a +. float_of_int op.o_instrs) 0. ops) /. 1e6;
      }

let e2e ~setup_s ~(o : outcome) ~prefix ~windows =
  let h = host_stats windows in
  let ops = all_ops o in
  let first = Array.sub ops 0 (min prefix (Array.length ops)) in
  let cycles = Array.fold_left (fun a op -> a + op.o_cycles) 0 first in
  let attempted = Array.length ops in
  [
    { m_name = "setup_s"; m_unit = "s"; m_value = setup_s };
    { m_name = "ops_per_s"; m_unit = "1/s"; m_value = h.ops_per_s };
    { m_name = "op_p50_ms"; m_unit = "ms"; m_value = 1e3 *. h.p50 };
    { m_name = "op_p90_ms"; m_unit = "ms"; m_value = 1e3 *. h.p90 };
    { m_name = "guest_mips"; m_unit = "Minstr/s"; m_value = h.mips };
    {
      m_name = "sim_cycles_per_op";
      m_unit = "cycles";
      m_value = float_of_int cycles /. float_of_int (max 1 (Array.length first));
    };
    { m_name = "peak_rss_mb"; m_unit = "MB"; m_value = peak_rss_mb () };
    {
      m_name = "ok_ratio";
      m_unit = "ratio";
      m_value = float_of_int (attempted - o.failed) /. float_of_int (max 1 attempted);
    };
  ]

(* Span-backed per-layer metrics: the per-op median of the named span
   (ms), over the traced ops. *)
let span_metrics =
  [
    ("create_ms", "create");
    ("attach_ms", "attach");
    ("load_view_ms", "load_view");
    ("run_ms", "run");
    ("export_ms", "export");
    ("migrate_ms", "migrate");
    ("post_restore_run_ms", "post_restore_run");
    ("snapshot.capture_ms", "snapshot.capture");
    ("snapshot.encode_ms", "snapshot.encode");
    ("snapshot.decode_ms", "snapshot.decode");
    ("snapshot.restore_ms", "snapshot.restore");
  ]

let count_units =
  [
    ("hyp.cycles_charged", "cycles");
    ("fc.recovered_bytes", "bytes");
    ("gc.minor_words", "words");
  ]

let per_layer ~spans ~(o : outcome) ~prefix ~overhead_pct =
  let ms l = 1e3 *. median l in
  let setup name = median (List.map Tracer.duration (List.filter (fun s -> s.Tracer.name = name) spans)) in
  let ops = all_ops o in
  let first = Array.sub ops 0 (min prefix (Array.length ops)) in
  let nfirst = float_of_int (max 1 (Array.length first)) in
  let sum i = Array.fold_left (fun a op -> a +. op.o_counts.(i)) 0. first in
  let idx name =
    let rec go i = if probes.(i).p_name = name then i else go (i + 1) in
    go 0
  in
  let per_op name = sum (idx name) /. nfirst in
  let ratio num den = if den = 0. then 0. else num /. den in
  let mig f =
    Array.fold_left
      (fun a op -> match op.o_migration with Some r -> a +. float_of_int (f r) | None -> a)
      0. first
    /. nfirst
  in
  let merge =
    (* the fleet span's self time: Fleet.run's pool and merge, per guest *)
    List.map (fun v -> v /. float_of_int cell_guests) (Tracer.per_op ~self:true spans "fleet")
  in
  let m name unit value = { m_name = name; m_unit = unit; m_value = value } in
  [ m "setup.image_s" "s" (setup "setup.image"); m "setup.profile_s" "s" (setup "setup.profile") ]
  @ List.map (fun (name, sp) -> m name "ms" (ms (Tracer.per_op spans sp))) span_metrics
  @ [ m "merge_ms" "ms" (ms merge) ]
  @ (Array.to_list probes
    |> List.filter (fun p -> p.p_name <> "tlb.i_hits")
    |> List.map (fun p ->
           m p.p_name (Option.value ~default:"count" (List.assoc_opt p.p_name count_units)) (per_op p.p_name)))
  @ [
      m "sb.hit_ratio" "ratio"
        (let served = per_op "sb.hits" +. per_op "sb.chain_follows" in
         ratio served (served +. per_op "sb.blocks_built"));
      m "tlb.i_hit_ratio" "ratio"
        (ratio (per_op "tlb.i_hits") (per_op "tlb.i_hits" +. per_op "tlb.i_misses"));
      m "snapshot.bytes" "bytes" (mig (fun r -> r.Migrate.m_snapshot_bytes));
      m "migrate.pages_copied" "count" (mig (fun r -> r.Migrate.m_pages_copied));
      m "migrate.sim_downtime_cycles" "cycles" (mig (fun r -> r.Migrate.m_downtime_cycles));
      m "trace.overhead_pct" "%" overhead_pct;
    ]

let metrics_json ms =
  J.Obj (List.map (fun m -> (m.m_name, J.Obj [ ("value", J.Float m.m_value); ("unit", J.String m.m_unit) ])) ms)

(* ---------------- main ---------------- *)

let usage = "fcbench --workload lifecycle|serve|migrate --seed N --seconds S --trace 0|1 [--ops N]"

(* setup_s is the median of this many set-ups in each run. *)
let setups = 5

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.) and trace = ref (-1) in
  let ops = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "lifecycle | serve | migrate");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "length of the measured phase");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: traced per-layer metrics");
      ("--ops", Arg.Set_int ops, "minimum ops (default: enough for a p90 with >= 10 samples beyond)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !workload = "" || !seed < 0 || !seconds < 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let w = workload_of_string !workload in
  let traced = !trace = 1 in
  (* default op floor: 32 windows, so the p90 has at least 25 samples
     beyond it; the counted prefix is a fixed 8 cells / 256 requests /
     32 migrations (4 checkpoint cycles) *)
  let default_prefix = match w with Lifecycle -> 64 | Serve -> 256 | Migrate_w -> 32 in
  let min_ops = if !ops > 0 then !ops else 32 * window in
  let min_ops = (min_ops + window - 1) / window * window in
  let cfg =
    { seed = !seed; seconds = !seconds; trace = traced; min_ops; prefix = min default_prefix min_ops }
  in
  Tracer.enabled := traced;
  let setup_times, last =
    let rec go k acc =
      let t, r = setup_once w k in
      if k + 1 = setups then (List.rev (t :: acc), r) else go (k + 1) (t :: acc)
    in
    go 0 []
  in
  Tracer.enabled := false;
  Gc.compact ();
  let image, profiles, server = last in
  let o =
    match (w, server) with
    | Lifecycle, _ -> lifecycle cfg (image, profiles)
    | Serve, Some (s, _) -> serve cfg s
    | Migrate_w, Some (s, cps) -> migrate cfg image s cps
    | _ -> assert false
  in
  let setup_s = median setup_times in
  let ops = Array.to_list (all_ops o) in
  let e = e2e ~setup_s ~o ~prefix:cfg.prefix ~windows:(Array.to_list o.windows) in
  Printf.printf "# workload=%s seed=%d ops=%d prefix=%d wall=%.3fs setups=[%s]\n" !workload cfg.seed
    (List.length ops) cfg.prefix o.wall
    (String.concat "; " (List.map (Printf.sprintf "%.3f") setup_times));
  Printf.printf "# fingerprint=%s\n" o.fingerprint;
  List.iter (Printf.printf "# check failed: %s\n") o.checks;
  let metrics =
    if not traced then e
    else begin
      let spans = Tracer.spans () in
      let lats traced = List.filter_map (fun op -> if op.o_traced = traced then Some op.o_lat else None) ops in
      let traced_lats = lats true and plain_lats = lats false in
      let overhead_pct = 100. *. ((median traced_lats /. median plain_lats) -. 1.) in
      let layer = per_layer ~spans ~o ~prefix:cfg.prefix ~overhead_pct in
      let self =
        List.sort_uniq compare (List.map (fun s -> s.Tracer.name) spans)
        |> List.map (fun name ->
               ( name,
                 J.Obj
                   [
                     ("spans", J.Int (List.length (List.filter (fun s -> s.Tracer.name = name) spans)));
                     ("median_ms", J.Float (1e3 *. median (Tracer.per_op spans name)));
                     ("self_median_ms", J.Float (1e3 *. median (Tracer.per_op ~self:true spans name)));
                   ] ))
      in
      let plain_windows = List.filter (fun w -> not w.w_ops.(0).o_traced) (Array.to_list o.windows) in
      let plain_e2e = e2e ~setup_s ~o ~prefix:cfg.prefix ~windows:plain_windows in
      (try Unix.mkdir "perfbench/out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let file = Printf.sprintf "perfbench/out/%s-seed%d.trace.json" !workload cfg.seed in
      let oc = open_out file in
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("workload", J.String !workload);
                ("seed", J.Int cfg.seed);
                ("fingerprint", J.String o.fingerprint);
                ("end_to_end", metrics_json plain_e2e);
                ("per_layer", metrics_json layer);
                ("self_time", J.Obj self);
                ("spans", Tracer.to_json spans);
              ]));
      close_out oc;
      Printf.printf "# trace written to %s (%d spans)\n" file (List.length spans);
      layer
    end
  in
  let attempted = List.length ops in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (o.failed = 0 && o.checks = []));
            ("attempted", J.Int attempted);
            ("failed", J.Int o.failed);
            ("metrics", metrics_json metrics);
          ]))
