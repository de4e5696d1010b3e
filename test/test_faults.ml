(* The fault-injection subsystem and the recovery-storm governor:
   deterministic plans, defensive backtraces, config validation, and the
   end-to-end survival property the chaos matrix pins. *)

module Os = Fc_machine.Os
module Action = Fc_machine.Action
module Hyp = Fc_hypervisor.Hypervisor
module Layout = Fc_kernel.Layout
module Image = Fc_kernel.Image
module Facechange = Fc_core.Facechange
module Governor = Fc_core.Governor
module View_config = Fc_profiler.View_config
module App = Fc_apps.App
module Profiles = Fc_benchkit.Profiles
module Chaos = Fc_benchkit.Chaos
module Frand = Fc_faults.Frand
module Fault = Fc_faults.Fault
module Injector = Fc_faults.Injector

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let profiles () = Lazy.force Test_env.profiles

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------------- seeded randomness ---------------- *)

let test_frand_deterministic () =
  let a = Frand.create 42 and b = Frand.create 42 in
  for _ = 1 to 50 do
    check_int "same seed, same stream" (Frand.int a 1_000_000)
      (Frand.int b 1_000_000)
  done;
  let c = Frand.create 43 in
  let differs = ref false in
  let a = Frand.create 42 in
  for _ = 1 to 50 do
    if Frand.int a 1_000_000 <> Frand.int c 1_000_000 then differs := true
  done;
  check_bool "different seeds diverge" true !differs

let test_fault_gen_deterministic () =
  let p1 = Fault.gen ~seed:7 ~rounds:100 ~n:12 in
  let p2 = Fault.gen ~seed:7 ~rounds:100 ~n:12 in
  check_bool "same seed, same plan" true (p1 = p2);
  check_int "n faults" 12 (List.length p1.Fault.faults);
  List.iter
    (fun (e : Fault.event) ->
      check_bool "round in range" true (e.Fault.at_round >= 2 && e.Fault.at_round < 100))
    p1.Fault.faults;
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Fault.at_round <= b.Fault.at_round && sorted rest
    | _ -> true
  in
  check_bool "sorted by round" true (sorted p1.Fault.faults);
  let p3 = Fault.gen ~seed:8 ~rounds:100 ~n:12 in
  check_bool "different seeds, different plans" true (p1 <> p3)

(* ---------------- view-config validation ---------------- *)

let expect_reject name text needle =
  match View_config.of_string text with
  | Ok _ -> Alcotest.failf "%s: malformed config unexpectedly parsed" name
  | Error e ->
      if not (contains e needle) then
        Alcotest.failf "%s: error %S does not mention %S" name e needle

let test_config_rejects_negative () =
  expect_reject "negative" "app x\nbase -0x10 0x20\n" "negative"

let test_config_rejects_bad_range () =
  expect_reject "hi < lo" "app x\nbase 0x30 0x10\n" "bad range"

let test_config_rejects_out_of_order () =
  expect_reject "out of order" "app x\nbase 0x100 0x200\nbase 0x0 0x80\n"
    "out-of-order"

let test_config_rejects_overlap () =
  expect_reject "overlap" "app x\nbase 0x0 0x80\nbase 0x40 0xc0\n"
    "overlapping"

let test_config_rejects_truncated () =
  expect_reject "truncated" "app x\nbase 0x0 0x40\nbase 0x60\n" "line 3"

let test_config_accepts_adjacent () =
  match View_config.of_string "app x\nbase 0x0 0x40\nbase 0x40 0x80\n" with
  | Ok cfg -> check_int "merged size" 0x80 (View_config.size cfg)
  | Error e -> Alcotest.failf "adjacent spans rejected: %s" e

(* ---------------- defensive stack walks ---------------- *)

let image = lazy (Image.build_exn ())
let fresh () = let os = Os.create (Lazy.force image) in (os, Hyp.attach os)

let poke os a v =
  let gpa = Layout.gva_to_gpa a in
  let frame = Option.get (Os.ram_frame os ~gpa_page:(Layout.page_of gpa)) in
  Fc_mem.Phys_mem.write_u32 (Os.phys os)
    (Fc_mem.Phys_mem.addr_of_frame frame + (gpa mod Layout.page_size))
    v

let test_walk_cyclic_chain () =
  let os, hyp = fresh () in
  let top = Layout.kstack_top ~pid:0 in
  let e1 = top - 0x80 in
  let e2 = top - 0x40 in
  poke os e1 e2;
  poke os (e1 + 4) 0xc0100123;
  poke os e2 e1; (* back-edge: the chain loops *)
  poke os (e2 + 4) 0xc0100456;
  let w = Hyp.stack_walk hyp ~eip:0xc0100777 ~ebp:e1 () in
  Alcotest.(check (list int))
    "trustworthy prefix kept" [ 0xc0100777; 0xc0100123; 0xc0100456 ] w.Hyp.frames;
  (match w.Hyp.broken with
  | Some why -> check_bool "reports the cycle" true (contains why "cyclic")
  | None -> Alcotest.fail "cyclic chain reported as clean")

let test_walk_self_cycle () =
  let os, hyp = fresh () in
  let top = Layout.kstack_top ~pid:0 in
  let e = top - 0x40 in
  poke os e e; (* [ebp] = ebp: the tightest possible loop *)
  poke os (e + 4) 0xc0100123;
  let w = Hyp.stack_walk hyp ~eip:0xc0100777 ~ebp:e () in
  check_bool "broken" true (w.Hyp.broken <> None)

let test_walk_leaves_kernel_range () =
  let _os, hyp = fresh () in
  let w = Hyp.stack_walk hyp ~eip:0xc0100777 ~ebp:0x1000 () in
  Alcotest.(check (list int)) "only eip" [ 0xc0100777 ] w.Hyp.frames;
  match w.Hyp.broken with
  | Some why -> check_bool "reports the range" true (contains why "kernel range")
  | None -> Alcotest.fail "out-of-range rbp reported as clean"

let test_walk_depth_cap () =
  let os, hyp = fresh () in
  let top = Layout.kstack_top ~pid:0 in
  (* a long, well-formed chain climbing toward the stack top *)
  let base = top - 0x400 in
  for i = 0 to 30 do
    let e = base + (i * 0x20) in
    poke os e (e + 0x20);
    poke os (e + 4) (0xc0100100 + i)
  done;
  let w = Hyp.stack_walk hyp ~eip:0xc0100777 ~ebp:base ~max_depth:8 () in
  check_bool "frames bounded" true (List.length w.Hyp.frames <= 9);
  match w.Hyp.broken with
  | Some why -> check_bool "reports the cap" true (contains why "depth cap")
  | None -> Alcotest.fail "over-deep chain reported as clean"

let test_walk_clean_chain_still_clean () =
  let os, hyp = fresh () in
  let top = Layout.kstack_top ~pid:0 in
  let e1 = top - 0x80 in
  let e2 = top - 0x40 in
  poke os e1 e2;
  poke os (e1 + 4) 0xc0100123;
  poke os e2 0;
  poke os (e2 + 4) 0xc0100456;
  let w = Hyp.stack_walk hyp ~eip:0xc0100777 ~ebp:e1 () in
  check_bool "clean" true (w.Hyp.broken = None);
  Alcotest.(check (list int))
    "full chain" [ 0xc0100777; 0xc0100123; 0xc0100456 ] w.Hyp.frames

(* ---------------- governor state machine ---------------- *)

let tight_policy =
  {
    Governor.default_policy with
    Governor.window_cycles = 100;
    throttle_after = 2;
    storm_after = 4;
    cooldown_cycles = 50;
    quarantine_after = 2;
  }

let test_governor_throttle_then_storm () =
  let g = Governor.create tight_policy in
  let ev cycle = Governor.note_event g ~comm:"x" ~cycle in
  check_bool "1st: steady" true (ev 1 = `Steady);
  check_bool "2nd: throttle" true (ev 2 = `Throttle);
  check_bool "throttled state" true (Governor.state g ~comm:"x" = Governor.Throttled);
  check_bool "3rd: steady" true (ev 3 = `Steady);
  check_bool "4th: storm" true (ev 4 = `Storm 4);
  check_bool "degrade verdict" true
    (Governor.note_degraded g ~comm:"x" ~cycle:5 = `Degraded);
  check_bool "degraded state" true (Governor.state g ~comm:"x" = Governor.Degraded);
  check_bool "degraded comms stay steady" true (ev 6 = `Steady)

let test_governor_window_expiry () =
  let g = Governor.create tight_policy in
  let ev cycle = Governor.note_event g ~comm:"x" ~cycle in
  ignore (ev 0);
  ignore (ev 0);
  ignore (ev 0);
  (* the window is 100 cycles: these three are long gone by cycle 500 *)
  check_bool "expired events do not storm" true (ev 500 = `Steady)

let test_governor_renarrow_cooldown () =
  let g = Governor.create tight_policy in
  ignore (Governor.note_degraded g ~comm:"x" ~cycle:100);
  check_bool "not due before cooldown" false
    (Governor.renarrow_due g ~comm:"x" ~cycle:149);
  check_bool "due after cooldown" true
    (Governor.renarrow_due g ~comm:"x" ~cycle:150);
  Governor.note_renarrowed g ~comm:"x";
  check_bool "back to narrow" true (Governor.state g ~comm:"x" = Governor.Narrow)

let test_governor_quarantine_after_degradations () =
  let g = Governor.create tight_policy in
  check_bool "first degradation" true
    (Governor.note_degraded g ~comm:"x" ~cycle:0 = `Degraded);
  Governor.note_renarrowed g ~comm:"x";
  check_bool "second degradation quarantines" true
    (Governor.note_degraded g ~comm:"x" ~cycle:10 = `Quarantine);
  check_bool "quarantined state" true
    (Governor.state g ~comm:"x" = Governor.Quarantined);
  check_bool "quarantined comms never renarrow" false
    (Governor.renarrow_due g ~comm:"x" ~cycle:1_000_000)

let test_governor_unhandled_policy () =
  let die = Governor.create { tight_policy with Governor.on_unhandled = `Die } in
  check_bool "die policy dies" true (Governor.note_unhandled die ~comm:"x" = `Die);
  let g = Governor.create tight_policy in
  check_bool "first unhandled degrades" true
    (Governor.note_unhandled g ~comm:"x" = `Degrade);
  check_bool "second unhandled quarantines" true
    (Governor.note_unhandled g ~comm:"x" = `Quarantine);
  Governor.quarantine g ~comm:"x" ~cycle:0;
  check_bool "quarantined comms tolerate" true
    (Governor.note_unhandled g ~comm:"x" = `Tolerate)

(* ---------------- injector end-to-end ---------------- *)

let enforced_guest ?governor ~load_view () =
  let profiles = profiles () in
  let app = App.find_exn "top" in
  let os = Os.create ~config:(App.os_config app) (Profiles.image profiles) in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable ?governor hyp in
  if load_view then
    ignore (Facechange.load_view fc (Profiles.config_of profiles "top"));
  (os, hyp, fc, app)

let test_injector_breakpoint_misses () =
  let os, hyp, fc, app = enforced_guest ~load_view:true () in
  let (_ : Fc_machine.Process.t) = Os.spawn os ~name:"top" (app.App.script 3) in
  let (_ : Fc_machine.Process.t) = Os.spawn os ~name:"top" (app.App.script 3) in
  let plan =
    {
      Fault.seed = 0;
      faults = [ { Fault.at_round = 3; kind = Fault.Miss_breakpoints { count = 3 } } ];
    }
  in
  let inj = Injector.arm ~os ~hyp ~fc plan in
  Os.run ~max_rounds:20_000 os;
  Injector.disarm inj;
  check_int "all three breakpoints swallowed" 3 (Injector.bp_misses inj);
  check_int "one fault event" 1 (Injector.injected inj)

let spurious_plan =
  {
    Fault.seed = 0;
    faults =
      [ { Fault.at_round = 4; kind = Fault.Spurious_ud2 { frac = 5_000; count = 3 } } ];
  }

let test_spurious_ud2_ungoverned_panics () =
  (* no views loaded: the exit arrives under the full kernel view, which
     the paper's recovery path cannot explain -> guest death *)
  let os, hyp, fc, app = enforced_guest ~load_view:false () in
  let (_ : Fc_machine.Process.t) = Os.spawn os ~name:"top" (app.App.script 3) in
  let inj = Injector.arm ~os ~hyp ~fc spurious_plan in
  (match Os.run ~max_rounds:20_000 os with
  | () -> Alcotest.fail "expected a guest panic without the governor"
  | exception Os.Guest_panic m ->
      check_bool "the paper's failure mode" true
        (contains m "full kernel view"));
  Injector.disarm inj

let test_spurious_ud2_governed_survives () =
  let os, hyp, fc, app =
    enforced_guest ~governor:Governor.default_policy ~load_view:false ()
  in
  let p = Os.spawn os ~name:"top" (app.App.script 3) in
  let inj = Injector.arm ~os ~hyp ~fc spurious_plan in
  (match Os.run ~max_rounds:20_000 os with
  | () -> ()
  | exception Os.Guest_panic m -> Alcotest.failf "governed guest died: %s" m);
  Injector.disarm inj;
  check_bool "workload completed" true (Fc_machine.Process.is_exited p);
  check_bool "the governor intervened" true
    (Facechange.degradations fc + Facechange.tolerated_faults fc > 0)

let test_storm_degrade_and_renarrow () =
  let policy =
    {
      Governor.default_policy with
      Governor.throttle_after = 1;
      storm_after = 2;
      cooldown_cycles = 1_000;
      quarantine_after = 99;
    }
  in
  let os, hyp, fc, app = enforced_guest ~governor:policy ~load_view:true () in
  let narrow = Facechange.selector fc ~comm:"top" in
  let p = Os.spawn os ~name:"top" (app.App.script 4) in
  let (_ : Fc_machine.Process.t) = Os.spawn os ~name:"side" (app.App.script 2) in
  let plan =
    {
      Fault.seed = 0;
      faults =
        [
          { Fault.at_round = 3; kind = Fault.Broken_rbp { frac = 1_000 } };
          { Fault.at_round = 4; kind = Fault.Broken_rbp { frac = 2_000 } };
        ];
    }
  in
  let inj = Injector.arm ~os ~hyp ~fc plan in
  (match Os.run ~max_rounds:20_000 os with
  | () -> ()
  | exception Os.Guest_panic m -> Alcotest.failf "governed guest died: %s" m);
  Injector.disarm inj;
  check_bool "workload completed" true (Fc_machine.Process.is_exited p);
  (* the second fault can land after the comm is already degraded, in which
     case no walk happens for it: only the first chain is guaranteed *)
  check_bool "broken chain detected" true (Facechange.broken_backtraces fc >= 1);
  check_bool "stormed" true (Facechange.storms fc >= 1);
  check_bool "degraded" true (Facechange.degradations fc >= 1);
  check_bool "renarrowed after cooldown" true (Facechange.renarrows fc >= 1);
  check_int "binding restored to the narrow view" narrow
    (Facechange.selector fc ~comm:"top")

let test_chaos_plan_deterministic () =
  let profiles = profiles () in
  let a = Chaos.run_plan profiles ~seed:11 in
  let b = Chaos.run_plan profiles ~seed:11 in
  check_bool "identical rows" true (a = b)

(* Plans whose [flip_view_byte] once landed inside a [call rel32]
   displacement: the UD2 pair turned the call into a valid call to a wild
   address and the governed guest died with "unmapped code".  The pair
   now snaps to an instruction boundary. *)
let test_governed_survives ~seed () =
  let row = Chaos.run_plan (profiles ()) ~seed in
  Alcotest.(check (option string)) "no panic" None row.Chaos.p_panic;
  check_bool "not wedged" false row.Chaos.p_wedged;
  check_bool "attribution exact" true row.Chaos.p_attribution_ok

(* A flip drawn anywhere in a function writes its pair on the start of
   one of that function's instructions of two or more bytes, never past
   its end: the final [leave; ret] is one byte each, so a draw inside
   the last multi-byte instruction must snap back, not into the next
   function. *)
let decode_at image a =
  match Fc_isa.Insn.decode ~read:(Image.read_byte image) a with
  | Ok r -> r
  | Error _ -> Alcotest.failf "no instruction at 0x%x" a

let test_snap_stays_in_function () =
  let image = Lazy.force image in
  List.iter
    (fun (p : Fc_isa.Asm.placed) ->
      let fn_end = p.addr + p.size in
      for gva = p.addr to fn_end - 1 do
        let s = Injector.snap_to_insn image gva in
        if s < p.addr || s + 2 > fn_end then
          Alcotest.failf "%s: draw 0x%x snapped outside to 0x%x" p.pname gva s;
        if snd (decode_at image s) < 2 then
          Alcotest.failf "%s: draw 0x%x snapped to a 1-byte insn" p.pname gva
      done)
    (Image.functions image)

(* The start of [p]'s last instruction of two or more bytes.  In the
   generated kernel that is always an [alu] of the size padding, just
   ahead of the final [leave; ret]. *)
let final_insn image (p : Fc_isa.Asm.placed) =
  let rec walk a last =
    if a >= p.addr + p.size then Option.get last
    else
      let _, len = decode_at image a in
      walk (a + len) (if len >= 2 then Some a else last)
  in
  walk p.addr None

(* A draw past the start of a function's final multi-byte instruction
   (inside it, or on the [leave; ret] after it) used to walk on into the
   next function — or, for the image's last function, off the text,
   leaving the pair mid-instruction.  It now snaps back onto that
   instruction. *)
let test_snap_final_insn () =
  let image = Lazy.force image in
  List.iter
    (fun (p : Fc_isa.Asm.placed) ->
      let last = final_insn image p in
      for gva = last + 1 to p.addr + p.size - 1 do
        check_int
          (Printf.sprintf "%s: draw at 0x%x" p.pname gva)
          last
          (Injector.snap_to_insn image gva)
      done)
    (Image.functions image)

(* ---------------- the survival property (QCheck) ---------------- *)

let prop_governed_never_panics =
  QCheck.Test.make
    ~name:
      "chaos plans under the governor: no panic, no wedge, attribution exact"
    ~count:100 (QCheck.int_range 1 1_000_000) (fun seed ->
      let row = Chaos.run_plan (profiles ()) ~seed in
      row.Chaos.p_panic = None
      && (not row.Chaos.p_wedged)
      && row.Chaos.p_attribution_ok
      && row.Chaos.p_validation_misses = 0)

let suites =
  [
    ( "faults",
      let tc n f = Alcotest.test_case n `Quick f in
      [
        tc "splitmix64 streams are seed-deterministic" test_frand_deterministic;
        tc "fault plans are pure functions of the seed" test_fault_gen_deterministic;
        tc "config: negative span rejected" test_config_rejects_negative;
        tc "config: hi < lo rejected" test_config_rejects_bad_range;
        tc "config: out-of-order span rejected" test_config_rejects_out_of_order;
        tc "config: overlapping span rejected" test_config_rejects_overlap;
        tc "config: truncated line rejected" test_config_rejects_truncated;
        tc "config: adjacent spans accepted" test_config_accepts_adjacent;
        tc "walk: cyclic rbp chain detected" test_walk_cyclic_chain;
        tc "walk: self-loop detected" test_walk_self_cycle;
        tc "walk: rbp leaving the kernel detected" test_walk_leaves_kernel_range;
        tc "walk: depth cap enforced" test_walk_depth_cap;
        tc "walk: clean chains stay clean" test_walk_clean_chain_still_clean;
        tc "governor: throttle then storm" test_governor_throttle_then_storm;
        tc "governor: window expiry" test_governor_window_expiry;
        tc "governor: renarrow cooldown" test_governor_renarrow_cooldown;
        tc "governor: quarantine after repeated degradations"
          test_governor_quarantine_after_degradations;
        tc "governor: unhandled-fault policy" test_governor_unhandled_policy;
        tc "injector: breakpoint misses" test_injector_breakpoint_misses;
        tc "spurious UD2 without governor: guest dies"
          test_spurious_ud2_ungoverned_panics;
        tc "spurious UD2 with governor: guest survives"
          test_spurious_ud2_governed_survives;
        tc "storm -> degrade -> renarrow round trip"
          test_storm_degrade_and_renarrow;
        tc "chaos plans are deterministic" test_chaos_plan_deterministic;
        tc "view-byte flip snaps inside its function"
          test_snap_stays_in_function;
        tc "view-byte flip past a function's last multi-byte insn snaps back"
          test_snap_final_insn;
      ]
      @ List.map
          (fun seed ->
            tc
              (Printf.sprintf "governed plan %d: view-byte flip survives" seed)
              (test_governed_survives ~seed))
          [ 108; 393; 1551; 285101; 372059 ] );
    ( "faults.properties",
      List.map QCheck_alcotest.to_alcotest [ prop_governed_never_panics ] );
  ]
