(* Decode-once superblocks (lib/machine/cpu.ml + the Os block cache):
   coherence of the invalidation sources — a view switch that remaps a
   page to a different host frame, the backing frame's version (COW
   breaks and in-place recovery writes), trap-set changes — plus the
   retention fast paths (an EPT epoch bump whose translations are
   unchanged restamps warm blocks instead of rebuilding them, and the
   per-frame store resurrects blocks when a view switches back); chain
   fallback across invalidated targets; interrupt delivery parity; and
   the full {sblocks} x {tlb} differential matrix under random fault
   plans.  Every test runs its scenario on twin guests (superblocks on
   and off) and requires identical observables, so the coherence
   machinery is proven not just to invalidate, but to invalidate without
   changing behavior. *)

module Cpu = Fc_machine.Cpu
module Os = Fc_machine.Os
module Process = Fc_machine.Process
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module Governor = Fc_core.Governor
module View = Fc_core.View
module Ept = Fc_mem.Ept
module Phys = Fc_mem.Phys_mem
module Image = Fc_kernel.Image
module Layout = Fc_kernel.Layout
module Irq_paths = Fc_kernel.Irq_paths
module Metrics = Fc_obs.Metrics
module App = Fc_apps.App
module Profiles = Fc_benchkit.Profiles

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let profiles () = Lazy.force Test_env.profiles
let image () = Lazy.force Test_env.image

let metric os key =
  Option.value ~default:0 (Metrics.find (Fc_obs.Obs.metrics (Os.obs os)) key)

(* ---------------- twin-guest scenario runner ---------------- *)

(* Run [scenario] on one guest with full tracing armed.  [noted] is a
   per-run scratchpad: scheduled hooks stash counter snapshots there so a
   test can compare hook-time values against end-of-run values without
   sharing mutable state between the two twins. *)
let run_engine ~sblocks scenario =
  let os = Os.create ~sblocks (image ()) in
  let noted : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let ih = ref 0 and eh = ref 0 in
  Os.set_trace os (Some (fun a len -> ih := (((!ih * 31) + a) * 31) + len));
  Os.set_event_trace os (Some (fun ev -> eh := (!eh * 31) + Hashtbl.hash ev));
  scenario os noted;
  ( os,
    noted,
    (Os.instructions os, Os.cycles os, !ih, !eh, Os.vmi_current_task os) )

let note os noted name key = Hashtbl.replace noted name (metric os key)
let noted_exn noted key = Hashtbl.find noted key

(* Identical observables on both twins, or the scenario is not
   behavior-invisible under superblocks.  Returns the sblocks guest (and
   its scratchpad) for counter assertions. *)
let twin_check ~label scenario =
  let os_on, noted_on, on = run_engine ~sblocks:true scenario in
  let _os_off, _noted_off, off = run_engine ~sblocks:false scenario in
  let i_off, c_off, ih_off, eh_off, task_off = off in
  let i_on, c_on, ih_on, eh_on, task_on = on in
  check_int (label ^ ": instructions retired") i_off i_on;
  check_int (label ^ ": cycles") c_off c_on;
  check_int (label ^ ": instruction trace") ih_off ih_on;
  check_int (label ^ ": call/return events") eh_off eh_on;
  check_bool (label ^ ": VMI current task") true (task_off = task_on);
  (os_on, noted_on)

let spawn_app os ~name ?(len = 16) () =
  let app = App.find_exn name in
  ignore (Os.spawn os ~name (app.App.script len) : Process.t)

(* ---------------- invalidation sources ---------------- *)

(* View switch: Facechange flips the fetch path between the bound app's
   view frames and the full-view frames on every context switch, so
   kernel-text pages really change host frame mid-run.  A warm block
   whose page now maps elsewhere must never execute — the probe's
   re-translation kills it — while the per-instruction twin proves the
   kill is behavior-invisible. *)
let test_view_switch_invalidates () =
  let scenario os noted =
    let hyp = Hyp.attach os in
    let fc = Facechange.enable ~governor:Governor.default_policy hyp in
    let p = profiles () in
    ignore (Facechange.load_view fc (Profiles.config_of p "top") : int);
    spawn_app os ~name:"top" ~len:8 ();
    (* unbound: runs under the full view, so every context switch between
       the two remaps the shared kernel text *)
    spawn_app os ~name:"gzip" ();
    Os.schedule_at_round os 3 (fun os -> note os noted "hits_pre" "sb.hits");
    Os.run os
  in
  let os_on, noted = twin_check ~label:"view-switch" scenario in
  check_bool "blocks warm under switching" true (noted_exn noted "hits_pre" > 0);
  check_bool "remapped pages invalidated warm blocks" true
    (metric os_on "sb.invalidations" > 0);
  (* the store bounds the rebuild cost: switching back to a frame already
     decoded resurrects its blocks, so hits outnumber builds even under
     per-context-switch view churn *)
  check_bool "retention keeps rebuilds below hits" true
    (metric os_on "sb.hits" > metric os_on "sb.blocks_built")

(* The converse retention property: [Ept.set_dir] bumps the epoch even
   when the directories it installs translate identically (install a
   view, restore the original — net effect nil).  Warm blocks must be
   restamped in place, not invalidated: the epoch is a fast path, the
   frame identity is the truth. *)
let test_epoch_restamp_retains () =
  let scenario os noted =
    let hyp = Hyp.attach os in
    let cfg = Profiles.config_of (profiles ()) "top" in
    let v = View.build ~hyp ~index:1 cfg in
    spawn_app os ~name:"gzip" ();
    Os.schedule_at_round os 3 (fun os ->
        note os noted "hits_pre" "sb.hits";
        note os noted "flushes_pre" "tlb.i_flushes";
        List.iter
          (fun (dir, tbl) -> Ept.set_dir (Os.ept os) ~dir (Some tbl))
          (View.tables v);
        List.iter
          (fun (dir, _) ->
            Ept.set_dir (Os.ept os) ~dir (Hyp.original_table hyp ~dir))
          (View.tables v));
    Os.run os;
    note os noted "flushes_end" "tlb.i_flushes";
    View.destroy v
  in
  let os_on, noted = twin_check ~label:"epoch-restamp" scenario in
  check_bool "blocks warm before the bump" true (noted_exn noted "hits_pre" > 0);
  check_bool "the epoch really moved" true
    (noted_exn noted "flushes_end" > noted_exn noted "flushes_pre");
  check_int "unchanged translations never invalidate" 0
    (metric os_on "sb.invalidations")

(* In-place write: [Phys.touch] on the hot syscall-path text frame bumps
   its version without changing a byte — the signal an in-place
   lazy-recovery write emits, and the only invalidation source in this
   scenario (no set_dir, no map_page, no table_set after boot). *)
let test_version_invalidates () =
  let scenario os noted =
    spawn_app os ~name:"gzip" ();
    Os.schedule_at_round os 3 (fun os ->
        note os noted "invals_pre" "sb.invalidations";
        note os noted "hits_pre" "sb.hits";
        note os noted "flushes_at_write" "tlb.i_flushes";
        let a = Os.resolve_exn os "syscall_call" in
        let gpa_page = Layout.page_of (Layout.gva_to_gpa a) in
        match Os.ram_frame os ~gpa_page with
        | Some frame -> Phys.touch (Os.phys os) frame
        | None -> Alcotest.fail "syscall_call frame missing");
    Os.run os;
    note os noted "flushes_end" "tlb.i_flushes"
  in
  let os_on, noted = twin_check ~label:"in-place-write" scenario in
  check_bool "blocks warm before the write" true (noted_exn noted "hits_pre" > 0);
  check_int "no invalidations before the write" 0 (noted_exn noted "invals_pre");
  check_bool "the write invalidated warm blocks" true
    (metric os_on "sb.invalidations" > 0);
  (* and the epoch never moved: the invalidation was version-driven *)
  check_int "no epoch bump involved"
    (noted_exn noted "flushes_at_write")
    (noted_exn noted "flushes_end")

(* A COW break during enforced execution: the first write into a shared
   view frame splices a private copy into the installed table
   ([Ept.table_set] + the flush hook) while superblocks built from the
   old frame are live.  Rewriting the byte with its current value keeps
   the twins comparable. *)
let test_cow_break_invalidates () =
  let covered_gva v =
    let base = Image.text_base (image ()) in
    let rec go a =
      if a >= base + 0x40000 then Alcotest.fail "no covered page"
      else if View.covers v ~gva:a then a
      else go (a + Layout.page_size)
    in
    go base
  in
  let scenario os noted =
    let hyp = Hyp.attach os in
    let fc = Facechange.enable ~governor:Governor.default_policy hyp in
    let p = profiles () in
    let idx = Facechange.load_view fc (Profiles.config_of p "top") in
    (* a byte-identical sibling forces the loaded view's pages into
       shared frames, so the write below must break COW *)
    let sib = View.build ~hyp ~index:77 (Profiles.config_of p "top") in
    spawn_app os ~name:"top" ~len:8 ();
    Os.schedule_at_round os 4 (fun os ->
        note os noted "hits_pre" "sb.hits";
        match Facechange.find_view fc idx with
        | None -> Alcotest.fail "view vanished"
        | Some v -> (
            let g = covered_gva v in
            match View.read_code v ~gva:g with
            | Some b ->
                View.write_code v ~gva:g b;
                Hashtbl.replace noted "cow_breaks" (View.cow_breaks v)
            | None -> Alcotest.fail "unreadable view byte"));
    Os.run os;
    ignore (sib : View.t)
  in
  let os_on, noted = twin_check ~label:"cow-break" scenario in
  check_bool "blocks warm before the break" true (noted_exn noted "hits_pre" > 0);
  check_bool "the write privatized a shared frame" true
    (noted_exn noted "cow_breaks" > 0);
  check_bool "warm blocks invalidated" true (metric os_on "sb.invalidations" > 0)

(* [Os.flush_fetch_tlbs] — the hook the view layer fires after a
   table_set splice — bumps the epoch conservatively over every page.
   Pages the splice did not actually remap must survive it (restamp, not
   rebuild); a page the splice did remap changes frame and is caught by
   the probe's re-translation, which the COW test exercises end to end. *)
let test_flush_hook_restamps_unchanged () =
  let scenario os noted =
    spawn_app os ~name:"gzip" ();
    Os.schedule_at_round os 3 (fun os ->
        note os noted "invals_pre" "sb.invalidations";
        note os noted "hits_pre" "sb.hits";
        note os noted "built_pre" "sb.blocks_built";
        Os.flush_fetch_tlbs os);
    Os.run os
  in
  let os_on, noted = twin_check ~label:"flush-hook" scenario in
  check_bool "blocks warm before the flush" true (noted_exn noted "hits_pre" > 0);
  check_int "no invalidations before the flush" 0 (noted_exn noted "invals_pre");
  check_int "unchanged mappings survive the flush" 0
    (metric os_on "sb.invalidations");
  check_bool "warm execution continued after the flush" true
    (metric os_on "sb.hits" > noted_exn noted "hits_pre")

(* Chained blocks: direct jumps/calls follow sb_next without re-probing
   the cache — but a chain link into an invalidated target must fall
   back to a rebuild, never execute the stale block. *)
let test_chain_rebuild_fallback () =
  let scenario os noted =
    spawn_app os ~name:"gzip" ();
    Os.schedule_at_round os 3 (fun os ->
        note os noted "chains_pre" "sb.chain_follows";
        note os noted "built_pre" "sb.blocks_built";
        (* version-bump the hot syscall-path frame: its blocks (and the
           store's copies) die for good, so chain links into them must
           fall back to real rebuilds *)
        let a = Os.resolve_exn os "syscall_call" in
        let gpa_page = Layout.page_of (Layout.gva_to_gpa a) in
        match Os.ram_frame os ~gpa_page with
        | Some frame -> Phys.touch (Os.phys os) frame
        | None -> Alcotest.fail "syscall_call frame missing");
    Os.run os
  in
  let os_on, noted = twin_check ~label:"chain-fallback" scenario in
  check_bool "chains were followed before the flush" true
    (noted_exn noted "chains_pre" > 0);
  check_bool "invalidated chain targets were rebuilt" true
    (metric os_on "sb.blocks_built" > noted_exn noted "built_pre");
  check_bool "chains resumed after the rebuild" true
    (metric os_on "sb.chain_follows" > noted_exn noted "chains_pre")

(* Trap-set changes: arming a breakpoint on an address in the {e middle}
   of a hot block must split rebuilt blocks at that address, so the
   entry-only trap probe still observes it — the per-instruction twin is
   the oracle. *)
let test_trap_set_splits_blocks () =
  let scenario os noted =
    spawn_app os ~name:"gzip" ();
    Os.schedule_at_round os 3 (fun os ->
        note os noted "invals_pre" "sb.invalidations";
        (* the second instruction of syscall_call: interior to a block
           warmed by every preceding syscall *)
        Os.set_trap os (Os.resolve_exn os "syscall_call" + 1));
    Os.run os
  in
  let os_on, noted = twin_check ~label:"trap-split" scenario in
  check_int "no invalidations before arming" 0 (noted_exn noted "invals_pre");
  check_bool "arming the trap invalidated warm blocks" true
    (metric os_on "sb.invalidations" > 0)

(* Interrupts are delivered at block boundaries only (between CPU
   invocations); the handler's full execution — and the vCPU state VMI
   reads afterwards — must match the per-instruction path. *)
let test_interrupt_at_boundary () =
  let scenario os noted =
    spawn_app os ~name:"apache" ~len:8 ();
    Os.schedule_at_round os 3 (fun os ->
        Hashtbl.replace noted "fired" 1;
        Os.inject_irq os Irq_paths.Net_rx_tcp;
        Os.inject_irq os Irq_paths.Disk);
    Os.run os
  in
  let _os_on, noted = twin_check ~label:"interrupt" scenario in
  check_int "interrupts were injected" 1 (noted_exn noted "fired")

(* ---------------- decode-cache eviction (regression) ---------------- *)

(* Churning views used to leak one decode line per freed view frame:
   the per-frame decode cache was never evicted, and a freed frame's
   number could be recycled for a non-code page (a kernel stack), parking
   its stale line forever.  With the release hook the line dies with the
   frame, so repeated load/run/unload cycles hold the cache at a steady
   size.  The spawn-before-load ordering below is what forced the leak in
   the unfixed code: each cycle the previous view's frame numbers are
   recycled for kernel stacks and the new view allocates fresh numbers. *)
let test_decode_cache_bounded_under_view_churn () =
  let os = Os.create (image ()) in
  let hyp = Hyp.attach os in
  let fc = Facechange.enable ~governor:Governor.default_policy hyp in
  let p = profiles () in
  let app = App.find_exn "top" in
  let sizes =
    List.init 6 (fun i ->
        ignore (Os.spawn os ~name:"top" (app.App.script 3) : Process.t);
        let idx = Facechange.load_view fc (Profiles.config_of p "top") in
        Os.run os;
        Facechange.unload_view fc idx;
        ignore (i : int);
        Os.decode_cache_frames os)
  in
  let steady = List.nth sizes 1 in
  List.iteri
    (fun i s ->
      if i >= 1 then
        check_int (Printf.sprintf "cycle %d holds the steady size" i) steady s)
    sizes

(* ---------------- the full differential matrix ---------------- *)

let test_enforced_matrix () =
  let p = profiles () in
  let base, _ =
    Differential.run ~tagged:false ~profiles:p ~sblocks:false ~tlb:false
      ~fault_seed:2 ()
  in
  List.iter
    (fun (tagged, sblocks, tlb) ->
      let fp, en =
        Differential.run ~tagged ~profiles:p ~sblocks ~tlb ~fault_seed:2 ()
      in
      let label = Differential.describe ~tagged ~sblocks ~tlb () in
      Differential.check_parity ~label ~expect:base ~got:fp;
      if sblocks then begin
        check_bool (label ^ ": blocks built") true (en.Differential.en_sb_built > 0);
        check_bool (label ^ ": block hits") true (en.Differential.en_sb_hits > 0);
        check_bool (label ^ ": chains followed") true
          (en.Differential.en_sb_chain_follows > 0);
        check_bool (label ^ ": view switching invalidates") true
          (en.Differential.en_sb_invalidations > 0)
      end
      else begin
        check_int (label ^ ": sb counters silent") 0 en.Differential.en_sb_built;
        check_int (label ^ ": sb hits silent") 0 en.Differential.en_sb_hits
      end)
    (List.tl Differential.tagged_configs)

let prop_matrix_invisible =
  QCheck.Test.make
    ~name:
      "tagged, superblock'd, TLB'd and plain guests are indistinguishable \
       under faults"
    ~count:4 (QCheck.int_range 1 1_000_000) (fun seed ->
      let p = profiles () in
      let base =
        Differential.fingerprint ~tagged:false ~profiles:p ~sblocks:false
          ~tlb:false ~fault_seed:seed ()
      in
      List.for_all
        (fun (tagged, sblocks, tlb) ->
          Differential.fingerprint ~tagged ~profiles:p ~sblocks ~tlb
            ~fault_seed:seed ()
          = base)
        (List.tl Differential.tagged_configs))

(* ---------------- block decoder vs the reference builder ---------------- *)

module Block = Fc_isa.Block
module Insn = Fc_isa.Insn
module Scan = Fc_isa.Scan

(* The superblock builder written the straightforward way: an
   option-returning byte reader, [Insn.decode ~read], [Scan.boundary]
   classification and a list of (op, pc, len, arg) tuples.  The
   allocation-free [Block.decode] must produce exactly its block. *)
let reference_block bytes ~base ~pc ~is_trap =
  let size = Bytes.length bytes in
  let read a =
    let o = a - base in
    if o >= 0 && o < size then Some (Bytes.get_uint8 bytes o) else None
  in
  let items = ref [] and n = ref 0 and exit_pc = ref (-1) in
  let add op a len arg =
    items := (op, a, len, arg) :: !items;
    incr n
  in
  let rec go a =
    if !n >= Block.cap || a - base > size - 6 || is_trap a then exit_pc := a
    else
      match Insn.decode ~read a with
      | Error _ -> exit_pc := a
      | Ok (insn, len) -> (
          match Scan.boundary insn ~pc:a ~len with
          | Scan.B_seq ->
              let op =
                match insn with
                | Insn.Push_ebp -> Block.S_push_ebp
                | Insn.Mov_ebp_esp -> Block.S_mov_ebp_esp
                | Insn.Leave -> Block.S_leave
                | _ -> Block.S_step
              in
              add op a len 0;
              go (a + len)
          | Scan.B_cond taken ->
              add Block.S_jcc a len taken;
              go (a + len)
          | Scan.B_jump target ->
              add Block.S_jmp a len target;
              exit_pc := target
          | Scan.B_call target ->
              add Block.S_call a len target;
              exit_pc := target
          | Scan.B_call_dynamic -> add Block.S_call_ind a len 0
          | Scan.B_return -> add Block.S_ret a len 0
          | Scan.B_stop -> (
              match insn with
              | Insn.Yield id -> add Block.S_yield a len id
              | _ -> add Block.S_ud2 a len 0))
  in
  go pc;
  let items = Array.of_list (List.rev !items) in
  let ops = Array.map (fun (o, _, _, _) -> o) items in
  let steps = Array.make (Array.length ops) 0 in
  for i = Array.length ops - 1 downto 0 do
    if ops.(i) = Block.S_step then
      steps.(i) <- (if i + 1 < Array.length ops then steps.(i + 1) else 0) + 1
  done;
  ( ops,
    Array.map (fun (_, p, _, _) -> p) items,
    Array.map (fun (_, _, l, _) -> l) items,
    Array.map (fun (_, _, _, g) -> g) items,
    steps,
    !exit_pc )

(* Page bytes biased toward the ISA: mostly whole encodings with random
   operands, plus unknown first bytes, known opcodes followed by a wrong
   second byte, and encodings cut short so the next fragment supplies
   their operand bytes. *)
let biased_page rs =
  let page = Bytes.create Layout.page_size in
  let byte () = Random.State.int rs 256 in
  let insn () =
    match Random.State.int rs 15 with
    | 0 -> Insn.Push_ebp
    | 1 -> Insn.Mov_ebp_esp
    | 2 -> Insn.Nop
    | 3 -> Insn.Ud2
    | 4 -> Insn.Call_rel (Random.State.int rs 0x20000 - 0x10000)
    | 5 -> Insn.Call_indirect
    | 6 -> Insn.Ret
    | 7 -> Insn.Leave
    | 8 -> Insn.Alu (byte ())
    | 9 -> Insn.Or_mem (byte ())
    | 10 -> Insn.Jmp_rel (Random.State.int rs 256 - 128)
    | 11 -> Insn.Jcc_rel (Random.State.int rs 256 - 128)
    | 12 -> Insn.Yield (byte ())
    | 13 -> Insn.Iret
    | _ -> Insn.Int_sw (byte ())
  in
  let fragment () =
    match Random.State.int rs 10 with
    | 0 -> [ byte () ]
    | 1 ->
        [ List.nth [ 0x89; 0x0f; 0xff ] (Random.State.int rs 3); byte () ]
    | 2 ->
        let e = Insn.encode (insn ()) in
        List.filteri (fun i _ -> i < max 1 (Random.State.int rs (List.length e))) e
    | _ -> Insn.encode (insn ())
  in
  let pos = ref 0 in
  while !pos < Layout.page_size do
    List.iter
      (fun b ->
        if !pos < Layout.page_size then begin
          Bytes.set_uint8 page !pos b;
          incr pos
        end)
      (fragment ())
  done;
  page

(* One body's fields, unpacked, in the reference builder's shape. *)
let unpack = function
  | None -> ([||], [||], [||], [||], [||], None)
  | Some b ->
      let f g = Array.init (Block.length b) (g b) in
      (f Block.op, f Block.pc, f Block.len, f Block.arg, f Block.steps, Some b.Block.exit)

(* A random decode site on a biased page: start anywhere, the page tail
   included; traps (page offsets) land mostly just ahead of the start,
   where a block would run into them. *)
let random_traps rs off =
  List.init (Random.State.int rs 4) (fun _ -> off + Random.State.int rs 96 - 8)

let random_site rs =
  let off =
    if Random.State.bool rs then Random.State.int rs Layout.page_size
    else Layout.page_size - 1 - Random.State.int rs 64
  in
  (off, random_traps rs off)

let prop_decode_block_matches_reference =
  QCheck.Test.make
    ~name:"allocation-free block decoder = Insn.decode reference builder"
    ~count:300 (QCheck.int_range 1 1_000_000) (fun seed ->
      let rs = Random.State.make [| seed |] in
      let base = Layout.text_base + (Random.State.int rs 64 * Layout.page_size) in
      let page = biased_page rs in
      let scratch = Block.scratch () in
      List.for_all
        (fun _ ->
          let off, traps = random_site rs in
          let pc = base + off in
          let is_trap a = List.mem (a - base) traps in
          let ops, pcs, lens, args, steps, exit =
            reference_block page ~base ~pc ~is_trap
          in
          let got = Block.decode scratch page ~base ~pc ~is_trap in
          let ops', pcs', lens', args', steps', exit' = unpack got in
          ops' = ops && pcs' = pcs && lens' = lens && args' = args
          && steps' = steps
          && (exit' = None || exit' = Some exit))
        (List.init 16 Fun.id))

(* The executor reads packed words through its own copies of Block's
   accessors (Cpu.Word); on every decoded op they must give Block's op,
   length, step run, pc and argument. *)
let word_agrees (b : Block.body) i =
  let w = b.Block.code.(i) in
  let op = Cpu.Word.op w and pc = b.Block.start + Cpu.Word.off w in
  op = Block.op b i
  && Cpu.Word.len w = Block.len b i
  && Cpu.Word.steps w = Block.steps b i
  && pc = Block.pc b i
  &&
  match op with
  | Block.S_jcc | Block.S_jmp | Block.S_call -> pc + Cpu.Word.operand w = Block.arg b i
  | Block.S_yield -> Cpu.Word.operand w = Block.arg b i
  | _ -> true

let prop_executor_words_match_block =
  QCheck.Test.make ~name:"executor word accessors = Block accessors"
    ~count:200 (QCheck.int_range 1 1_000_000) (fun seed ->
      let rs = Random.State.make [| seed |] in
      let base = Layout.text_base + (Random.State.int rs 64 * Layout.page_size) in
      let page = biased_page rs in
      let scratch = Block.scratch () in
      List.for_all
        (fun _ ->
          let off, traps = random_site rs in
          let is_trap a = List.mem (a - base) traps in
          match Block.decode scratch page ~base ~pc:(base + off) ~is_trap with
          | None -> true
          | Some b -> List.for_all (word_agrees b) (List.init (Block.length b) Fun.id))
        (List.init 16 Fun.id))

(* ---------------- the image-wide body store ---------------- *)

(* A store-served body must be exactly what a fresh decode of the same
   bytes under the same traps produces.  Each site is first decoded
   into the store from one page and trap set, then looked up from a
   possibly rewritten copy of the page (a few bytes changed just after
   the start) under a possibly different trap set, so retained bodies
   are offered where their bytes or their trap verdicts no longer hold:
   a store that skipped either check would hand back a stale block. *)
let prop_store_body_matches_fresh_decode =
  QCheck.Test.make ~name:"store-served body = fresh Block.decode"
    ~count:300 (QCheck.int_range 1 1_000_000) (fun seed ->
      let rs = Random.State.make [| seed |] in
      let base = Layout.text_base + (Random.State.int rs 64 * Layout.page_size) in
      let page = biased_page rs in
      let store = Block.store () in
      let scratch = Block.scratch () and fresh = Block.scratch () in
      List.for_all
        (fun _ ->
          let off, traps = random_site rs in
          let pc = base + off in
          let trap_set ts a = List.mem (a - base) ts in
          ignore (Block.get store scratch page ~base ~pc ~is_trap:(trap_set traps));
          let page' = Bytes.copy page in
          if Random.State.bool rs then
            for _ = 1 to 1 + Random.State.int rs 3 do
              let o = off + Random.State.int rs 48 in
              if o < Layout.page_size then
                Bytes.set_uint8 page' o (Random.State.int rs 256)
            done;
          let traps' = if Random.State.bool rs then traps else random_traps rs off in
          let is_trap = trap_set traps' in
          let served = Block.get store scratch page' ~base ~pc ~is_trap in
          unpack served = unpack (Block.decode fresh page' ~base ~pc ~is_trap))
        (List.init 16 Fun.id))

let store_stats image = Block.stats (Image.blocks image)

(* One guest, run twice on one fresh image: the first run decodes into a
   cold store, the second is served from it.  Guest behaviour and every
   registry counter ([sb.blocks_built] included) must not tell the runs
   apart. *)
let test_cold_then_warm_store () =
  let p = profiles () in
  let image = Image.build_exn () in
  let run () =
    Differential.run ~image ~profiles:p ~sblocks:true ~tlb:true ~fault_seed:4242 ()
  in
  let cold_fp, cold_en = run () in
  let after_cold = store_stats image in
  let warm_fp, warm_en = run () in
  let after_warm = store_stats image in
  Differential.check_parity ~label:"cold vs warm store" ~expect:cold_fp ~got:warm_fp;
  Alcotest.(check string) "identical registry" cold_en.Differential.en_registry
    warm_en.Differential.en_registry;
  check_bool "the cold run decoded bodies" true (after_cold.Block.decodes > 0);
  check_bool "the cold run published them" true (after_cold.Block.bodies > 0);
  check_int "the warm run decoded nothing" after_cold.Block.decodes
    after_warm.Block.decodes;
  check_bool "the warm run was served by the store" true
    (after_warm.Block.shared_hits - after_cold.Block.shared_hits
    >= cold_en.Differential.en_sb_built)

(* Guests on several domains publish into one cold store at once: the
   fleet fingerprint must not depend on how they raced.  Each domain
   count gets its own fresh image (profiled on it, so its store starts
   with the profiling runs' full-kernel bodies only). *)
let test_fleet_cold_store_across_domains () =
  let cell domains =
    let image = Image.build_exn () in
    let p = Profiles.compute ~iterations:2 image in
    let r =
      (Fc_benchkit.Fleet.run_cell p ~seed:9 ~domains ~guests:8)
        .Fc_benchkit.Fleet.c_report
    in
    (r, store_stats image)
  in
  let base, base_stats = cell 1 in
  check_bool "guests shared bodies" true (base_stats.Block.shared_hits > 0);
  List.iter
    (fun domains ->
      let r, _ = cell domains in
      Alcotest.(check string)
        (Printf.sprintf "fleet fingerprint at %d domains" domains)
        base.Fc_host.Fleet.r_fingerprint r.Fc_host.Fleet.r_fingerprint)
    [ 2; 4 ]

(* ---------------- profiling on the fast engine ---------------- *)

module Profiler = Fc_profiler.Profiler
module Behavior = Fc_profiler.Behavior
module View_config = Fc_profiler.View_config

(* The reference: the same session on the per-instruction interpreter. *)
let reference_session ~start ~stop ~finish (app : App.t) ~iterations =
  let os = Os.create ~config:(App.os_config app) (image ()) in
  let p = Os.spawn os ~name:app.App.name (app.App.script iterations) in
  let s = start os ~target_pid:p.Process.pid in
  Os.run os;
  stop s;
  finish s ~app:app.App.name

let test_profiles_engine_invariant () =
  List.iter
    (fun (app : App.t) ->
      let fast = App.profile ~iterations:4 (image ()) app in
      let reference =
        reference_session ~start:Profiler.start ~stop:Profiler.stop
          ~finish:Profiler.to_config app ~iterations:4
      in
      Alcotest.(check string)
        (app.App.name ^ ": view config")
        (View_config.to_string reference) (View_config.to_string fast))
    App.all

let test_behavior_engine_invariant () =
  List.iter
    (fun name ->
      let app = App.find_exn name in
      let fast =
        Behavior.profile_app ~config:(App.os_config app) (image ()) ~name
          (app.App.script 4)
      in
      let reference =
        reference_session ~start:Behavior.start ~stop:Behavior.stop
          ~finish:Behavior.finish app ~iterations:4
      in
      Alcotest.(check string) (name ^ ": behavior profile")
        (Behavior.to_string reference) (Behavior.to_string fast))
    [ "apache"; "top" ]

let suites =
  [
    ( "sblocks",
      let tc n f = Alcotest.test_case n `Quick f in
      [
        tc "view switch to different frames invalidates warm blocks"
          test_view_switch_invalidates;
        tc "epoch bump with unchanged translations restamps, never rebuilds"
          test_epoch_restamp_retains;
        tc "in-place code write (frame version) invalidates warm blocks"
          test_version_invalidates;
        tc "COW break during enforced execution invalidates warm blocks"
          test_cow_break_invalidates;
        tc "flush_fetch_tlbs leaves unchanged mappings warm"
          test_flush_hook_restamps_unchanged;
        tc "chained jump across an invalidated target rebuilds, then re-chains"
          test_chain_rebuild_fallback;
        tc "arming a trap inside a hot block splits rebuilt blocks"
          test_trap_set_splits_blocks;
        tc "interrupt at a block boundary sees identical vCPU state"
          test_interrupt_at_boundary;
        tc "decode cache stays bounded under view churn"
          test_decode_cache_bounded_under_view_churn;
        tc "enforced faulted run: fingerprint parity across the matrix"
          test_enforced_matrix;
        tc "one guest on a cold, then a warm body store: identical runs"
          test_cold_then_warm_store;
        tc "fleet on a cold body store: fingerprint identical at 1/2/4 domains"
          test_fleet_cold_store_across_domains;
        tc "profiling on the superblock engine: identical view configs"
          test_profiles_engine_invariant;
        tc "behavior profiling on the superblock engine: identical profiles"
          test_behavior_engine_invariant;
      ] );
    ( "sblocks.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_matrix_invisible;
          prop_decode_block_matches_reference;
          prop_executor_words_match_block;
          prop_store_body_matches_fresh_decode;
        ] );
  ]
