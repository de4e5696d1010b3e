module Os = Fc_machine.Os
module Cpu = Fc_machine.Cpu
module Action = Fc_machine.Action
module Hyp = Fc_hypervisor.Hypervisor
module Cost = Fc_hypervisor.Cost
module Image = Fc_kernel.Image
module Layout = Fc_kernel.Layout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let image = lazy (Image.build_exn ())
let fresh () = let os = Os.create (Lazy.force image) in (os, Hyp.attach os)

let test_attach_installs_dispatcher () =
  let os, hyp = fresh () in
  (* with a hypervisor attached but no recovery handler, an invalid opcode
     is reported through the hypervisor, not the OS default *)
  let hits = ref 0 in
  Hyp.on_invalid_opcode hyp (fun _ _ ->
      incr hits;
      `Unhandled "test");
  (* punch UD2 into a function the workload executes *)
  let addr = Os.resolve_exn os "sys_getpid" in
  let gpa = Layout.gva_to_gpa (addr + 3) in
  let frame = Option.get (Os.ram_frame os ~gpa_page:(Layout.page_of gpa)) in
  let hpa = Fc_mem.Phys_mem.addr_of_frame frame + (gpa mod Layout.page_size) in
  Fc_mem.Phys_mem.write_byte (Os.phys os) hpa 0x0f;
  Fc_mem.Phys_mem.write_byte (Os.phys os) (hpa + 1) 0x0b;
  let _ = Os.spawn os ~name:"x" [ Action.Syscall "getpid"; Action.Exit ] in
  (match Os.run os with
  | () -> Alcotest.fail "expected panic"
  | exception Os.Guest_panic _ -> ());
  check_int "handler consulted" 1 !hits;
  check_int "io exit counted" 1 (Hyp.invalid_opcode_exits hyp)

let test_breakpoints_and_cost () =
  let os, hyp = fresh () in
  let hits = ref 0 in
  Hyp.on_breakpoint hyp (fun _ _ _ -> incr hits);
  Hyp.set_breakpoint hyp (Os.resolve_exn os "sys_getpid");
  let before = Os.cycles os in
  let _ = Os.spawn os ~name:"x" [ Action.Syscall "getpid"; Action.Exit ] in
  Os.run os;
  check_int "bp hit once" 1 !hits;
  check_int "bp exit counted" 1 (Hyp.breakpoint_exits hyp);
  check_bool "vm exit cost charged" true (Hyp.cycles_charged hyp >= Cost.vm_exit);
  check_bool "cost lands on guest cycles" true
    (Os.cycles os - before >= Hyp.cycles_charged hyp)

let test_clear_breakpoint () =
  let os, hyp = fresh () in
  let hits = ref 0 in
  Hyp.on_breakpoint hyp (fun _ _ _ -> incr hits);
  let a = Os.resolve_exn os "sys_getpid" in
  Hyp.set_breakpoint hyp a;
  check_bool "registered" true (Hyp.has_breakpoint hyp a);
  Hyp.clear_breakpoint hyp a;
  let _ = Os.spawn os ~name:"x" [ Action.Syscall "getpid"; Action.Exit ] in
  Os.run os;
  check_int "no hits after clear" 0 !hits

let test_vmi_reads () =
  let _os, hyp = fresh () in
  let pid, comm = Hyp.current_task hyp in
  check_int "idle pid" 0 pid;
  Alcotest.(check string) "idle comm" "swapper" comm;
  check_int "four default modules" 4 (List.length (Hyp.module_list hyp))

let test_original_vs_active_code () =
  let os, hyp = fresh () in
  let a = Os.resolve_exn os "sys_getpid" in
  check_bool "agree before any view" true
    (Hyp.read_original_code hyp a = Hyp.read_active_code hyp a);
  (* install an empty custom view: active diverges, original does not *)
  let fc = Fc_core.Facechange.enable hyp in
  let cfg = Fc_profiler.View_config.make ~app:"x" Fc_ranges.Range_list.empty in
  let (_ : int) = Fc_core.Facechange.load_view fc cfg in
  let p = Os.spawn os ~name:"x" [ Action.Compute 10; Action.Exit ] in
  ignore p;
  (* force the switch by binding and running through a context switch *)
  Os.run os;
  check_bool "original still the real bytes" true
    (Hyp.read_original_code hyp a = Some 0x55)

let test_stack_frames_walk () =
  let os, hyp = fresh () in
  (* build a fake frame chain in a guest stack page:
     [ebp] = prev_ebp, [ebp+4] = return address *)
  let top = Layout.kstack_top ~pid:0 in
  let ebp2 = top - 0x40 in
  let ebp1 = top - 0x80 in
  let poke a v =
    let gpa = Layout.gva_to_gpa a in
    let frame = Option.get (Os.ram_frame os ~gpa_page:(Layout.page_of gpa)) in
    Fc_mem.Phys_mem.write_u32 (Os.phys os)
      (Fc_mem.Phys_mem.addr_of_frame frame + (gpa mod Layout.page_size))
      v
  in
  poke ebp1 ebp2;              (* prev ebp *)
  poke (ebp1 + 4) 0xc0100123;  (* ret 1 *)
  poke ebp2 0;                 (* chain ends *)
  poke (ebp2 + 4) 0xc0100456;  (* ret 2 *)
  let frames = Hyp.stack_frames hyp ~eip:0xc0100777 ~ebp:ebp1 () in
  Alcotest.(check (list int)) "chain" [ 0xc0100777; 0xc0100123; 0xc0100456 ] frames

let test_stack_frames_stop_at_sentinel () =
  let os, hyp = fresh () in
  let top = Layout.kstack_top ~pid:0 in
  let ebp = top - 0x40 in
  let poke a v =
    let gpa = Layout.gva_to_gpa a in
    let frame = Option.get (Os.ram_frame os ~gpa_page:(Layout.page_of gpa)) in
    Fc_mem.Phys_mem.write_u32 (Os.phys os)
      (Fc_mem.Phys_mem.addr_of_frame frame + (gpa mod Layout.page_size))
      v
  in
  poke ebp (top - 0x20);
  poke (ebp + 4) Cpu.sentinel_return;
  let frames = Hyp.stack_frames hyp ~eip:0xc0100777 ~ebp () in
  Alcotest.(check (list int)) "sentinel stops walk" [ 0xc0100777 ] frames

let test_stack_frames_entry_caller () =
  (* when eip sits on a prologue, [esp] supplies the immediate caller *)
  let os, hyp = fresh () in
  let f = Os.resolve_exn os "sys_getpid" in
  let top = Layout.kstack_top ~pid:0 in
  let esp = top - 0x10 in
  let poke a v =
    let gpa = Layout.gva_to_gpa a in
    let frame = Option.get (Os.ram_frame os ~gpa_page:(Layout.page_of gpa)) in
    Fc_mem.Phys_mem.write_u32 (Os.phys os)
      (Fc_mem.Phys_mem.addr_of_frame frame + (gpa mod Layout.page_size))
      v
  in
  poke esp 0xc0100999;
  let frames = Hyp.stack_frames hyp ~eip:f ~ebp:0 ~esp () in
  Alcotest.(check (list int)) "caller from esp" [ f; 0xc0100999 ] frames

let test_render_addr_forms () =
  let os, hyp = fresh () in
  let a = Os.resolve_exn os "do_sys_poll" in
  check_bool "symbol" true
    (Hyp.render_addr hyp a = Printf.sprintf "0x%x <do_sys_poll+0x0>" a);
  (* inside a known module but without function symbols? catalog modules
     have symbols; a rootkit module does not *)
  let info =
    Os.load_module_fns os ~name:"rk"
      [ Fc_kernel.Kfunc.v ~size:64 ~sub:"rk" "rk_fn" [] ]
  in
  Hyp.refresh_symbols hyp;
  let base = info.Os.unit_image.Fc_isa.Asm.base in
  Alcotest.(check string)
    "module-region form"
    (Printf.sprintf "0x%x <mod:rk+0x10>" (base + 16))
    (Hyp.render_addr hyp (base + 16));
  (* hide it: now UNKNOWN *)
  Os.hide_module os "rk";
  Hyp.refresh_symbols hyp;
  Alcotest.(check string)
    "unknown form"
    (Printf.sprintf "0x%x <UNKNOWN>" (base + 16))
    (Hyp.render_addr hyp (base + 16))

(* The symbol table follows the VMI module list through real UD2
   recoveries: Facechange refreshes it on every recovery, which rebuilds
   it only when the list moved.  A guest under the runtime (kvmclock)
   clocksource recovers the paravirtual clock chain on its first timer
   interrupts, so its run always includes recoveries. *)
let recovering_guest () =
  let os = Os.create ~config:Os.runtime_config (Lazy.force image) in
  let hyp = Hyp.attach os in
  let fc = Fc_core.Facechange.enable hyp in
  let profiles = Lazy.force Test_env.profiles in
  let (_ : int) =
    Fc_core.Facechange.load_view fc (Fc_benchkit.Profiles.config_of profiles "top")
  in
  let app = Fc_apps.App.find_exn "top" in
  ignore (Os.spawn os ~name:"top" (app.Fc_apps.App.script 2) : Fc_machine.Process.t);
  (os, hyp, fc)

let run_recovering os fc =
  Os.run os;
  check_bool "the run recovered code" true (Fc_core.Facechange.recoveries fc > 0)

let module_base hyp name =
  match List.find_opt (fun (n, _, _) -> n = name) (Hyp.module_list hyp) with
  | Some (_, base, _) -> base
  | None -> Alcotest.failf "module %s not visible" name

let is_unknown rendered =
  let n = String.length rendered in
  n >= 9 && String.sub rendered (n - 9) 9 = "<UNKNOWN>"

let test_symbols_reused_without_module_change () =
  let os, hyp, fc = recovering_guest () in
  let before = Hyp.symbols hyp in
  run_recovering os fc;
  check_bool "same table, physically" true (Hyp.symbols hyp == before)

let test_symbols_follow_hidden_module () =
  let os, hyp, fc = recovering_guest () in
  let before = Hyp.symbols hyp in
  let base = module_base hyp "af_packet" in
  check_bool "visible module symbolized" false (is_unknown (Hyp.render_addr hyp base));
  Os.hide_module os "af_packet";
  run_recovering os fc;
  check_bool "table rebuilt" true (Hyp.symbols hyp != before);
  check_bool "hidden module renders UNKNOWN" true (is_unknown (Hyp.render_addr hyp base))

let test_symbols_follow_loaded_module () =
  let os, hyp, fc = recovering_guest () in
  let before = Hyp.symbols hyp in
  let info = Os.load_module os "snd_hda" in
  let base = info.Os.unit_image.Fc_isa.Asm.base in
  check_bool "not yet symbolized" true (is_unknown (Hyp.render_addr hyp base));
  run_recovering os fc;
  check_bool "table rebuilt" true (Hyp.symbols hyp != before);
  check_bool "loaded module symbolized" false (is_unknown (Hyp.render_addr hyp base))

let test_original_tables_snapshot () =
  let _, hyp = fresh () in
  let text_dir =
    Fc_mem.Ept.dir_of_page (Layout.page_of (Layout.gva_to_gpa Layout.text_base))
  in
  let mod_dir =
    Fc_mem.Ept.dir_of_page (Layout.page_of (Layout.gva_to_gpa Layout.module_area_base))
  in
  check_bool "text dir captured" true (Hyp.original_table hyp ~dir:text_dir <> None);
  check_bool "module dir captured" true (Hyp.original_table hyp ~dir:mod_dir <> None)

let test_detach_restores_default () =
  let os, hyp = fresh () in
  Hyp.set_breakpoint hyp (Os.resolve_exn os "sys_getpid");
  Hyp.detach hyp;
  check_int "traps cleared" 0 (List.length (Os.trap_addresses os));
  let p = Os.spawn os ~name:"x" [ Action.Syscall "getpid"; Action.Exit ] in
  Os.run os;
  check_bool "guest runs normally" true (Fc_machine.Process.is_exited p)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "hypervisor",
      [
        tc "invalid-opcode exits route to the handler" test_attach_installs_dispatcher;
        tc "breakpoints fire and charge the cost model" test_breakpoints_and_cost;
        tc "cleared breakpoints do not fire" test_clear_breakpoint;
        tc "VMI current task and module list" test_vmi_reads;
        tc "original vs active code reads" test_original_vs_active_code;
        tc "stack walk over an rbp chain" test_stack_frames_walk;
        tc "stack walk stops at the user sentinel" test_stack_frames_stop_at_sentinel;
        tc "entry-point faults read the caller from esp" test_stack_frames_entry_caller;
        tc "address rendering: symbol / module / UNKNOWN" test_render_addr_forms;
        tc "symbol table reused when the module list is unchanged"
          test_symbols_reused_without_module_change;
        tc "recovery after hide_module rebuilds the symbol table"
          test_symbols_follow_hidden_module;
        tc "recovery after load_module rebuilds the symbol table"
          test_symbols_follow_loaded_module;
        tc "original EPT tables snapshotted at attach" test_original_tables_snapshot;
        tc "detach restores the default handler" test_detach_restores_default;
      ] );
  ]
