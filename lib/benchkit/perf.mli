(** Wall-clock throughput benchmark for the execution fast paths.

    Every other experiment in this suite measures {e simulated} cycles;
    this one measures real elapsed time, because the software TLBs
    (see DESIGN.md "Translation fast path"), the decode-once superblocks
    (DESIGN.md §10) and view-tagged translation caching (DESIGN.md §14)
    change only how fast the host executes the guest, never what the
    guest does.  Each arm runs the same deterministic workload with the
    toggles on or off ([Os.create ~sblocks ~tlb ~tagged]) and reports
    guest instructions retired per wall-clock second, timing only the
    [Os.run] spans (view builds and profiling are excluded from both the
    numerator and the denominator).

    Wall-clock numbers vary run to run and are {e recorded, never
    gated}; the TLB, superblock and flush-cause counters and instruction
    counts come from one deterministic pass and are pinned by
    [bench/check.exe --perf]. *)

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
      (** in-place superblock tier restamps — the per-switch revalidation
          tax that view tags eliminate *)
  c_fl_view_switch : int;
      (** fetch-TLB flushes caused by view switch-in (the
          [tlb.flushes{view_switch}] family label) — ~0 under tags *)
  c_fl_cow : int;
  c_fl_growth : int;
  c_fl_explicit : int;
}

type arm = {
  a_label : string;
  a_tagged : bool;  (** view-tagged caching on ([tag+] label prefix) *)
  a_sblocks : bool;
  a_tlb : bool;
  a_views : bool;
  a_reps : int;
  a_seconds : float;
      (** minimum wall clock across the reps — the least-interrupted
          pass, robust to host scheduling noise *)
  a_ips : float;      (** guest instructions per wall-clock second *)
  a_counters : counters;
      (** from one deterministic pass — identical for every rep, so
          independent of [reps] / [--fast] *)
}

type t = {
  reps : int;
  unixbench : arm list;
      (** \{tlb, no-tlb\} × \{views on (top + apache loaded, residents
          running), views off\} over the nine UnixBench subtests, the
          sb+tlb arms with superblocks enabled on top of the TLBs, and
          the tag+ views-on arms re-running the tlb and sb+tlb
          view-switching workloads under view-tagged caching *)
  unixbench_speedup : float;  (** tlb vs no-tlb ips ratio, views on *)
  unixbench_speedup_noviews : float;
  unixbench_speedup_sblocks : float;
      (** sb+tlb vs tlb ips ratio, views on — the superblock win over
          the already-TLB'd engine *)
  unixbench_speedup_sblocks_noviews : float;
  httperf : arm list;
      (** apache request batch, view loaded: tlb, no-tlb, sb+tlb,
          tag+sb+tlb *)
  httperf_speedup : float;
  httperf_speedup_sblocks : float;
  cold : float * int * float;
      (** (seconds, instructions, ips) for a syscall loop entered with
          empty TLBs *)
  warm : float * int * float;
      (** the same loop run second in the same guest — kernel working
          set already cached *)
  block_store : Fc_isa.Block.stats;
      (** the image's shared superblock-body store after the run:
          cumulative since the image was built (profiling included),
          recorded only — no gate reads it *)
}

val run : ?reps:int -> Profiles.t -> t
(** Default 3 reps; recorded wall time is the minimum across reps,
    counters come from rep 1 only. *)

val to_json : t -> Fc_obs.Jsonx.t
val render : t -> string

val block_store_to_json : Fc_isa.Block.stats -> Fc_obs.Jsonx.t
val render_block_store : Fc_isa.Block.stats -> string
(** One report line on the image's superblock-body store. *)
