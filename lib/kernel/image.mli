(** The assembled base kernel image and module assembly.

    [build ()] compiles the whole {!Catalog} base-kernel function list to
    bytes at {!Layout.text_base}.  Loadable modules are assembled on
    demand at their runtime load address ([assemble_module]), resolving
    their calls into the base kernel — this is why the profiler records
    module ranges relative to the module base: the same module assembled
    at a different base yields different absolute call displacements but
    identical structure. *)

type t

val build : unit -> (t, string) result
val build_exn : unit -> t

val unit_image : t -> Fc_isa.Asm.unit_image
val text_base : t -> int
val text_end : t -> int
(** One past the last byte of base kernel code. *)

val addr_of : t -> string -> int option
(** Address of a base-kernel function. *)

val addr_of_exn : t -> string -> int

val placed_at : t -> int -> Fc_isa.Asm.placed option
(** The base-kernel function containing the address, if any. *)

val functions : t -> Fc_isa.Asm.placed list

val read_byte : t -> int -> int option
(** Read a byte of base kernel code by guest-virtual address. *)

val assemble_module :
  t -> name:string -> base:int -> (Fc_isa.Asm.unit_image, string) result
(** Assemble one of {!Catalog.module_functions} (or any registered
    function list via [assemble_module_fns]) at [base], resolving
    unresolved calls against the base kernel symbol table.  Each
    (name, base) pair is assembled once per image and the same unit is
    returned from then on, on every domain; callers must not write into
    its [code]. *)

val assemble_module_fns :
  t -> base:int -> Kfunc.t list -> (Fc_isa.Asm.unit_image, string) result

val blocks : t -> Fc_isa.Block.store
(** The superblock bodies decoded so far by guests booted from this
    image.  Every [Os] built on the image looks its blocks up here before
    decoding and publishes what it decodes; the store's counts live
    outside any guest's metrics registry. *)

val false_prologues : t -> int list
(** Alignment-boundary addresses inside the text section that carry the
    prologue signature but are {e not} function starts — must be empty for
    boundary scanning to be sound; checked by the test suite. *)
