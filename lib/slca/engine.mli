(** Uniform front door over the SLCA algorithms — the pluggable
    "existing SLCA computation method" of the paper's Lemma 3. *)

open Xr_xml

type algorithm =
  | Stack  (** sort-merge stack, the paper's [stack-slca] *)
  | Scan_eager  (** XKSearch scan-eager, the paper's [scan-slca] *)
  | Indexed_lookup  (** XKSearch indexed-lookup-eager *)
  | Multiway  (** Multiway-SLCA, anchor-based *)
  | Stack_packed  (** {!Stack} over packed lists, allocation-free merge *)
  | Scan_packed  (** {!Scan_eager} over packed lists, allocation-free probes *)
  | Scan_parallel
      (** {!Scan_packed} chunked over the {!Xr_pool} domain pool; falls
          back to the sequential kernel below {!Parallel.threshold}.
          Byte-identical output to {!Scan_packed}. *)

val all : algorithm list

val name : algorithm -> string

(** [of_name s] inverts {!name}. *)
val of_name : string -> algorithm option

(** [is_packed alg] is true for the kernels that consume packed lists
    natively (and so can run straight off the index without decoding). *)
val is_packed : algorithm -> bool

(** [packed_partner alg] is the packed kernel computing the same SLCA
    sets as [alg] without decoding: {!Stack} keeps its merge order via
    {!Stack_packed}, everything else maps to {!Scan_packed}. All engines
    agree on the result (the property suite asserts it), so promoting is
    output-neutral; the refinement pipeline uses this to honor a
    configured list-based engine while staying on the packed substrate. *)
val packed_partner : algorithm -> algorithm

(** [compute alg lists] is the SLCA set (document order) of the
    conjunction of the keywords whose posting lists are given. Packed
    algorithms pack the given lists on the fly — use {!compute_packed}
    or {!query_ids} to feed them pre-packed lists without that cost. *)
val compute : algorithm -> Xr_index.Inverted.posting array list -> Dewey.t list

(** [compute_packed alg lists] is {!compute} on packed input. Packed
    algorithms run on the buffers directly; list-based algorithms pay a
    throwaway materialization (their cost baseline in the benchmark). *)
val compute_packed : algorithm -> Dewey.Packed.t list -> Dewey.t list

(** [compute_ranges alg lists] is {!compute_packed} with each list
    restricted to the half-open entry range paired with it — the
    per-partition SLCA step of the refinement pipeline. Packed kernels
    scan the ranges in place; list-based algorithms pay a throwaway
    sub-array materialization. *)
val compute_ranges : algorithm -> (Dewey.Packed.t * int * int) list -> Dewey.t list

(** [query_ids alg index ids] computes SLCAs for already-resolved keyword
    ids. Packed algorithms scan the index's packed lists in place;
    list-based ones (the paper baselines) run on boxed lists that
    {!Xr_index.Inverted.list} decodes on every call. *)
val query_ids : algorithm -> Xr_index.Index.t -> Interner.id list -> Dewey.t list

(** [query alg index keywords] resolves keywords against the document and
    computes SLCAs; a keyword absent from the document yields []. *)
val query : algorithm -> Xr_index.Index.t -> string list -> Dewey.t list
