(** Compiled query plans.

    A plan captures the per-request work that depends only on the query
    string and the index generation — keyword normalization, vocabulary
    resolution, posting-list lookup, selectivity ordering, kernel
    dispatch, rule mining and pruning — so repeat executions skip
    straight to the scan. Plans hold no per-request state (the
    meaningfulness memo, whose table is single-threaded, is rebuilt per
    run on the running domain) and pin nothing mutable: the packed
    lists they reference are immutable snapshot data, so a plan is safe
    to share across domains and stays valid exactly as long as its
    generation — the cache key's generation id retires it for free.

    Both runners are byte-identical to their uncompiled counterparts:
    [run_search] to {!Xr_refine.Engine.search} and [run_refine] to
    {!Xr_refine.Engine.refine} (see {!Xr_refine.Engine.compiled_rules}
    for the refine argument). *)

open Xr_xml

(** How a compiled search executes its SLCA scan. *)
type search_exec =
  | Dead
      (** a keyword is out of vocabulary or has an empty posting list:
          the result is [[]] with no scan at all *)
  | Tiny of (Dewey.Packed.t * int * int) * (Dewey.Packed.t * int * int) list
      (** scan-family query whose driver is below
          {!Xr_slca.Scan_packed.tiny_threshold}: driver and partner
          ranges precompiled for the cursor-free tiny kernel *)
  | Ranges of (Dewey.Packed.t * int * int) list
      (** packed kernel over precompiled ranges — selectivity-sorted
          for the scan family, resolution order otherwise *)
  | Boxed
      (** list-based kernel (a paper baseline) via
          {!Xr_slca.Engine.query_ids}, which decodes the packed lists on
          every run *)

type search = {
  s_slca : Xr_slca.Engine.algorithm;  (** pinned at compile time *)
  s_ids : Interner.id list;  (** resolved distinct keyword ids *)
  s_exec : search_exec;
  s_masses : Xr_slca.Parallel.masses option;
      (** pre-measured cost curve for the adaptive chunker (scan-parallel
          range plans whose free estimate clears the parallel gate);
          valid for the plan's generation, like the ranges themselves *)
}

(** [compile_search ?config index query] interprets [query] once:
    normalize, deduplicate, resolve against the vocabulary, fetch and
    selectivity-order the packed posting ranges, and pick the kernel. *)
val compile_search :
  ?config:Xr_refine.Engine.config -> Xr_index.Index.t -> string list -> search

(** [run_search ?config plan index] executes the plan —
    byte-identical to [Engine.search ~config index query] for the
    compiled query against the compiled generation's index. [config]
    supplies the per-run meaningfulness statistics configuration; the
    SLCA algorithm is the plan's. *)
val run_search :
  ?config:Xr_refine.Engine.config -> search -> Xr_index.Index.t -> Dewey.t list

(** A compiled refinement: the pruned rule list, so repeat refinements
    skip the mining pass (the dominant fixed cost on small queries). *)
type refine = { r_rules : Xr_refine.Rule.t list }

val compile_refine :
  ?config:Xr_refine.Engine.config -> Xr_index.Index.t -> string list -> refine

(** [run_refine ?config plan index query] — byte-identical to
    [Engine.refine ~config index query]: same refined queries, same
    rule list in the response, same stats shape. *)
val run_refine :
  ?config:Xr_refine.Engine.config ->
  refine ->
  Xr_index.Index.t ->
  string list ->
  Xr_refine.Engine.response

(** {1 EXPLAIN}

    A rendered account of every decision {!compile_search} makes and
    the run-time dispatch it leads to — what `xrefine … --explain-plan`
    and `GET /search?…&explain=1` show. Pure: explaining never runs the
    query (the one cursor movement it may cost is a {!measure} pass
    when the plan cache holds no cost curve yet, read-only like the
    compiler's own). *)

type explain_keyword = {
  ek_keyword : string;  (** normalized *)
  ek_id : int;
  ek_postings : int;
}

type explain_parallel = {
  xp_estimate : float;  (** free upper bound from range lengths *)
  xp_threshold : int;  (** live {!Xr_slca.Parallel.threshold} *)
  xp_measured : float option;  (** measured total cost; [None] when the estimate never cleared the gate *)
  xp_grains : int option;
  xp_pool_size : int;  (** pool size the chunk bounds were computed for *)
  xp_chunks : int;  (** {!Xr_slca.Parallel.auto_chunks} target *)
  xp_chunk_bounds : int array;  (** driver split points; [[||]] when sequential *)
  xp_curve : (int * float) array;
      (** the measured cost curve: (driver index, cumulative modeled cost)
          per grain boundary *)
}

type explain_search = {
  x_keywords : explain_keyword list;
      (** in executed order — driver (rarest) first for the scan family *)
  x_missing : string list;  (** normalized keywords absent from the vocabulary *)
  x_algorithm : string;
  x_index_mode : string;  (** ["flat"] or ["dag"] *)
  x_kernel : string;  (** ["dead"], ["tiny"], ["scan"], ["stack"], ["parallel"] or ["boxed"] *)
  x_reason : string;  (** the threshold or condition that fired, spelled out *)
  x_parallel : explain_parallel option;  (** scan-parallel range plans only *)
}

(** [explain_search ?config ?pool_size index query] compiles [query]
    (hitting no cache) and reports the decisions. [pool_size] pins the
    chunk computation for deterministic output (default: the live
    global pool's size, 1 if none was ever created). *)
val explain_search :
  ?config:Xr_refine.Engine.config ->
  ?pool_size:int ->
  Xr_index.Index.t ->
  string list ->
  explain_search

type explain_refine = {
  xr_search : explain_search;
  xr_rules : string list;  (** statically-pruned rule list, in consultation order *)
}

val explain_refine :
  ?config:Xr_refine.Engine.config ->
  ?pool_size:int ->
  Xr_index.Index.t ->
  string list ->
  explain_refine
