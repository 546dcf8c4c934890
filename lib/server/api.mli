(** JSON views of engine results: one schema shared by the HTTP endpoints
    and the CLI's [--json] output, so a scripted client sees identical
    documents either way. Builders take already-computed engine output —
    callers choose their own configuration — and render deterministically
    (document order, stable field order), which is what lets the server
    cache and compare responses byte-for-byte. *)

open Xr_xml

(** [result_item index ~query_ids ?score dewey] is one result object:
    [{"dewey","label","snippet"}] plus ["score"] when given. *)
val result_item :
  Xr_index.Index.t -> query_ids:Interner.id list -> ?score:float -> Dewey.t -> Json.t

(** [search_payload index ~query ~ranked ?limit entries] renders a
    [/search] response; [entries] pair each SLCA with its relevance score
    (ignored unless [ranked]). [count] is the full result count even when
    [limit] truncates the rendered list. *)
val search_payload :
  Xr_index.Index.t ->
  query:string list ->
  ranked:bool ->
  ?limit:int ->
  (Dewey.t * float) list ->
  Json.t

(** [refine_payload index ~query resp] renders a [/refine] response:
    outcome ([matched] / [refined] / [no_result]), the ranked refined
    queries with edit trails, scores and per-query results, and the rules
    consulted. *)
val refine_payload :
  Xr_index.Index.t -> query:string list -> ?limit:int -> Xr_refine.Engine.response -> Json.t

val suggest_payload :
  Xr_index.Index.t ->
  query:string list ->
  ?limit:int ->
  Xr_refine.Specialize.suggestion list ->
  Json.t

val complete_payload : prefix:string -> (string * int) list -> Json.t

(** [pool_payload ()] renders the shared {!Xr_pool} counters (tasks,
    steals, batches), the sequential-fallback count, and the live
    parallel threshold — the [/stats] "pool" section. *)
val pool_payload : unit -> Json.t

(** [batch_payload ~enabled ~plan_entries ()] renders the batched
    execution counters — tiny-kernel dispatch, plan-cache
    hit/miss/eviction and single-flight coalescing — the [/stats]
    "batch" section. *)
val batch_payload : enabled:bool -> plan_entries:int -> unit -> Json.t

(** [stats_payload index] is the document-statistics view: node and
    keyword counts plus per-node-type aggregates. *)
val stats_payload : ?pool:Json.t -> ?batch:Json.t -> Xr_index.Index.t -> Json.t

(** [trace_payload traces] renders {!Xr_obs.Tracing.recent_traces}
    output as the [/debug/trace] document: per trace its id, total, and
    nested span tree (name, duration, start offset, domain). *)
val trace_payload : (int * Xr_obs.Tracing.span list) list -> Json.t

(** [explain_payload x] renders a compiled-plan explanation as the
    ["explain"] block of a /search (or /refine) response: kernel +
    reason, algorithm, index mode, the keyword lists
    in executed order with posting counts, and the parallel section
    (estimate/threshold/measured cost, grain curve, chunk bounds). *)
val explain_payload : Xr_batch.Plan.explain_search -> Json.t

(** [explain_refine_payload x] is {!explain_payload} plus the
    statically-pruned ["rules"] list. *)
val explain_refine_payload : Xr_batch.Plan.explain_refine -> Json.t

val gc_delta_json : Xr_obs.Runtime.gc_delta -> Json.t

(** [analyze_payload ~ms ~gc ~spans report] renders one ANALYZE
    render's actuals: wall time, per-stage candidates in/out, per-chunk
    modeled-vs-measured cost shares with drift ratios, the handler-side
    GC delta, the summed pool-task GC delta, and the completed child
    spans of the surrounding trace. *)
val analyze_payload :
  ms:float ->
  gc:Xr_obs.Runtime.gc_delta ->
  spans:Xr_obs.Tracing.span list ->
  Xr_obs.Analyze.report ->
  Json.t

(** [error_payload msg] is [{"error": msg}]. *)
val error_payload : string -> Json.t
