(** The query-serving subsystem: live sharded corpora, many worker
    domains.

    An acceptor loop (run on the caller's domain by {!run}) accepts
    connections and submits them to a bounded queue drained by a pool of
    worker {!Domain}s ({!Pool}). Admission control: when the queue is at
    its bound the acceptor answers [503] immediately instead of queueing
    unboundedly. Each connection carries a deadline from the moment it
    is accepted — connections that exceeded it while queued are dropped
    with [503], and socket reads and writes are bounded by the same
    budget.

    Corpora ({!start_corpora}) are partitioned round-robin over serving
    shards; each shard owns its member corpora's generation chains
    ({!Xr_ingest.Generation}), write paths ({!Xr_ingest.Ingest}) and a
    sharded result LRU ({!Lru}). A query pins the current generation of
    every corpus it touches, fans out over the shards through the shared
    {!Xr_pool}, and merges the ranked partials (scatter-gather). Cache
    keys embed the pinned generation ids, so a cached body can never
    outlive the index swap that invalidated it. With a single corpus the
    response schemas are byte-identical to the pre-ingest server.

    Endpoints (schemas in [doc/SERVER.md]): [GET] [/search], [/refine],
    [/suggest], [/complete], [/stats], [/metrics.json], [/debug/trace],
    [/health] serve JSON; [/metrics] serves the Prometheus text
    exposition of the process {!Xr_obs.Registry}; [POST /ingest] submits
    an XML document to a corpus's write path (see [doc/INGEST.md]).
    Every request runs under an {!Xr_obs.Tracing} trace (when [trace] is
    on), queryable at [/debug/trace?last=N] and reported by the
    slow-query log ([slow_query_ms]). *)

type address =
  | Tcp of string * int  (** host, port; port [0] binds an ephemeral port *)
  | Unix_socket of string  (** path; unlinked before binding *)

type config = {
  addr : address;
  domains : int;  (** worker domains; default [Domain.recommended_domain_count ()] *)
  queue_bound : int;  (** admission-control limit on queued connections; default 64 *)
  cache_capacity : int;  (** result-cache entries overall; [0] disables; default 512 *)
  cache_shards : int;  (** default 8 *)
  deadline_ms : float;  (** per-request time budget; default 5000 *)
  keepalive_requests : int;  (** max requests served per connection; default 1000 *)
  result_limit : int;  (** default cap on rendered result arrays; default 20 *)
  parallel_threshold : int;
      (** modeled cost below which an SLCA run, in search or refinement,
          skips the shared {!Xr_pool} and runs sequentially (applied
          process-wide via {!Xr_slca.Parallel.set_threshold} at
          {!start}); default {!Xr_slca.Parallel.default_threshold} *)
  limits : Http.limits;
  log : bool;  (** request log on stderr; default false *)
  trace : bool;
      (** record per-request spans into the {!Xr_obs.Tracing} ring
          buffers (enables [/debug/trace] and span breakdowns in the
          slow-query log); default true *)
  slow_query_ms : float;
      (** log one structured stderr line (with span breakdown) for each
          request at or above this many milliseconds; [0] disables
          (default) *)
  shards : int;
      (** serving shards the corpora are partitioned over (clamped to
          the corpus count); [0] (default) gives every corpus its own
          shard *)
  ingest_queue : int;  (** per-corpus ingest queue bound; default 256 *)
  ingest_batch : int;
      (** max documents merged into one published generation; default 32 *)
  batch : bool;
      (** batched execution: compiled query plans ({!Xr_batch.Plan})
          cached per corpus and keyed by generation id, plus
          single-flight coalescing of concurrent identical requests
          ({!Xr_batch.Coalesce}); responses stay byte-identical to the
          unbatched path; default true *)
  coalesce_window_ms : float;
      (** optional wait before a coalesced flight's leader renders,
          widening the pile-up interval (latency-for-throughput trade);
          [0] (default) adds no latency and still coalesces genuine
          overlap *)
  plan_cache_capacity : int;
      (** compiled-plan entries cached per corpus; [0] disables plan
          caching while keeping coalescing; default 512 *)
}

val default_config : config

(** One corpus to serve: a name (addressable via [?corpus=] and
    [POST /ingest?corpus=]; also the [corpus] label on ingest metrics),
    its initial index, and optionally the open store ingest persists
    each published generation into. *)
type corpus_spec = {
  name : string;
  index : Xr_index.Index.t;
  kv : Xr_store.Kv.t option;
}

type t

(** [start_corpora config specs] binds the listening socket, builds the
    per-corpus generation chains, completion tries and ingest writers,
    and spawns the worker pool. The acceptor is not running yet — call
    {!run}. *)
val start_corpora : config -> corpus_spec list -> t

(** [start config index] is {!start_corpora} with the single corpus
    ["default"] and no persistence. *)
val start : config -> Xr_index.Index.t -> t

(** [run t] is the blocking acceptor loop; it returns after {!stop},
    once the workers have drained and joined. *)
val run : t -> unit

(** [bound_addr t] is the actual listening address (useful with port 0). *)
val bound_addr : t -> Unix.sockaddr

val stop : t -> unit

(** [handle t req] is the routing/dispatch core used by the workers,
    exposed for in-process testing: it touches the cache and metrics but
    no sockets. *)
val handle : t -> Http.request -> Http.response

val metrics : t -> Metrics.t

(** [cache t] is the first shard's result cache (the only one in
    single-corpus mode). *)
val cache : t -> Lru.t

val queue_depth : t -> int
