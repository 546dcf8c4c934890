(** Process-wide domain pool with per-worker work-stealing deques.

    A pool of size [n] delivers [n]-way parallelism: it spawns [n - 1]
    worker domains and counts the domain calling {!run} as the [n]-th
    executor — the submitter helps drain its own batch instead of
    blocking, which also makes nested {!run} calls (a pool task
    submitting a sub-batch) deadlock-free. A pool of size 1 spawns no
    domains at all and runs every batch inline.

    Tasks are pushed to per-worker deques round-robin; each worker pops
    its own deque LIFO and steals FIFO from the others, so a batch of
    similar-sized chunks spreads without a central queue becoming the
    bottleneck. *)

type t

val create : ?name:string -> ?domains:int -> unit -> t
(** [create ~domains ()] builds a pool of total size [domains]
    (clamped to at least 1), spawning [domains - 1] worker domains.
    Default: {!default_domains}. [name] labels the pool's series in the
    process metrics registry ([xr_pool_*_total{pool=...}]); the default
    is unique per instance so a new pool never inherits counts. *)

val size : t -> int
(** Total parallelism of the pool ([worker domains + 1]). *)

val run : t -> (unit -> unit) array -> unit
(** [run t tasks] executes every task and returns when all have
    finished. The calling domain participates: it seeds the deques,
    then pops/steals until its batch drains. If any task raises, one
    such exception is re-raised after the whole batch has finished
    (remaining tasks still run). Safe to call from within a pool task
    and from several domains at once. *)

val try_help : t -> bool
(** [try_help t] takes one queued task (steal-only — the caller owns no
    deque), runs it, and returns [true]; [false] when every visible
    task is already executing. For domains that are blocked on
    something else anyway — a coalesced follower waiting out its
    leader's render donates the wait to the pool instead of sleeping.
    Safe from any domain; never blocks. *)

val queue_depth : t -> int
(** Tasks sitting in the deques right now, not yet taken by an
    executor (monitoring-grade: racing submitters can skew it by a
    task or two). Also exposed as the pull gauge
    [xr_pool_queue_depth{pool=...}]. *)

val shutdown : t -> unit
(** Stop the workers and join their domains. Outstanding tasks are
    drained first. The pool must not be used afterwards; calling
    [shutdown] twice is harmless. *)

(** {1 Counters} *)

type counters = {
  domains : int;  (** pool size (total parallelism) *)
  tasks : int;  (** tasks executed to completion *)
  steals : int;  (** tasks taken from another worker's deque *)
  batches : int;  (** {!run} calls that actually fanned out *)
}

val counters : t -> counters
(** This pool's values, read back from the process metrics registry
    (the same series [/metrics] exposes under the pool's label).
    Beyond these, every pool also publishes busy time per executor
    ([xr_pool_busy_ns_total{pool,domain}], where [domain] is the
    worker index or ["caller"] for the submitting/helping domain),
    scrape-time utilization ([xr_pool_utilization{pool,domain}] =
    busy / wall since creation), and live queue depth
    ([xr_pool_queue_depth{pool}]). *)

(** {1 The process-wide pool} *)

val default_domains : unit -> int
(** [XR_POOL_DOMAINS] when set to a positive integer; when set to
    ["auto"] (or unset), [Domain.recommended_domain_count ()]. *)

val global : unit -> t
(** The lazily created shared pool (sized by {!default_domains}).
    Created on first use, so the CLI and a single-shard server, which
    never fan out, spawn no domains. *)

val peek_global : unit -> t option
(** The shared pool if it has been created, without creating it. *)

val reset_global : ?domains:int -> unit -> unit
(** Shut down the shared pool (if any) and install a fresh one of the
    given size. Test hook: lets a suite compare pool sizes 1 and 4 in
    one process. Must not race with in-flight {!run} calls. *)
