(** Single-flight admission: concurrent requests for the same rendered
    body coalesce onto one execution.

    The first arrival for a key becomes the *leader* and runs the
    render; every request that arrives for the same key while the
    leader is in flight becomes a *follower* and blocks until the
    leader finishes, then returns the leader's bytes. A leader
    exception is re-raised in every member. Keys are caller-built and
    include the generation signature (the server reuses its response
    cache key), so followers can never be handed bytes from another
    generation.

    An optional coalescing window makes the leader wait [window_ms]
    before rendering, widening the pile-up interval — a deliberate
    latency-for-throughput trade for overloaded servers; the default 0
    adds no latency and still coalesces whatever genuinely overlaps.

    Followers do not idle: while their leader renders, each follower
    drains tasks from the global domain pool ({!Xr_pool.try_help}) —
    the per-shard renders of a multi-shard scatter — so a coalesced
    pile-up turns blocked request domains into extra executors instead
    of sleepers.

    Counters are exported as [xr_coalesce_requests_total{role=...}],
    the members-per-flight histogram as [xr_coalesce_width], and
    tasks drained by waiting followers as
    [xr_coalesce_helped_tasks_total]. *)

type t

val create : ?window_ms:float -> unit -> t

val window_ms : t -> float

val set_window_ms : t -> float -> unit

(** [run t ~key f] returns [(body, follower)]: [follower] is [true]
    when the body came from another request's leader. *)
val run : t -> key:string -> (unit -> string) -> string * bool

(** Number of keys with a flight currently open (test hook). *)
val in_flight : t -> int

(** Cumulative process-wide counters. *)
val leaders : unit -> int

val followers : unit -> int

val helped : unit -> int
(** Pool tasks executed by waiting followers. *)
