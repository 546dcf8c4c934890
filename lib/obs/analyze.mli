(** The ANALYZE collection channel: an ambient, per-request accumulator
    that execution stages write actuals into — candidates in/out per
    stage and per-pool-task GC deltas.

    Cost model, in order of importance: when no report is active (every
    normal request), each [note_*] call is one [Domain.DLS.get] and a
    [None] check — the same budget class as a disabled
    {!Tracing.with_span}, and covered by the same ≤ 2% bench gate
    ([analyze_off_overhead_pct] in BENCH_slca.json).

    The report is domain-local ambient state (like the tracing
    context): fork points capture it with {!current} and hand it to
    {!task} on the worker. Mutation is mutex-protected — ANALYZE
    requests are explicitly diagnostic, they may pay for a lock. *)

type stage = { sg_name : string; sg_in : int; sg_out : int }
(** Candidate counts through one pipeline stage. *)

type report

val with_report : (unit -> 'a) -> 'a * report
(** Run [f] with a fresh report installed as this domain's ambient
    collection; returns the result and the finished report. Nested
    calls shadow (inner wins), exceptions uninstall. *)

val active : unit -> bool

val current : unit -> report option
(** Capture the ambient report at a fork point (or [None]). *)

val task : report option -> (unit -> unit) -> unit
(** [task r f] runs one pool task: for [Some r] the report is installed
    on the executing domain for the duration and the task's GC delta
    and count are folded into it; [None] just runs [f]. *)

(** {1 Recording} (no-ops without an active report) *)

val note_stage : name:string -> input:int -> output:int -> unit

(** {1 Reading a finished report} *)

val stages : report -> stage list
(** In recording order. *)

val task_gc : report -> Runtime.gc_delta
(** Summed GC delta over all pool tasks that ran under this report. *)

val tasks : report -> int
