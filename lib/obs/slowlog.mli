(** Slow-query log formatting: one JSON line per offending request with
    its span breakdown inlined. The caller owns the threshold check and
    the output stream. *)

val render :
  endpoint:string ->
  status:int ->
  ms:float ->
  trace_id:int ->
  ?corpora:(string * int) list ->
  Tracing.span list ->
  string
(** A single line (no trailing newline):
    [{"slow_query":true,"endpoint":…,"status":…,"ms":…,"trace":…,
      "corpora":[{"corpus":…,"generation":…}],"spans":[…]}].
    [corpora] attributes the entry to the (corpus, generation id) pairs
    the request was served from, so a slow line stays diagnosable after
    an ingest publish swaps the index;
    omitted (or empty) ⇒ no ["corpora"] field, for requests that never
    touched an index. *)
