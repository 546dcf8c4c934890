(** Monotone cursors over inverted lists, with access accounting.

    Every refinement algorithm in the paper claims a one-time scan of the
    involved inverted lists; cursors make that claim checkable: they only
    move forward, and they count sequential advances and indexed seeks so
    tests (and the benchmark harness) can assert the scan discipline. *)

open Xr_xml

type t

(** [make list] is a cursor positioned before the first posting. *)
val make : Inverted.posting array -> t

(** [peek c] is the posting under the cursor, or [None] at end of list. *)
val peek : t -> Inverted.posting option

(** [advance c] moves one posting forward (counted as a sequential
    access). No-op at end of list. *)
val advance : t -> unit

(** [seek_geq c dewey] moves forward to the first posting whose label is
    [>= dewey] (binary search over the remaining suffix; counted as one
    random access). Never moves backward. *)
val seek_geq : t -> Dewey.t -> unit

(** [skip_to c idx] moves the cursor to absolute index [idx] if that is
    forward; counted as one random access. *)
val skip_to : t -> int -> unit

(** [at_end c] is true when the cursor is exhausted. *)
val at_end : t -> bool

(** [position c] is the current absolute index into the list. *)
val position : t -> int

(** [list_length c] is the length of the underlying list. *)
val list_length : t -> int

(** [sequential_accesses c] / [random_accesses c]: access counters. *)
val sequential_accesses : t -> int

val random_accesses : t -> int

(** Monotone cursor over a packed label buffer ({!Dewey.Packed}) — the
    scan substrate of the allocation-free SLCA kernels. Positional
    peeking (no option allocation per step) and galloping seeks that
    resume from the current position. *)
module Packed : sig
  type t

  val make : Dewey.Packed.t -> t

  (** [make_sub labels ~lo ~hi] is a cursor confined to the entry range
      [[lo, hi)] — the scan substrate of per-partition SLCA steps, where
      each keyword contributes the slice of its list lying under the
      partition root. Probes and brackets never look outside the range.
      @raise Invalid_argument unless [0 <= lo <= hi <= length labels]. *)
  val make_sub : Dewey.Packed.t -> lo:int -> hi:int -> t

  (** [labels c] is the underlying packed list; combine with
      {!position} to probe the entry under the cursor. *)
  val labels : t -> Dewey.Packed.t

  (** [length c] is the number of entries visible to the cursor (the
      sub-range length for {!make_sub} cursors). *)
  val length : t -> int

  val at_end : t -> bool

  val position : t -> int

  (** [advance c] moves one entry forward (a sequential access). *)
  val advance : t -> unit

  (** [seek_geq_sub c v len] moves forward to the first entry [>=] the
      first [len] components of [v], galloping from the current position
      (one random access when the cursor moves). Never moves backward. *)
  val seek_geq_sub : t -> int array -> int -> unit

  val seek_geq : t -> Dewey.t -> unit

  (** [match_probe c v len] is the scan kernels' fused inner step: seek
      to the first entry [>=] the first [len] components of [v] (as
      {!seek_geq_sub}) and return the deepest common prefix length of
      [v] with the two entries bracketing that position, [-1] when
      neither exists. Each entry compared during the search is walked
      exactly once. *)
  val match_probe : t -> int array -> int -> int

  val sequential_accesses : t -> int

  val random_accesses : t -> int
end
