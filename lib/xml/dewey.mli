(** Dewey labels for XML nodes.

    A Dewey label encodes the path of child ordinals from the document root
    to a node: the root is [[||]]; its second child is [[|1|]]; the first
    child of that node is [[|1; 0|]]. Lexicographic order on labels
    coincides with document order, and the lowest common ancestor of two
    nodes is the longest common prefix of their labels. *)

type t = int array

(** [compare a b] orders labels in document order (lexicographic, with a
    prefix ordered before its extensions). *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** [root] is the label of the document root ([[||]]). *)
val root : t

(** [child d i] is the label of the [i]-th child (0-based) of [d]. *)
val child : t -> int -> t

(** [parent d] is the label of [d]'s parent, or [None] for the root. *)
val parent : t -> t option

(** [depth d] is the number of components, i.e. 0 for the root. *)
val depth : t -> int

(** [is_prefix p d] is true iff [p] is a (non-strict) prefix of [d], i.e.
    the node labeled [p] is [d] or an ancestor of [d]. *)
val is_prefix : t -> t -> bool

(** [lca a b] is the longest common prefix of [a] and [b]: the Dewey label
    of the lowest common ancestor of the two nodes. *)
val lca : t -> t -> t

(** [prefix d n] is the first [n] components of [d].
    @raise Invalid_argument if [n > depth d]. *)
val prefix : t -> int -> t

(** [common_prefix_len a b] is the number of leading components shared by
    [a] and [b]. *)
val common_prefix_len : t -> t -> int

(** [to_string d] renders [d] as ["0.1.2"] (the root renders as ["0"];
    non-root labels are printed with a leading ["0."] component standing
    for the root, matching the paper's notation). *)
val to_string : t -> string

(** [of_string s] parses the notation produced by {!to_string}.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val pp : Format.formatter -> t -> unit

(** [hash d] is a hash compatible with {!equal}. *)
val hash : t -> int

(** Packed label sequences: an entire inverted list's Dewey labels varint
    encoded into one contiguous, immutable byte buffer with an offsets
    table. Entry [i] is stored as a varint depth followed by its varint
    components. Comparison, common-prefix and lower-bound probes operate
    directly on the encoded form with early exit, so the hot SLCA kernels
    never materialize an [int array] per step; the flat buffer also makes
    binary-search probes cache-friendly and safely shareable across
    domains (the structure is immutable after construction). *)
module Packed : sig
  type t

  val empty : t

  (** [length t] is the number of labels stored. *)
  val length : t -> int

  (** [byte_size t] is the size of the label buffer in bytes (offsets
      table excluded). *)
  val byte_size : t -> int

  (** [max_depth t] bounds the depth of every stored label; sizing a
      scratch buffer to it makes {!blit_entry} total. *)
  val max_depth : t -> int

  (** [of_array labels] packs labels in the given order (inverted lists
      are in document order, but no order is required here).
      @raise Invalid_argument on a negative component. *)
  val of_array : int array array -> t

  val of_list : int array list -> t

  (** [append a b] holds [a]'s entries followed by [b]'s — the same
      buffer {!of_array} packs from the concatenated labels, built
      without decoding either side. *)
  val append : t -> t -> t

  (** [get t i] materializes entry [i] (slow path / compatibility). *)
  val get : t -> int -> int array

  val to_array : t -> int array array

  (** [depth_at t i] is the depth of entry [i] without decoding it. *)
  val depth_at : t -> int -> int

  (** [blit_entry t i dst] decodes entry [i] into [dst] and returns its
      depth. [dst] must hold at least {!max_depth} components. *)
  val blit_entry : t -> int -> int array -> int

  (** [compare_sub t i v len] compares entry [i] against the first [len]
      components of [v] in document order, without materializing. *)
  val compare_sub : t -> int -> int array -> int -> int

  (** [compare_label t i v] is [compare_sub t i v (Array.length v)]. *)
  val compare_label : t -> int -> int array -> int

  (** [common_prefix_len_sub t i v len] is the number of leading
      components entry [i] shares with [v]'s first [len] components. *)
  val common_prefix_len_sub : t -> int -> int array -> int -> int

  val common_prefix_len_label : t -> int -> int array -> int

  (** [first_component t i] is the first path component of entry [i]
      without materializing it, or [-1] for the root (depth 0) — the
      partition id of the posting in the paper's partition evaluation. *)
  val first_component : t -> int -> int

  (** [compare_prefix_sub t i v len] fuses {!compare_sub} and
      {!common_prefix_len_sub} into one walk over entry [i]: the result
      is [(plen lsl 2) lor (cmp + 1)] where [cmp] (in [-1..1]) orders
      the entry against [v.(0..len-1)] and [plen] is their common prefix
      length. Probe primitive of the allocation-free scan kernels. *)
  val compare_prefix_sub : t -> int -> int array -> int -> int

  (** [compare_entries a i b j] compares entry [i] of [a] with entry [j]
      of [b], decoding both streams in lockstep. *)
  val compare_entries : t -> int -> t -> int -> int

  (** [lower_bound_sub t ~lo v len] is the first index in [[lo, length t)]
      whose entry is [>=] the first [len] components of [v] (binary
      search; assumes the list is sorted, as inverted lists are). *)
  val lower_bound_sub : t -> lo:int -> int array -> int -> int

  val lower_bound : t -> lo:int -> int array -> int

  (** [prefix_slice_sub t ~lo v len] is the half-open index range of the
      entries lying in the subtree rooted at [v]'s first [len] components,
      restricted to indices [>= lo], found by two binary searches on the
      encoded form. *)
  val prefix_slice_sub : t -> lo:int -> int array -> int -> int * int

  val prefix_slice : t -> lo:int -> int array -> int * int

  (** [to_raw t] exposes the label buffer, offsets table and max depth for
      zero-copy persistence. The returned arrays are the live internals:
      do not mutate them. *)
  val to_raw : t -> string * int array * int

  (** [of_raw ~buf ~offsets ~max_depth] adopts a buffer produced by
      {!to_raw} (or read back from storage) without re-encoding.
      @raise Invalid_argument if the offsets table is not a monotone span
      of the buffer. *)
  val of_raw : buf:string -> offsets:int array -> max_depth:int -> t
end
