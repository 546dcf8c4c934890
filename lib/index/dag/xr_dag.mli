(** DAG-compressed keyword occurrence index.

    Real XML corpora are massively repetitive: identical subtrees (the
    same author leaf, the same year element, the same venue) recur
    thousands of times. Hash-consing the parsed tree bottom-up groups
    nodes into structural equivalence classes — two nodes share a class
    exactly when their subtrees are byte-identical (tag, attributes,
    text and element children, recursively) — turning the tree into a
    DAG of shared subtrees.

    Identical subtrees contain identical direct keywords, so the flat
    inverted index ({!Xr_index.Inverted}-style, one posting per
    (node, keyword) pair) collapses: a keyword's list becomes one entry
    per *distinct occurrence class* plus a shared expansion table mapping
    each class to its instance labels. The expansion table stores every
    instance exactly once, shared across all the keywords of its class —
    that sharing, plus dropping the per-posting offset/path words of the
    flat form, is where the compression comes from.

    The structure supports two access paths, neither of which
    decompresses the full tree:
    - {!merge} expands one keyword's postings to the exact flat packed
      list (document order, byte-identical to the uncompressed build) —
      the lazy per-keyword bridge to every existing kernel;
    - {!stats}/{!bytes} quantify the sharing for /stats and the bench
      gate. *)

open Xr_xml

type t

type stats = {
  nodes : int;  (** element nodes in the document *)
  classes : int;  (** distinct subtree classes over all nodes *)
  occurrence_classes : int;
      (** classes whose nodes carry at least one direct keyword (every
          class in practice — tag tokens count — but kept separate so the
          encoding never relies on it) *)
  instances : int;  (** expansion entries: nodes of occurrence classes *)
  tree_edges : int;  (** parent→child element edges in the tree *)
  dag_edges : int;  (** distinct such edges after sharing *)
  postings : int;  (** flat postings the expansion represents *)
}

(** [build doc] hash-conses the document tree bottom-up and encodes the
    occurrence-class expansion. O(document) time and space; the walk
    follows the same pre-order as {!Doc.of_tree}, so instance entries
    align with [doc.nodes]. *)
val build : Doc.t -> t

val stats : t -> stats

(** [bytes t] is the resident footprint, counted like
    {!Xr_index.Inverted.packed_bytes}: byte buffers at size, one word
    per int-array slot. *)
val bytes : t -> int

(** [label_bytes t] is the size of the shared instance label buffer. *)
val label_bytes : t -> int

(** [vocab t] is the keyword-id space covered ([Interner.size] at build
    time). *)
val vocab : t -> int

(** [posting_count t kw] is the flat posting-list length of [kw] —
    O(1), no expansion. *)
val posting_count : t -> Interner.id -> int

val postings_total : t -> int

(** [node_dedup_ratio t] is [classes / nodes]: 1.0 means nothing shared,
    0.1 means ten nodes per distinct subtree on average. *)
val node_dedup_ratio : t -> float

(** [edge_dedup_ratio t] is [dag_edges / tree_edges]. *)
val edge_dedup_ratio : t -> float

(** The shared expansion buffer: every instance of every occurrence
    class, grouped class by class, document order within a class. *)
val expansion : t -> Dewey.Packed.t

(** [merge t kw] expands [kw]'s postings to the flat form: labels in
    document order (byte-identical to what the uncompressed build packs)
    plus the per-posting path ids. O(postings · log classes). *)
val merge : t -> Interner.id -> Dewey.Packed.t * int array
