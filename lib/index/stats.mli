(** Document statistics: the paper's frequency table and co-occurrence
    table (Section VII), plus the per-type aggregates used by the ranking
    model.

    For a node type [T] and keyword [k]:
    - [df] is the XML document frequency {% $f_k^T$ %} (Definition 3.2):
      the number of [T]-typed nodes containing [k] in their subtrees;
    - [tf] is the XML term frequency {% $tf(k,T)$ %}: the total number of
      occurrences of [k] within subtrees rooted at [T]-typed nodes;
    - [distinct_keywords] is {% $G_T$ %}: the number of distinct keywords
      occurring in subtrees of type [T];
    - [node_count] is {% $N_T$ %}: the number of [T]-typed nodes;
    - [cooccur] is {% $f_{k_i,k_j}^T$ %}: the number of [T]-typed nodes
      whose subtree contains both keywords. Computed on demand by
      galloping the longer inverted list from the shorter list's
      [T]-typed ancestors, and memoized (the paper
      stores the full table in Berkeley DB; the memo table is its
      equivalent, built lazily to avoid the {% $K^2 T$ %} worst case). *)

open Xr_xml

type t

(** [build doc inverted] computes all eager statistics in one pass over
    the document's nodes.

    The pass is one kernel, shared with {!append}. It keeps
    [stack.(d)] = the index of the last node seen at depth [d + 1], so a
    node's ancestor of type [T] is [stack.(depth T - 1)]: a node index,
    never a copied Dewey prefix. Each (T, k) pair owns one cell of
    counters, found by one int key; per (keyword occurrence × ancestor
    type) the kernel adds to [tf], and adds 1 to [df] when the ancestor
    differs from the last one the cell counted. Nothing is allocated
    per pair. This rests on two invariants:
    - nodes arrive in pre-order ([Doc.t.nodes]), so the stack holds a
      node's ancestors and a pair's occurrences under one ancestor are
      consecutive;
    - appends add root children only ({!Doc.append_child}), so the root,
      node 0, is the only existing node an appended node can sit under. *)
val build : Doc.t -> Inverted.t -> t

(** [doc t] is the document these statistics describe. *)
val doc : t -> Doc.t

val df : t -> path:Path.id -> kw:Interner.id -> int

val tf : t -> path:Path.id -> kw:Interner.id -> int

val distinct_keywords : t -> Path.id -> int

val node_count : t -> Path.id -> int

(** [cooccur t ~path k1 k2] is symmetric in [k1]/[k2]. The memo table it
    fills is the only query-time mutation in the whole index bundle and
    is sharded by key hash, each shard under its own mutex, so a built
    [t] may be queried from parallel domains — request workers and
    {!Xr_pool} tasks alike — without serializing on one lock. *)
val cooccur : t -> path:Path.id -> Interner.id -> Interner.id -> int

(** [paths_containing t kw] is every node type whose subtrees contain
    [kw], with its [df], ascending by path id. *)
val paths_containing : t -> Interner.id -> (Path.id * int) list

(** [path_count t] is the number of node types in the document. *)
val path_count : t -> int

(** [append t ~doc ~inverted ~added] updates the statistics for nodes of
    a freshly appended document partition (see {!Doc.append_child}) by
    running {!build}'s kernel over [added] alone: the frequency table is
    bumped in place (the old [t] becomes stale), the per-type aggregates
    grow to cover new node types, and the co-occurrence memo starts
    empty. [doc]/[inverted] are the post-append versions. *)
val append : t -> doc:Doc.t -> inverted:Inverted.t -> added:Doc.node array -> t

(** [fork t ~doc] is a statistics table that owns private copies of every
    mutable structure in [t] (frequency tables, per-type aggregates, a
    fresh co-occurrence memo), so a later {!append} on the fork never
    disturbs readers of [t]. [doc] is the forked document (see
    {!Doc.fork}); the inverted table is shared, it is immutable. *)
val fork : t -> doc:Doc.t -> t

(** [export t] dumps the frequency table as [(path, kw, df, tf)] rows,
    for persistence. *)
val export : t -> (Path.id * Interner.id * int * int) list

(** [import doc inverted ~rows ~nodes_per_path] rebuilds a statistics
    table from persisted rows without rescanning the document; a later
    {!append} continues from it as from {!build}.
    @raise Failure on a row whose path or keyword id is out of range,
    that repeats a (path, keyword) pair, or that breaks
    [1 <= df <= N_T] or [tf >= df]. *)
val import :
  Doc.t ->
  Inverted.t ->
  rows:(Path.id * Interner.id * int * int) list ->
  nodes_per_path:int array ->
  t

(** [total_nodes t] is the number of element nodes in the document. *)
val total_nodes : t -> int
