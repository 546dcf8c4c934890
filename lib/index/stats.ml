open Xr_xml

let memo_shard_count = 16 (* power of two: shard index is a hash mask *)

type t = {
  doc : Doc.t;
  inverted : Inverted.t;
  df : (Path.id * Interner.id, int) Hashtbl.t;
  tf : (Path.id * Interner.id, int) Hashtbl.t;
  distinct : int array; (* G_T, by path id *)
  nodes_per_path : int array; (* N_T, by path id *)
  memo_shards : memo_shard array;
      (* [cooccur] memoizes at query time; the index is otherwise
         read-only after [build]. The memo is sharded by key hash so
         request domains and pool workers filling it concurrently do
         not serialize on a single lock. *)
}

and memo_shard = {
  memo : (Path.id * Interner.id * Interner.id, int) Hashtbl.t;
  lock : Mutex.t;
}

let make_memo_shards () =
  Array.init memo_shard_count (fun _ ->
      { memo = Hashtbl.create 32; lock = Mutex.create () })

let build (doc : Doc.t) inverted =
  let npaths = Path.size doc.paths in
  let df = Hashtbl.create 4096 in
  let tf = Hashtbl.create 4096 in
  let nodes_per_path = Array.make npaths 0 in
  (* Last counted ancestor label per (T, k): nodes arrive in document
     order, so occurrences under one T-typed ancestor are consecutive and
     a (T, k) pair needs a new df count exactly when the ancestor label at
     depth(T) changes. *)
  let last_prefix : (Path.id * Interner.id, Dewey.t) Hashtbl.t = Hashtbl.create 4096 in
  let bump table key n =
    let v = try Hashtbl.find table key with Not_found -> 0 in
    Hashtbl.replace table key (v + n)
  in
  Array.iter
    (fun (node : Doc.node) ->
      nodes_per_path.(node.path) <- nodes_per_path.(node.path) + 1;
      if node.keywords <> [] then begin
        let ancestor_paths = Path.ancestors doc.paths node.path in
        List.iter
          (fun (kw, count) ->
            List.iter
              (fun tpath ->
                let d = Path.depth doc.paths tpath in
                let prefix = Dewey.prefix node.dewey (d - 1) in
                (* depth 1 = root path = Dewey prefix of length 0 *)
                bump tf (tpath, kw) count;
                let key = (tpath, kw) in
                let fresh =
                  match Hashtbl.find_opt last_prefix key with
                  | Some p -> not (Dewey.equal p prefix)
                  | None -> true
                in
                if fresh then begin
                  Hashtbl.replace last_prefix key prefix;
                  bump df key 1
                end)
              ancestor_paths)
          node.keywords
      end)
    doc.nodes;
  let distinct = Array.make npaths 0 in
  Hashtbl.iter (fun (tpath, _) _ -> distinct.(tpath) <- distinct.(tpath) + 1) df;
  {
    doc;
    inverted;
    df;
    tf;
    distinct;
    nodes_per_path;
    memo_shards = make_memo_shards ();
  }

(* Incremental variant of [build] for an appended partition. New nodes'
   Dewey labels all lie in the fresh partition, so every (type, keyword)
   ancestor prefix is new — except the document root, whose df must only
   be bumped when the keyword is new to the whole document. *)
let append t ~doc ~inverted ~added =
  let npaths = Path.size doc.Doc.paths in
  let grow a = Array.append a (Array.make (npaths - Array.length a) 0) in
  let nodes_per_path = grow t.nodes_per_path in
  let distinct = grow t.distinct in
  let bump table key n =
    let v = try Hashtbl.find table key with Not_found -> 0 in
    Hashtbl.replace table key (v + n)
  in
  let last_prefix : (Path.id * Interner.id, Dewey.t) Hashtbl.t = Hashtbl.create 256 in
  let root_depth = 1 in
  Array.iter
    (fun (node : Doc.node) ->
      nodes_per_path.(node.path) <- nodes_per_path.(node.path) + 1;
      if node.keywords <> [] then begin
        let ancestor_paths = Path.ancestors doc.Doc.paths node.path in
        List.iter
          (fun (kw, count) ->
            List.iter
              (fun tpath ->
                let d = Path.depth doc.Doc.paths tpath in
                let prefix = Dewey.prefix node.dewey (d - 1) in
                bump t.tf (tpath, kw) count;
                let key = (tpath, kw) in
                let fresh_here =
                  match Hashtbl.find_opt last_prefix key with
                  | Some p -> not (Dewey.equal p prefix)
                  | None -> true
                in
                if fresh_here then begin
                  Hashtbl.replace last_prefix key prefix;
                  (* the root node predates this partition: count it only
                     once per keyword over the document's lifetime *)
                  let already =
                    d = root_depth && (try Hashtbl.find t.df key > 0 with Not_found -> false)
                  in
                  if not already then begin
                    if (try Hashtbl.find t.df key with Not_found -> 0) = 0 then
                      distinct.(tpath) <- distinct.(tpath) + 1;
                    bump t.df key 1
                  end
                end)
              ancestor_paths)
          node.keywords
      end)
    added;
  Array.iter
    (fun shard -> Mutex.protect shard.lock (fun () -> Hashtbl.reset shard.memo))
    t.memo_shards;
  { t with doc; inverted; nodes_per_path; distinct }

let fork t ~doc =
  {
    t with
    doc;
    df = Hashtbl.copy t.df;
    tf = Hashtbl.copy t.tf;
    distinct = Array.copy t.distinct;
    nodes_per_path = Array.copy t.nodes_per_path;
    memo_shards = make_memo_shards ();
  }

let rebind t ~inverted = { t with inverted; memo_shards = make_memo_shards () }

let doc t = t.doc

let df t ~path ~kw = try Hashtbl.find t.df (path, kw) with Not_found -> 0

let tf t ~path ~kw = try Hashtbl.find t.tf (path, kw) with Not_found -> 0

let distinct_keywords t path =
  if path >= 0 && path < Array.length t.distinct then t.distinct.(path) else 0

let node_count t path =
  if path >= 0 && path < Array.length t.nodes_per_path then t.nodes_per_path.(path) else 0

(* Distinct T-ancestor labels shared by the posting lists of k1 and k2:
   truncate both lists to the Dewey prefix at depth(T)-1 (keeping only
   postings that actually descend from a T-typed node) and count common
   distinct prefixes with a linear merge. Scans the packed lists in
   place — entries are decoded into a reused scratch buffer and a prefix
   is materialized only when it differs from the previous one, so no
   boxed posting is ever built. *)
let cooccur_compute t ~path k1 k2 =
  let d = Path.depth t.doc.paths path - 1 in
  let truncated kw =
    let pk = Inverted.packed_list t.inverted kw in
    let labels = pk.Inverted.labels in
    let n = Dewey.Packed.length labels in
    let scratch = Array.make (max 1 (Dewey.Packed.max_depth labels)) 0 in
    let acc = ref [] in
    for i = 0 to n - 1 do
      if Dewey.Packed.depth_at labels i >= d then begin
        match Path.ancestor_at t.doc.paths pk.Inverted.paths.(i) ~depth:(d + 1) with
        | Some a when a = path ->
          ignore (Dewey.Packed.blit_entry labels i scratch);
          let fresh =
            match !acc with
            | last :: _ ->
              let eq = ref true in
              for j = 0 to d - 1 do
                if last.(j) <> scratch.(j) then eq := false
              done;
              not !eq
            | [] -> true
          in
          if fresh then acc := Array.sub scratch 0 d :: !acc
        | _ -> ()
      end
    done;
    List.rev !acc
  in
  let rec merge n a b =
    match (a, b) with
    | [], _ | _, [] -> n
    | x :: a', y :: b' ->
      let c = Dewey.compare x y in
      if c = 0 then merge (n + 1) a' b'
      else if c < 0 then merge n a' b
      else merge n a b'
  in
  merge 0 (truncated k1) (truncated k2)

let memo_fam =
  Xr_obs.Registry.Counter.family ~name:"xr_stats_cooccur_memo_total"
    ~help:"Co-occurrence memo lookups during ranking" ~label_names:[ "outcome" ] ()

let memo_hits_h = Xr_obs.Registry.Counter.handle memo_fam [ "hit" ]

let memo_misses_h = Xr_obs.Registry.Counter.handle memo_fam [ "miss" ]

let cooccur t ~path k1 k2 =
  let k1, k2 = if k1 <= k2 then (k1, k2) else (k2, k1) in
  if k1 = k2 then df t ~path ~kw:k1
  else begin
    let key = (path, k1, k2) in
    let shard = t.memo_shards.(Hashtbl.hash key land (memo_shard_count - 1)) in
    let cached = Mutex.protect shard.lock (fun () -> Hashtbl.find_opt shard.memo key) in
    match cached with
    | Some v ->
      Xr_obs.Registry.Counter.inc memo_hits_h;
      v
    | None ->
      Xr_obs.Registry.Counter.inc memo_misses_h;
      (* Compute outside the lock: a racing domain at worst recomputes the
         same value; [replace] keeps the table consistent either way. *)
      let v = cooccur_compute t ~path k1 k2 in
      Mutex.protect shard.lock (fun () -> Hashtbl.replace shard.memo key v);
      v
  end

let paths_containing t kw =
  let acc = ref [] in
  Hashtbl.iter (fun (path, k) v -> if k = kw then acc := (path, v) :: !acc) t.df;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc

let path_count t = Path.size t.doc.paths

let export t =
  let acc = ref [] in
  Hashtbl.iter
    (fun (path, kw) d ->
      let f = try Hashtbl.find t.tf (path, kw) with Not_found -> 0 in
      acc := (path, kw, d, f) :: !acc)
    t.df;
  List.sort compare !acc

let import (doc : Doc.t) inverted ~rows ~nodes_per_path =
  let npaths = Path.size doc.paths in
  let df = Hashtbl.create 4096 and tf = Hashtbl.create 4096 in
  let distinct = Array.make npaths 0 in
  List.iter
    (fun (path, kw, d, f) ->
      Hashtbl.replace df (path, kw) d;
      Hashtbl.replace tf (path, kw) f;
      if path >= 0 && path < npaths then distinct.(path) <- distinct.(path) + 1)
    rows;
  {
    doc;
    inverted;
    df;
    tf;
    distinct;
    nodes_per_path;
    memo_shards = make_memo_shards ();
  }

let total_nodes t = Doc.node_count t.doc
