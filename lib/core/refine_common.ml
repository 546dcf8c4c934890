open Xr_xml
module Index = Xr_index.Index
module Inverted = Xr_index.Inverted
module Meaningful = Xr_slca.Meaningful
module Slca_engine = Xr_slca.Engine

type t = {
  index : Index.t;
  query : string list;
  rules : Ruleset.t;
  ks : string array;
  packed : Dewey.Packed.t array;
  q_size : int;
  meaningful : Meaningful.t;
  dp_config : Optimal_rq.config;
}

let make ?(dp_config = Optimal_rq.default_config) ?search_for (index : Index.t) rules query =
  let query =
    List.filter (fun k -> String.length k > 0) (List.map Token.normalize query)
  in
  (* distinct query keywords, order of first occurrence *)
  let q_distinct =
    List.fold_left (fun acc k -> if List.mem k acc then acc else k :: acc) [] query
    |> List.rev
  in
  let doc = index.Index.doc in
  let in_doc k = Doc.keyword_id doc k <> None in
  let rules =
    Ruleset.of_rules
      (List.filter
         (fun (r : Rule.t) -> List.for_all in_doc r.rhs)
         (Ruleset.to_list (Ruleset.relevant rules query)))
  in
  let new_kws = Ruleset.new_keywords rules query in
  let ks = Array.of_list (q_distinct @ new_kws) in
  let ids = Array.map (fun k -> Doc.keyword_id doc k) ks in
  (* The packed lists are shared with the index — building [t] copies
     nothing. *)
  let packed =
    Array.map
      (function
        | Some kw -> (Inverted.packed_list index.Index.inverted kw).Inverted.labels
        | None -> Dewey.Packed.empty)
      ids
  in
  let q_ids = List.filter_map (fun k -> Doc.keyword_id doc k) q_distinct in
  (* If every original keyword is out of vocabulary, the search-for
     inference has no statistics to work with; fall back to the keywords
     the relevant rules can generate (the refined queries will be built
     from exactly those). *)
  let q_ids =
    if q_ids <> [] then q_ids else List.filter_map (fun k -> Doc.keyword_id doc k) new_kws
  in
  let meaningful = Meaningful.make ?config:search_for index.Index.stats q_ids in
  {
    index;
    query;
    rules;
    ks;
    packed;
    q_size = List.length q_distinct;
    meaningful;
    dp_config;
  }

let list_length t i = Dewey.Packed.length t.packed.(i)

let keyword_length t k =
  let rec find i =
    if i >= Array.length t.ks then 0
    else if String.equal t.ks.(i) k then Dewey.Packed.length t.packed.(i)
    else find (i + 1)
  in
  find 0

let available_in t ranges k =
  let rec find i =
    if i >= Array.length t.ks then false
    else if String.equal t.ks.(i) k then
      let lo, hi = ranges.(i) in
      hi > lo
    else find (i + 1)
  in
  find 0

let index_of t k =
  let rec find i =
    if i >= Array.length t.ks then None
    else if String.equal t.ks.(i) k then Some i
    else find (i + 1)
  in
  find 0

let packed_sublists t ranges keywords =
  List.map
    (fun k ->
      match index_of t k with
      | Some i ->
        let lo, hi = ranges.(i) in
        (t.packed.(i), lo, hi)
      | None -> (Dewey.Packed.empty, 0, 0))
    keywords

let packed_full_lists t keywords =
  List.map
    (fun k ->
      match index_of t k with
      | Some i -> (t.packed.(i), 0, Dewey.Packed.length t.packed.(i))
      | None -> (Dewey.Packed.empty, 0, 0))
    keywords

let meaningful_slcas_ranges t alg ranges =
  Meaningful.filter t.meaningful (Slca_engine.compute_ranges alg ranges)

(* The DP depends only on which KS keywords are present in a partition;
   partitions sharing that signature share their candidate list, so one
   DP run serves them all. The signature is a presence bitmask — KS is
   far smaller than a word in any realistic query. *)
let signature ranges =
  let rec go j acc =
    if j >= Array.length ranges then acc
    else
      let lo, hi = ranges.(j) in
      go (j + 1) (if hi > lo then acc lor (1 lsl j) else acc)
  in
  go 0 0

type cand_set = {
  cands : (Refined_query.t * string) list;
  mutable pure_rev : int;
}

let make_candidates_for t ~k ~dp_runs =
  let dp_cache : (int, cand_set) Hashtbl.t = Hashtbl.create 16 in
  let cacheable = Array.length t.ks <= 62 (* bitmask must not overflow *) in
  let compute ranges =
    incr dp_runs;
    let cs =
      (* over-fetch: the beam already holds the states, and candidates
         beyond the 2K cheapest matter when the cheap ones lack
         meaningful SLCAs in this partition *)
      Optimal_rq.top_k ~config:t.dp_config ~rules:t.rules
        ~available:(available_in t ranges)
        ~k:(max (2 * k) t.dp_config.Optimal_rq.beam)
        t.query
    in
    { cands = List.map (fun rq -> (rq, Refined_query.key rq)) cs; pure_rev = -1 }
  in
  fun ranges ->
    if not cacheable then compute ranges
    else
      let key = signature ranges in
      match Hashtbl.find_opt dp_cache key with
      | Some cs -> cs
      | None ->
        let cs = compute ranges in
        Hashtbl.add dp_cache key cs;
        cs
